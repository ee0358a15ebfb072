"""End-to-end multi-party workflow with in-process simulated parties.

The flow: every party obfuscates its raw vertex keys with a shared salt and
submits the resulting fixed-width IDs; the server builds the merged vertex
mapping out of oblivious routines and returns each party its slice; parties
locally remap their edges, group them into the public grid shape and send
bit-packed blocks; the server merges the party grids, runs the requested
application for t rounds, and distributes per-vertex results back.

Server-side stages are assembled purely from the oblivious routines over
arrays of public lengths, and network sends/receives are traced as
sequential passes over the message buffers (message sizes are public
parameters).  Party-local work is non-oblivious by design: it runs on the
party's own trusted machine.  It is array work throughout: a party resolves
each edge endpoint to the index of its key once, with one `searchsorted`
over its sorted keys; it matches the IDs of a returned message to its own
by sorting the rows on the ID's `h` word and searching them, so mapping its
edges is one fancy index.  It encodes its grid onto the null template and
the server decodes it against that template (`grid.encode_grid`,
`grid.decode_grid`), so the padding costs no codec work.  Raw vertex keys
are integers in [0, 2^64) (only their digests leave the party), and
results come back keyed by Python ints.

Mapped IDs are assigned 0-based in ascending obfuscated-ID order (a dense
rank), which differs from the 1-based counter a direct reading of the
mapping procedure would produce; every array in the system is 0-indexed and
the shift has no behavioral consequence.

Message formats (all integers little-endian):
  VERTEX_SUBMIT   n_i x 16-byte obfuscated ID
  MAP_RETURN      n_i x (16-byte ID + 8-byte mapped ID)
  GRID_SUBMIT     grid container (header + b^2 encoded blocks)
  RESULT_RETURN   n_i x (16-byte ID + 8-byte result bits)
"""

import copy
import hashlib
import operator
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from typing import Dict, List

import numpy as np

from . import apps as apps_mod
from . import baselines
from .errors import (
    MalformedPartyFile,
    MissingID,
    ObligeError,
    ParamMismatch,
    UnknownSource,
    UsageError,
)
from .grid import (
    EDGE_DTYPE,
    GRID_REGION,
    GridGraph,
    PublicParams,
    block_loads,
    decode_grid,
    encode_grid,
    parse_grid_header,
)
from .omsim import ELEMENT, READ, WRITE, Buffer, OMSim, with_fields
from .oprims import group_ids, o_filter, o_merge, o_sort, o_split_trans, o_trans, o_trans_merge

NULL64 = np.uint64(0xFFFFFFFFFFFFFFFF)

ID_DTYPE = np.dtype([("h", "<u8"), ("l", "<u8")])
VM_DTYPE = np.dtype([("h", "<u8"), ("l", "<u8"), ("party", "<u8"), ("mapped", "<u8")])
MAP_DTYPE = np.dtype([("h", "<u8"), ("l", "<u8"), ("mapped", "<u8")])
S_DTYPE = np.dtype([
    ("party", "<u8"), ("h", "<u8"), ("l", "<u8"),
    ("mapped", "<u8"), ("result", "<u8"),
])
RES_DTYPE = np.dtype([("h", "<u8"), ("l", "<u8"), ("result", "<u8")])
R_DTYPE = np.dtype([("mapped", "<u8"), ("result", "<u8")])


# -- identity obfuscation ------------------------------------------------------

def _uint64s(values, row_shape, what):
    """`values` as a uint64 array of rows of `row_shape`; integers in [0, 2^64).

    An integer array (or a list numpy reads as one) passes through, a signed
    one after one check for negative values.  Anything else is read value by
    value with `operator.index`, which refuses floats, str, bytes and None,
    and overflows outside [0, 2^64).  An empty input is zero rows.
    """
    try:
        array = np.asarray(values)
        if array.dtype.kind not in "iu":
            objects = np.asarray(values, dtype=object)
            array = np.fromiter(map(operator.index, objects.ravel()), dtype=np.uint64,
                                count=objects.size).reshape(objects.shape)
    except (TypeError, ValueError, OverflowError):
        array = None
    if array is None or array.dtype.kind == "i" and array.size and array.min() < 0:
        raise MalformedPartyFile("%s: a value is not an integer in [0, 2^64)" % what)
    if not array.size:
        array = array.reshape((0,) + row_shape)
    if array.shape[1:] != row_shape or array.ndim != 1 + len(row_shape):
        raise MalformedPartyFile("%s: wrong shape %s" % (what, array.shape))
    return array.astype(np.uint64, copy=False)


def obfuscate_ids(raw_keys, salt):
    """Keyed 128-bit digests of the raw keys; equal key and salt give equal IDs.

    The keys are integers in [0, 2^64).  Chaotic IDs both hide the raw
    identities from other parties and spread vertices evenly over the
    chunks, which keeps block loads balanced.  Each ID is the first 16 bytes
    of sha256(salt + the key's 8 little-endian bytes), read as (h, l).
    """
    keys = _uint64s(raw_keys, (), "vertex keys")
    prefix = hashlib.sha256(salt)

    def digest(data):
        h = prefix.copy()
        h.update(data)
        return h.digest()[:16]

    # One little-endian buffer, cut into 8-byte keys by numpy.
    data = np.ascontiguousarray(keys, dtype="<u8").view("V8").tolist()
    return np.frombuffer(bytearray().join(map(digest, data)), dtype=ID_DTYPE)


def ids_from_bytes(payload):
    return np.frombuffer(payload, dtype=ID_DTYPE).copy()


def _id_keys(rows):
    """The leading (h, l) ID of every row as one 16-byte string, for sort/match.

    A view, not a copy: ID_DTYPE, MAP_DTYPE and RES_DTYPE all start with
    the two ID words.  Equal strings are equal IDs.
    """
    return np.ndarray(len(rows), dtype="S16", buffer=rows,
                      strides=(rows.dtype.itemsize,))


def _find(haystack, needles, by_needle=None):
    """Index into `haystack` of every needle; None if some needle is absent.

    A value the haystack repeats may match any of its copies.  `by_needle`
    is the needles' sort order, when the caller already has it.
    """
    order = np.argsort(haystack)
    ordered = haystack[order]
    # Sorted needles make the search several times faster.
    if by_needle is None:
        by_needle = np.argsort(needles)
    pos = np.empty(len(needles), dtype=np.intp)
    pos[by_needle] = np.searchsorted(ordered, needles[by_needle])
    if len(needles) and not (len(haystack) and (
            ordered[np.minimum(pos, len(haystack) - 1)] == needles).all()):
        return None
    return order[pos]


# -- party (client-side actor, non-oblivious by design) ----------------------

class Party:
    """One input party: raw graph in, mapping and results back.

    `raw_keys` holds n integer keys in [0, 2^64) and `edges` m (u, v) pairs
    of them: arrays (such as `kron.read_party_file` returns) or anything
    numpy reads as arrays of shape (n,) and (m, 2).  An integer array passes
    through as uint64 with no per-element pass; any other input is checked
    value by value.  The party holds `raw_keys` as a uint64 array and
    resolves every edge endpoint, at construction, to the index of its key,
    so mapping the edges is one fancy index over the per-key mapped IDs.
    """

    def __init__(self, index, raw_keys, edges, salt):
        self.index = index
        self.salt = salt
        self.raw_keys = _uint64s(raw_keys, (), "party %d's vertex keys" % index)
        self._ends = self._resolve(_uint64s(edges, (2,), "party %d's edges" % index))
        self.ids = obfuscate_ids(self.raw_keys, salt)
        self._id_order = np.argsort(self.ids["h"])  # for matching messages
        self._mapped = None  # (2, m) mapped src and dst, set by receive_mapping

    def _resolve(self, edges):
        """Key index of every edge endpoint, as a (2, m) src/dst array."""
        if not len(edges):
            return np.zeros((2, 0), dtype=np.intp)
        idx = _find(self.raw_keys, edges.ravel())
        if idx is None:
            raise MalformedPartyFile("party %d has an edge endpoint outside its "
                                     "vertex set" % self.index)
        return idx.reshape(-1, 2).T.copy()

    @property
    def n_vertices(self):
        return len(self.raw_keys)

    def vertex_submit_payload(self):
        return self.ids.tobytes()

    def _own_rows(self, rows, message):
        """Row index of each of the party's own IDs, in key order.

        IDs are matched on their `h` word, then checked on `l`.  A failed
        check falls back to the exact (h, l) match, which tells an absent ID
        from one whose `h` another ID shares.
        """
        idx = _find(rows["h"], self.ids["h"], self._id_order)
        if idx is not None and (rows["l"][idx] != self.ids["l"]).any():
            idx = _find(_id_keys(rows), _id_keys(self.ids))
        if idx is None:
            raise MissingID("%s message to party %d lacks one of its IDs"
                            % (message, self.index))
        return idx

    def receive_mapping(self, payload):
        rows = np.frombuffer(payload, dtype=MAP_DTYPE)
        mapped = rows["mapped"][self._own_rows(rows, "MAP_RETURN")]
        self._mapped = mapped[self._ends]

    def _mapped_edges(self, symmetrize):
        src, dst = self._mapped
        if symmetrize:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        return src, dst

    def block_occupancy(self, params, symmetrize=False):
        """Largest block load, i.e. the party's default public block length."""
        _, counts = block_loads(*self._mapped_edges(symmetrize), params.k, params.b)
        return int(counts.max()) if len(counts) else 0

    def grid_submit_payload(self, params, block_length, symmetrize=False):
        """Grid container with every block padded to `block_length` edges."""
        src, dst = self._mapped_edges(symmetrize)
        return encode_grid(params.n, params.k, params.b, src, dst, block_length)

    def receive_results(self, payload, app):
        rows = np.frombuffer(payload, dtype=RES_DTYPE)
        values = apps_mod.APPS[app].bits_to_values(rows["result"])
        return dict(zip(self.raw_keys.tolist(),
                        values[self._own_rows(rows, "RESULT_RETURN")]))


# -- server-side oblivious stages ---------------------------------------------

def _split_to_parties(buf, sizes, dtype, prefix, arena):
    """Split `buf` by party into buffers `prefix`0, 1, ... of `sizes` `dtype` records."""
    return o_split_trans(buf, lambda b: b["party"], sizes,
                         ["%s%d" % (prefix, i) for i in range(len(sizes))], arena, dtype)


def vertex_mapping(sim, vertex_ids, declared_n):
    """Merge, sort and dedup the submitted IDs into a dense 0-based mapping.

    `vertex_ids` are the parsed VERTEX_SUBMIT arrays in party order and
    `declared_n` is the publicly agreed distinct count (checked, not
    trusted).  Returns the global map buffer (one entry per distinct ID, in
    mapped order) and the per-party map buffers of the declared sizes.
    """
    arena = sim.new_arena()
    sizes = [len(v) for v in vertex_ids]
    vbufs = [sim.buffer_from_rows("pipe.vsubmit%d" % i, np.asarray(v, dtype=ID_DTYPE))
             for i, v in enumerate(vertex_ids)]
    merged = o_trans_merge(
        vbufs, lambda b, i: with_fields(b, VM_DTYPE, party=i, mapped=NULL64), "vm.A")
    sim.osort_log.append(o_sort(merged, lambda b: (b["h"], b["l"]), arena))
    merged = o_trans(merged, lambda b: with_fields(b, mapped=group_ids(_id_keys(b))))

    def dedup(batch):
        repeat = np.zeros(len(batch), dtype=bool)
        repeat[1:] = batch["mapped"][1:] == batch["mapped"][:-1]
        return with_fields(batch, mapped=np.where(repeat, NULL64, batch["mapped"]))

    marked = o_trans(merged, dedup, out_name="vm.A2")
    global_map = o_filter(marked, lambda b: b["mapped"] != NULL64, declared_n, "vm.global", arena)
    return global_map, _split_to_parties(merged, sizes, MAP_DTYPE, "vm.map", arena)


def map_return_payload(sim, map_buf):
    """Serialize one party's mapping; the send is a sequential buffer read."""
    sim.trace.seq(0, map_buf.name, READ, 0, len(map_buf))
    return map_buf.data.astype(MAP_DTYPE, copy=False).tobytes()


def merge_grids(sim, payloads, params, symmetrized=False):
    """Decode the party grids and concatenate them block by block.

    Everything recorded here is fixed by (p, b, k, {l_i}): the message
    sizes, the per-block decode passes and the merge order.  Each party's
    b^2 decode passes are one repeated record, and so are the b^2 block
    merges of all parties.  The data moves less: `decode_grid` decodes each
    block only up to its last byte that differs from the null block, straight
    into the party's slots of the null-initialised merged grid, and m is
    counted from the decoded edges.
    """
    if params.l_i is None or len(payloads) != params.p:
        raise ParamMismatch("need one published block length per party")
    trace = sim.trace
    headers = []
    for i, payload in enumerate(payloads):
        header = parse_grid_header(payload)
        if (header["n"], header["k"], header["b"]) != (params.n, params.k, params.b):
            raise ParamMismatch("party %d grid disagrees with public (n, k, b)" % i)
        if header["l"] != params.l_i[i]:
            raise ParamMismatch("party %d grid length differs from its published l_i" % i)
        headers.append(header)
        # The message arrives by one sequential write of its bytes.
        trace.register("pipe.gridmsg%d" % i, len(payload), 1)
        trace.seq(0, "pipe.gridmsg%d" % i, WRITE, 0, len(payload))

    b, l, k = params.b, params.l, params.k
    merged = Buffer(trace, GRID_REGION, np.zeros(b * b * l, dtype=EDGE_DTYPE))
    merged.data["pad"] = 1
    blocks = merged.data.reshape(b * b, l)
    starts = np.cumsum((0,) + params.l_i).tolist()
    m = 0
    for i, header in enumerate(headers):
        li, nbytes = params.l_i[i], header["block_nbytes"]
        name = "grid.party%d" % i
        trace.register(name, b * b * li, EDGE_DTYPE.itemsize)
        trace.repeat(0, [("pipe.gridmsg%d" % i, READ, header["header_nbytes"],
                          nbytes, nbytes),
                         (name, WRITE, 0, li, li)], b * b)
        body = memoryview(payloads[i])[header["header_nbytes"]:]
        m += decode_grid(body, k, li, b, blocks[:, starts[i]:starts[i + 1]])

    # Block-wise concatenation in party order (public lengths).
    trace.repeat(0, [(("grid.party%d" % i, merged.name), (READ, WRITE),
                      (0, starts[i]), li, (li, l))
                     for i, li in enumerate(params.l_i)], b * b)

    return GridGraph(params, merged.data, m, symmetrized=symmetrized)


def gather_results(state_buf, result_bits):
    """Collect the global result array in mapped-ID order 0..n-1.

    `result_bits` maps a batch of `state_buf` to its raw u64 result bits.
    """
    return o_trans(state_buf, lambda b: with_fields(
        b, R_DTYPE, mapped=np.arange(len(b), dtype=np.uint64), result=result_bits(b)),
        out_name="pipe.R")


def post_process(sim, results_buf, map_bufs, params):
    """Join results onto the saved per-party maps and split them back out.

    The combined list is sorted by (mapped ID, result-is-null) so each
    group's real result comes first, then a forward fill hands it to every
    party entry of the group.  All-ones result bits collide with the null
    pattern only for the unreachable-distance sentinel, and filling the null
    pattern assigns exactly that sentinel, so the coincidence is harmless.
    """
    arena = sim.new_arena()
    sp = o_trans_merge(
        map_bufs, lambda b, i: with_fields(b, S_DTYPE, party=i, result=NULL64), "post.Sp")
    sg = o_trans(results_buf, lambda b: with_fields(
        b, S_DTYPE, party=NULL64, h=NULL64, l=NULL64), out_name="post.Sg")
    combined = o_merge([sp, sg], "post.S")
    sim.osort_log.append(o_sort(
        combined,
        lambda b: (b["mapped"], (b["result"] == NULL64).astype(np.uint8)),
        arena,
    ))

    def fill(batch):
        gid = group_ids(batch["mapped"])
        first = np.flatnonzero(np.diff(gid, prepend=-1))  # each group's real result
        return with_fields(batch, result=batch["result"][first][gid])

    combined = o_trans(combined, fill)
    kept = o_filter(combined, lambda b: b["party"] != NULL64, params.N, "post.kept", arena)
    return _split_to_parties(kept, params.n_i, RES_DTYPE, "post.R", arena)


def result_return_payload(sim, result_buf):
    sim.trace.seq(0, result_buf.name, READ, 0, len(result_buf))
    return result_buf.data.astype(RES_DTYPE, copy=False).tobytes()


# -- end-to-end driver ----------------------------------------------------------

@dataclass
class RunReport:
    app: str
    engine: str
    params: dict
    salt: str
    workers: int
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    stage_digests: Dict[str, str] = field(default_factory=dict)
    digest_seconds: Dict[str, float] = field(default_factory=dict)
    osort_lengths: List[int] = field(default_factory=list)

    def to_dict(self):
        return asdict(self)


def _reference_end_to_end(parties, program, t, source_key):
    """Oracle path: same merged graph and mapping, no obliviousness at all.

    Vertices are ranked by their own sort of the IDs (by (h, l), as the
    oblivious mapping ranks them), independent of `vertex_mapping`.
    """
    uniq, rank = np.unique(np.concatenate([p.ids for p in parties]),
                           return_inverse=True)
    ranks = np.split(rank, np.cumsum([p.n_vertices for p in parties])[:-1])
    src, dst = (np.concatenate([r[p._ends[side]] for r, p in zip(ranks, parties)])
                for side in (0, 1))
    if program.symmetric:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    source = None
    if program.needs_source:
        found = _find(_id_keys(uniq), _id_keys(obfuscate_ids(source_key,
                                                             parties[0].salt)))
        if found is None:
            raise UnknownSource("source vertex is not present in the merged graph")
        source = found[0]
    values = baselines.reference_run(program, len(uniq), src, dst, t, source=source)
    return {p.index: dict(zip(p.raw_keys.tolist(), values[r]))
            for r, p in zip(ranks, parties)}


def _scan_engine(sim, grid, global_map, program, t, workers, source_id):
    state = apps_mod.run_app(sim, grid, global_map, program, t, workers=workers,
                             source_id=source_id)
    return gather_results(state, program.result_bits)


def _sortscan_engine(sim, grid, global_map, program, t, workers, source_id):
    bits = baselines.sortscan_on_grid(sim, grid, global_map, program, t,
                                      source_id=source_id)
    return gather_results(bits, lambda batch: batch["result"])


# Engine name -> its compute stage; the reference oracle runs outside the
# simulator.
ENGINES = {"oblige": _scan_engine, "sortscan": _sortscan_engine, "reference": None}


def run_end_to_end(party_inputs, app, t, om_bytes, salt, workers=1,
                   engine="oblige", granularity=ELEMENT, record=True,
                   f=None, source_key=None, block_length_override=None):
    """Full workflow over in-process parties; returns (per-party results, report).

    `party_inputs` is a list of (raw_keys, edges) pairs.  The merged vertex
    count n, which the parties agree on out of band, is computed the way
    they would jointly announce it; the oblivious engines verify it rather
    than trust it.  `f` is the damping factor of a program that has one
    (PageRank), in [0, 1] (UsageError otherwise); None keeps the program's.

    The run is timed as consecutive stages in `report.stage_seconds`:
    party_setup (the parties read their inputs and obfuscate their IDs),
    declare_n, vertex_mapping, edge_preprocess, merge_grids, compute and
    post_process; the reference engine has party_setup and compute only.
    Each stage is also a trace window of its name (`AccessTrace.window`).
    An `ObligeError` raised in a stage leaves with the stage's name in
    `.stage`.
    """
    if app not in apps_mod.APPS or engine not in ENGINES:
        raise ValueError("unknown application %r or engine %r" % (app, engine))
    if workers < 1:
        raise UsageError("a run needs at least one worker, not %r" % (workers,))
    if t < 0:
        raise UsageError("a run needs a round count of at least 0, not %r" % (t,))
    if f is not None and not 0 <= f <= 1:  # NaN fails too
        raise UsageError("a damping factor lies in [0, 1], not %r" % (f,))
    program = apps_mod.APPS[app]
    if f is not None and program.damping is not None:
        program = copy.copy(program)  # the registry keeps its default
        program.damping = f
    compute = ENGINES[engine]
    if program.needs_source:
        if source_key is None:
            raise UnknownSource("%s needs a source vertex key" % app)
        try:
            source_key = _uint64s([source_key], (), "the source key")  # one key
        except MalformedPartyFile as err:
            raise UnknownSource(str(err)) from None

    report = RunReport(app=app, engine=engine, params={}, salt=salt.hex(),
                       workers=workers)
    sim = None if compute is None else OMSim(om_bytes, granularity=granularity,
                                             enabled=record)

    @contextmanager
    def stage(name):
        """Stage `name`: a trace window, its time, digest and digest time.

        Labels an ObligeError raised inside with the stage's name.
        """
        start = time.perf_counter()
        try:
            with sim.trace.window(name) if sim else nullcontext():
                yield
        except ObligeError as err:
            if err.stage is None:
                err.stage = name
            raise
        done = time.perf_counter()
        report.stage_seconds[name] = done - start
        if sim is not None:
            report.stage_digests[name] = sim.trace.digest(*sim.trace.windows[-1][1:])
            if sim.trace.enabled:
                report.digest_seconds[name] = time.perf_counter() - done

    with stage("party_setup"):
        parties = [Party(i, keys, edges, salt) for i, (keys, edges) in enumerate(party_inputs)]

    if compute is None:
        with stage("compute"):
            results = _reference_end_to_end(parties, program, t, source_key)
        return results, report, None

    with stage("declare_n"):
        n = len(np.unique(_id_keys(np.concatenate([p.ids for p in parties]))))

    params = PublicParams.derive(
        p=len(parties), n_i=[p.n_vertices for p in parties], n=n,
        t=t, s=om_bytes, vwidth=program.vwidth,
    )

    with stage("vertex_mapping"):
        global_map, map_bufs = vertex_mapping(
            sim, [ids_from_bytes(p.vertex_submit_payload()) for p in parties], n)
        for party, mbuf in zip(parties, map_bufs):
            party.receive_mapping(map_return_payload(sim, mbuf))

    with stage("edge_preprocess"):
        # Every party measures its occupancy even when the lengths are
        # overridden: the stage does the same party work either way, and
        # perfbench, which always overrides, times this call.
        lengths = [party.block_occupancy(params, symmetrize=program.symmetric)
                   for party in parties]
        if block_length_override is not None:
            lengths = [block_length_override[party.index] for party in parties]
        full_params = params.with_block_lengths(lengths)
        grid_payloads = [party.grid_submit_payload(full_params, full_params.l_i[party.index],
                                                   symmetrize=program.symmetric)
                         for party in parties]
    report.params = asdict(full_params)

    with stage("merge_grids"):
        grid = merge_grids(sim, grid_payloads, full_params, symmetrized=program.symmetric)
    del grid_payloads  # the merged grid holds everything they carried

    source_id = obfuscate_ids(source_key, salt)[0] if program.needs_source else None
    with stage("compute"):
        results_buf = compute(sim, grid, global_map, program, t, workers, source_id)
    del grid  # with its cached scan orders, before post-processing allocates

    with stage("post_process"):
        res_bufs = post_process(sim, results_buf, map_bufs, full_params)
        results = {party.index: party.receive_results(result_return_payload(sim, rbuf), app)
                   for party, rbuf in zip(parties, res_bufs)}
    report.osort_lengths = [entry["n"] for entry in sim.osort_log]
    return results, report, sim
