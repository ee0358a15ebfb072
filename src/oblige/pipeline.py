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
by sorting the rows on the 128-bit ID and searching them, so mapping its
edges is one fancy index.  A party's keys must all be of one type (int,
str or bytes), and so must its edge endpoints: the byte encodings of
different types can collide.

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

import hashlib
import time
from dataclasses import asdict, dataclass, field
from itertools import chain
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
    GridGraph,
    PublicParams,
    block_coordinates,
    decode_block,
    encode_grid,
    group_into_blocks,
    parse_grid_header,
)
from .omsim import ELEMENT, READ, WRITE, Buffer, OMSim, assign_records, copy_records
from .oprims import o_filter, o_merge, o_sort, o_split_trans, o_trans, o_trans_merge

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

def _key_bytes(key):
    if isinstance(key, (int, np.integer)):
        return int(key).to_bytes(8, "little", signed=False)
    if isinstance(key, str):
        return key.encode()
    if isinstance(key, bytes):
        return key
    raise TypeError("raw vertex keys must be int, str or bytes")


def _encode_keys(raw_keys):
    """The hashed byte string of every key (see `_key_bytes`)."""
    if set(map(type, raw_keys)) == {int}:  # party files: skip the type dispatch
        return [key.to_bytes(8, "little") for key in raw_keys]
    return list(map(_key_bytes, raw_keys))


def obfuscate_ids(raw_keys, salt):
    """Keyed 128-bit digests of the raw keys; equal key and salt give equal IDs.

    Chaotic IDs both hide the raw identities from other parties and spread
    vertices evenly over the chunks, which keeps block loads balanced.  Each
    ID is the first 16 bytes of sha256(salt + key bytes), read as (h, l).
    """
    prefix = hashlib.sha256(salt)

    def digest(data):
        h = prefix.copy()
        h.update(data)
        return h.digest()[:16]

    return np.frombuffer(bytearray().join(map(digest, _encode_keys(raw_keys))),
                         dtype=ID_DTYPE)


def ids_from_bytes(payload):
    return np.frombuffer(payload, dtype=ID_DTYPE).copy()


def _id_keys(rows):
    """The leading (h, l) ID of every row as one 16-byte string, for sort/match.

    A view, not a copy: ID_DTYPE, MAP_DTYPE and RES_DTYPE all start with
    the two ID words.  Equal strings are equal IDs.
    """
    return np.ndarray(len(rows), dtype="S16", buffer=rows,
                      strides=(rows.dtype.itemsize,))


_KINDS = ((np.integer, int), (int, int), (str, str), (bytes, bytes))


def _key_kind(types, index):
    """The one kind (int, str or bytes) of a party's keys; None for no keys.

    Keys of two kinds are refused, since their byte encodings can collide
    (the int 49 and the bytes b"1" plus seven zero bytes hash alike).
    """
    kinds = set()
    for cls in types:
        kind = next((k for base, k in _KINDS if issubclass(cls, base)), None)
        if kind is None:
            raise MalformedPartyFile("party %d has a %s vertex key; keys must be "
                                     "int, str or bytes" % (index, cls.__name__))
        kinds.add(kind)
    if len(kinds) > 1:
        raise MalformedPartyFile("party %d mixes vertex key types %s"
                                 % (index, sorted(k.__name__ for k in kinds)))
    return kinds.pop() if kinds else None


def _key_array(values, types, kind, count, index):
    """`count` keys of one kind as an array: uint64 for ints, else object."""
    if kind is not int:
        return np.fromiter(values, dtype=object, count=count)
    if types != {int}:
        values = map(int, values)  # numpy scalars would wrap silently
    try:
        return np.fromiter(values, dtype=np.uint64, count=count)
    except OverflowError:
        raise MalformedPartyFile("party %d has an integer key outside [0, 2^64)"
                                 % index) from None


def _find(haystack, needles):
    """Index into `haystack` of every needle; None if some needle is absent."""
    order = np.argsort(haystack, kind="stable")
    ordered = haystack[order]
    # Sorted needles make the search several times faster.
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

    Keys and edges are held as arrays: every edge endpoint is resolved once,
    at construction, to the index of its key, so mapping the edges is one
    fancy index over the per-key mapped IDs.
    """

    def __init__(self, index, raw_keys, edges, salt):
        self.index = index
        self.raw_keys = list(raw_keys)
        self.edges = list(edges)
        self.salt = salt
        key_types = set(map(type, self.raw_keys))
        self.key_kind = _key_kind(key_types, index)
        keys = _key_array(self.raw_keys, key_types, self.key_kind,
                          len(self.raw_keys), index)
        self._ends = self._resolve(keys)  # (2, m) key index of src and dst
        self.ids = obfuscate_ids(self.raw_keys, salt)
        self._mapped = None  # (2, m) mapped src and dst, set by receive_mapping

    def _resolve(self, keys):
        """Key index of every edge endpoint, as a (2, m) src/dst array."""
        m = len(self.edges)
        if not m:
            return np.zeros((2, 0), dtype=np.intp)
        if set(map(len, self.edges)) != {2}:
            raise MalformedPartyFile("party %d has an edge that is not a (u, v) pair"
                                     % self.index)
        end_types = set(map(type, chain.from_iterable(self.edges)))
        end_kind = _key_kind(end_types, self.index)
        if self.raw_keys and end_kind is not self.key_kind:
            raise MalformedPartyFile("party %d has edge endpoints of another type "
                                     "than its vertex keys" % self.index)
        ends = _key_array(chain.from_iterable(self.edges), end_types,
                          self.key_kind, 2 * m, self.index)
        idx = _find(keys, ends)
        if idx is None:
            raise MalformedPartyFile("party %d has an edge endpoint outside its "
                                     "vertex set" % self.index)
        return idx.reshape(m, 2).T.copy()

    @property
    def n_vertices(self):
        return len(self.raw_keys)

    def vertex_submit_payload(self):
        return self.ids.tobytes()

    def _own_rows(self, rows, message):
        """Row index of each of the party's own IDs, in key order."""
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
        src, dst = self._mapped_edges(symmetrize)
        block_ids = (src // np.uint64(params.k)) * np.uint64(params.b) \
            + dst // np.uint64(params.k)
        counts = np.bincount(block_ids.astype(np.int64),
                             minlength=params.b * params.b)
        return int(counts.max()) if len(counts) else 0

    def grid_submit_payload(self, params, block_length, symmetrize=False):
        """Grid container with every block padded to `block_length` edges."""
        src, dst = self._mapped_edges(symmetrize)
        stored, _ = group_into_blocks(src, dst, params.k, params.b, block_length)
        return encode_grid(params.n, params.k, params.b, stored, block_length)

    def receive_results(self, payload, app):
        rows = np.frombuffer(payload, dtype=RES_DTYPE)
        values = apps_mod.APPS[app].bits_to_values(rows["result"])
        return dict(zip(self.raw_keys,
                        values[self._own_rows(rows, "RESULT_RETURN")]))


# -- server-side oblivious stages ---------------------------------------------

def _split_to_parties(buf, sizes, dtype, prefix, arena):
    """Split `buf` by party into buffers `prefix`0, 1, ... of `sizes` `dtype` records."""
    def project(batch):
        out = np.zeros(len(batch), dtype=dtype)
        for name in dtype.names:
            out[name] = batch[name]
        return out

    return o_split_trans(buf, lambda b: b["party"].astype(np.int64), project, sizes,
                         ["%s%d" % (prefix, i) for i in range(len(sizes))], arena)


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

    def tag(batch, i):
        out = np.zeros(len(batch), dtype=VM_DTYPE)
        out["h"], out["l"] = batch["h"], batch["l"]
        out["party"] = i
        out["mapped"] = NULL64
        return out

    merged = o_trans_merge(vbufs, tag, "vm.A")
    sim.osort_log.append(o_sort(merged, lambda b: (b["h"], b["l"]), arena))

    def assign(batch):
        out = copy_records(batch)
        fresh = np.ones(len(batch), dtype=bool)
        fresh[1:] = (batch["h"][1:] != batch["h"][:-1]) \
            | (batch["l"][1:] != batch["l"][:-1])
        out["mapped"] = np.cumsum(fresh) - 1
        return out

    merged = o_trans(merged, assign)

    def dedup(batch):
        out = copy_records(batch)
        repeat = np.zeros(len(batch), dtype=bool)
        repeat[1:] = batch["mapped"][1:] == batch["mapped"][:-1]
        out["mapped"][repeat] = NULL64
        return out

    marked = o_trans(merged, dedup, out_name="vm.A2")
    global_map = o_filter(
        marked, lambda b: (b["mapped"] != NULL64).astype(np.int64),
        declared_n, "vm.global", arena,
    )
    return global_map, _split_to_parties(merged, sizes, MAP_DTYPE, "vm.map", arena)


def map_return_payload(sim, map_buf):
    """Serialize one party's mapping; the send is a sequential buffer read."""
    sim.trace.seq(0, map_buf.name, READ, 0, len(map_buf))
    return map_buf.data.astype(MAP_DTYPE, copy=False).tobytes()


def merge_grids(sim, payloads, params, symmetrized=False):
    """Decode the party grids and concatenate them block by block.

    Everything here is fixed by (p, b, k, {l_i}): the message sizes, the
    per-block decode passes and the merge order.  Each party's b^2 decode
    passes are one repeated record, and so are the b^2 block merges of all
    parties.  The data moves in one decode and one raw-byte copy per party,
    one party at a time, so only one decoded party grid is alive at once.
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
    coords = block_coordinates(b)
    merged = Buffer(trace, GridGraph.region_name, np.zeros(b * b * l, dtype=EDGE_DTYPE))
    blocks = merged.data.reshape(b * b, l)
    starts = np.cumsum((0,) + params.l_i).tolist()
    for i, header in enumerate(headers):
        li, nbytes = params.l_i[i], header["block_nbytes"]
        name = "grid.party%d" % i
        trace.register(name, b * b * li, EDGE_DTYPE.itemsize)
        trace.repeat(0, [("pipe.gridmsg%d" % i, READ, header["header_nbytes"],
                          nbytes, nbytes),
                         (name, WRITE, 0, li, li)], b * b)
        body = memoryview(payloads[i])[header["header_nbytes"]:]
        assign_records(blocks[:, starts[i]:starts[i + 1]],
                       decode_block(body, k, li, *coords).reshape(b * b, li))

    # Block-wise concatenation in party order (public lengths).
    trace.repeat(0, [(("grid.party%d" % i, merged.name), (READ, WRITE),
                      (0, starts[i]), li, (li, l))
                     for i, li in enumerate(params.l_i)], b * b)

    m = int((merged.data["pad"] == 0).sum())
    return GridGraph(params, merged.data, m, symmetrized=symmetrized)


def gather_results(sim, state_buf, result_bits):
    """Collect the global result array in mapped-ID order 0..n-1.

    `result_bits` maps a batch of `state_buf` to its raw u64 result bits.
    """
    def to_r(batch):
        out = np.zeros(len(batch), dtype=R_DTYPE)
        out["mapped"] = np.arange(len(batch), dtype=np.uint64)
        out["result"] = result_bits(batch)
        return out

    return o_trans(state_buf, to_r, out_name="pipe.R")


def post_process(sim, results_buf, map_bufs, params):
    """Join results onto the saved per-party maps and split them back out.

    The combined list is sorted by (mapped ID, result-is-null) so each
    group's real result comes first, then a forward fill hands it to every
    party entry of the group.  All-ones result bits collide with the null
    pattern only for the unreachable-distance sentinel, and filling the null
    pattern assigns exactly that sentinel, so the coincidence is harmless.
    """
    arena = sim.new_arena()

    def from_map(batch, i):
        out = np.zeros(len(batch), dtype=S_DTYPE)
        out["party"] = i
        out["h"], out["l"] = batch["h"], batch["l"]
        out["mapped"] = batch["mapped"]
        out["result"] = NULL64
        return out

    sp = o_trans_merge(map_bufs, from_map, "post.Sp")

    def from_results(batch):
        out = np.zeros(len(batch), dtype=S_DTYPE)
        out["party"] = NULL64
        out["h"] = NULL64
        out["l"] = NULL64
        out["mapped"] = batch["mapped"]
        out["result"] = batch["result"]
        return out

    sg = o_trans(results_buf, from_results, out_name="post.Sg")
    combined = o_merge([sp, sg], "post.S")
    sim.osort_log.append(o_sort(
        combined,
        lambda b: (b["mapped"], (b["result"] == NULL64).astype(np.uint8)),
        arena,
    ))

    def fill(batch):
        out = copy_records(batch)
        fresh = np.ones(len(batch), dtype=bool)
        fresh[1:] = batch["mapped"][1:] != batch["mapped"][:-1]
        gid = np.cumsum(fresh) - 1
        first = np.flatnonzero(fresh)
        out["result"] = batch["result"][first][gid]
        return out

    combined = o_trans(combined, fill)
    kept = o_filter(
        combined, lambda b: (b["party"] != NULL64).astype(np.int64),
        params.N, "post.kept", arena,
    )
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
    seed_salt: str
    workers: int
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    stage_digests: Dict[str, str] = field(default_factory=dict)
    digest_seconds: Dict[str, float] = field(default_factory=dict)
    osort_lengths: List[int] = field(default_factory=list)

    def to_dict(self):
        out = asdict(self)
        out["salt"] = out.pop("seed_salt")
        return out


def _reference_end_to_end(parties, program, t, f, source_key):
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
        found = _find(_id_keys(uniq), _id_keys(obfuscate_ids([source_key],
                                                             parties[0].salt)))
        if found is None:
            raise UnknownSource("source vertex is not present in the merged graph")
        source = found[0]
    values = baselines.reference_run(program, len(uniq), src, dst, t, f=f,
                                     source=source)
    return {p.index: dict(zip(p.raw_keys, values[r])) for r, p in zip(ranks, parties)}


def _scan_engine(sim, grid, global_map, program, t, f, workers, source_id):
    state = apps_mod.run_app(sim, grid, global_map, program, t, workers=workers,
                             f=f, source_id=source_id)
    return gather_results(sim, state, program.result_bits)


def _sortscan_engine(sim, grid, global_map, program, t, f, workers, source_id):
    bits = baselines.sortscan_on_grid(sim, grid, global_map, program, t, f=f,
                                      source_id=source_id)
    return gather_results(sim, bits, lambda batch: batch["result"])


# Engine name -> its compute stage; the reference oracle runs outside the
# simulator.
ENGINES = {"oblige": _scan_engine, "sortscan": _sortscan_engine, "reference": None}


def run_end_to_end(party_inputs, app, t, om_bytes, salt, workers=1,
                   engine="oblige", granularity=ELEMENT, record=True,
                   f=0.85, source_key=None, declared_n=None,
                   block_length_override=None):
    """Full workflow over in-process parties; returns (per-party results, report).

    `party_inputs` is a list of (raw_keys, edges) pairs.  `declared_n` stands
    in for the out-of-band agreement on the merged vertex count; when None it
    is computed the way the parties would jointly announce it.  The oblivious
    engines verify the declaration rather than trust it.

    The run is timed as consecutive stages in `report.stage_seconds`:
    party_setup (the parties read their inputs and obfuscate their IDs),
    declare_n (only when `declared_n` is None), vertex_mapping,
    edge_preprocess, merge_grids, compute and post_process; the reference
    engine has party_setup and compute only.
    """
    if app not in apps_mod.APPS or engine not in ENGINES:
        raise ValueError("unknown application %r or engine %r" % (app, engine))
    if workers < 1:
        raise UsageError("a run needs at least one worker, not %r" % (workers,))
    program = apps_mod.APPS[app]
    compute = ENGINES[engine]
    if program.needs_source and source_key is None:
        raise UnknownSource("%s needs a source vertex key" % app)

    report = RunReport(app=app, engine=engine, params={}, seed_salt=salt.hex(),
                       workers=workers)
    sim = None if compute is None else OMSim(om_bytes, granularity=granularity,
                                             enabled=record)

    def timed(name, fn):
        """Run stage `name`: its time, its trace digest and the digest's time."""
        mark = sim.trace.mark() if sim else None
        start = time.perf_counter()
        try:
            result = fn()
        except ObligeError as err:
            if err.stage is None:
                err.stage = name
            raise
        done = time.perf_counter()
        report.stage_seconds[name] = done - start
        if sim is not None:
            report.stage_digests[name] = sim.trace.digest(start=mark)
            if sim.trace.enabled:
                report.digest_seconds[name] = time.perf_counter() - done
        return result

    def stage_parties():
        parties = [Party(i, keys, edges, salt)
                   for i, (keys, edges) in enumerate(party_inputs)]
        if len({p.key_kind for p in parties} - {None}) > 1:
            raise MalformedPartyFile("parties hold vertex keys of different types")
        return parties

    parties = timed("party_setup", stage_parties)

    if compute is None:
        results = timed(
            "compute", lambda: _reference_end_to_end(parties, program, t, f, source_key))
        return results, report, None

    if declared_n is None:
        declared_n = timed("declare_n", lambda: len(np.unique(
            _id_keys(np.concatenate([p.ids for p in parties])))))

    params = PublicParams.derive(
        p=len(parties), n_i=[p.n_vertices for p in parties], n=declared_n,
        t=t, s=om_bytes, vwidth=program.vwidth,
    )

    def stage_mapping():
        payloads = [p.vertex_submit_payload() for p in parties]
        arrays = [ids_from_bytes(pl) for pl in payloads]
        global_map, maps = vertex_mapping(sim, arrays, declared_n)
        for party, mbuf in zip(parties, maps):
            party.receive_mapping(map_return_payload(sim, mbuf))
        return global_map, maps

    global_map, map_bufs = timed("vertex_mapping", stage_mapping)

    def stage_preprocess():
        lengths = []
        for party in parties:
            li = party.block_occupancy(params, symmetrize=program.symmetric)
            if block_length_override is not None:
                li = block_length_override[party.index]
            lengths.append(li)
        full = params.with_block_lengths(lengths)
        payloads = [
            party.grid_submit_payload(full, full.l_i[party.index],
                                      symmetrize=program.symmetric)
            for party in parties
        ]
        return full, payloads

    full_params, grid_payloads = timed("edge_preprocess", stage_preprocess)
    report.params = {
        "p": full_params.p, "n_i": list(full_params.n_i), "N": full_params.N,
        "n": full_params.n, "t": t, "s": om_bytes, "k": full_params.k,
        "b": full_params.b, "l_i": list(full_params.l_i), "l": full_params.l,
        "vwidth": full_params.vwidth,
    }

    grid = timed(
        "merge_grids",
        lambda: merge_grids(sim, grid_payloads, full_params,
                            symmetrized=program.symmetric))
    del grid_payloads  # the merged grid holds everything they carried

    source_id = obfuscate_ids([source_key], salt)[0] if program.needs_source else None
    results_buf = timed("compute", lambda: compute(
        sim, grid, global_map, program, t, f, workers, source_id))
    del grid  # with its cached scan orders, before post-processing allocates

    def stage_post():
        res_bufs = post_process(sim, results_buf, map_bufs, full_params)
        out = {}
        for party, rbuf in zip(parties, res_bufs):
            payload = result_return_payload(sim, rbuf)
            out[party.index] = party.receive_results(payload, app)
        return out

    results = timed("post_process", stage_post)
    report.osort_lengths = [entry["n"] for entry in sim.osort_log]
    return results, report, sim
