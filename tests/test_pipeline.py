"""Multi-party workflow: mapping, preprocessing, merging, post-processing."""

import hashlib
import string
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblige import kron, pipeline
from oblige.errors import (
    MalformedPartyFile,
    MissingID,
    ObligeError,
    ParamMismatch,
    SizeMismatch,
    UnknownSource,
    UsageError,
)
from oblige.grid import GRID_REGION, RESERVE_BYTES, PublicParams, parse_grid_header
from oblige.omsim import AccessTrace, OMSim
from oblige.pipeline import (
    ID_DTYPE,
    MAP_DTYPE,
    NULL64,
    R_DTYPE,
    RES_DTYPE,
    Party,
    ids_from_bytes,
    map_return_payload,
    merge_grids,
    obfuscate_ids,
    post_process,
    result_return_payload,
    run_end_to_end,
    vertex_mapping,
)

SALT = b"\x07" * 16

# Small integer keys named by letters, so examples read as in the paper.
KEY = {letter: i for i, letter in enumerate(string.ascii_letters)}


def key_list(letters):
    return [KEY[c] for c in letters]


def edge_list(*pairs):
    return [(KEY[u], KEY[v]) for u, v in pairs]


def id_key(record):
    return (int(record["h"]), int(record["l"]))


# -- obfuscation ----------------------------------------------------------------

def test_obfuscate_deterministic_across_parties():
    a = obfuscate_ids(key_list("jk"), SALT)
    b = obfuscate_ids(key_list("kj"), SALT)
    assert id_key(a[0]) == id_key(b[1])
    assert id_key(a[1]) == id_key(b[0])


def test_obfuscate_salt_sensitivity():
    rng = np.random.default_rng(0)
    keys = [int(x) for x in rng.integers(0, 1 << 60, size=200)]
    one = obfuscate_ids(keys, SALT)
    two = obfuscate_ids(keys, b"\x08" * 16)
    same = sum(id_key(x) == id_key(y) for x, y in zip(one, two))
    assert same == 0


def test_obfuscate_chunk_balance():
    # 10^6 random keys bucketed by the top bits of the 128-bit ID: every
    # bucket count within 5 sigma of the uniform expectation.
    keys = list(range(1_000_000))
    ids = obfuscate_ids(keys, SALT)
    buckets = 64
    top = ids["h"] >> np.uint64(64 - 6)
    counts = np.bincount(top.astype(np.int64), minlength=buckets)
    expect = len(keys) / buckets
    sigma = np.sqrt(expect * (1 - 1 / buckets))
    assert (np.abs(counts - expect) < 5 * sigma).all()


def old_obfuscate_ids(raw_keys, salt):
    """Reference IDs: one sha256 per key, written field by field."""
    out = np.zeros(len(raw_keys), dtype=ID_DTYPE)
    for i, key in enumerate(raw_keys):
        data = int(key).to_bytes(8, "little", signed=False)
        digest = hashlib.sha256(salt + data).digest()[:16]
        out["h"][i] = int.from_bytes(digest[:8], "little")
        out["l"][i] = int.from_bytes(digest[8:], "little")
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, (1 << 64) - 1)), st.binary(min_size=0, max_size=32))
def test_obfuscate_matches_per_key_loop(keys, salt):
    got = obfuscate_ids(keys, salt)
    assert got.dtype == ID_DTYPE
    assert got.tobytes() == old_obfuscate_ids(keys, salt).tobytes()


# -- vertex mapping ---------------------------------------------------------------

def _mapping_oracle(vertex_lists, salt):
    ids = [obfuscate_ids(keys, salt) for keys in vertex_lists]
    merged = sorted({id_key(r) for arr in ids for r in arr})
    return {key: i for i, key in enumerate(merged)}


def test_vertex_mapping_example():
    # V0 = {A, C}, V1 = {B, C}; ranks follow obfuscated-ID order
    lists = [key_list("AC"), key_list("BC")]
    oracle = _mapping_oracle(lists, SALT)
    sim = OMSim(1 << 14)
    arrays = [obfuscate_ids(keys, SALT) for keys in lists]
    global_map, maps = vertex_mapping(sim, arrays, 3)

    assert len(global_map.data) == 3
    assert global_map.data["mapped"].tolist() == [0, 1, 2]
    for i, keys in enumerate(lists):
        got = {id_key(r): int(r["mapped"]) for r in maps[i].data}
        assert len(maps[i].data) == len(keys)
        for key, oid in zip(keys, arrays[i]):
            assert got[id_key(oid)] == oracle[id_key(oid)]
    shared = id_key(obfuscate_ids([KEY["C"]], SALT)[0])
    m0 = {id_key(r): int(r["mapped"]) for r in maps[0].data}
    m1 = {id_key(r): int(r["mapped"]) for r in maps[1].data}
    assert m0[shared] == m1[shared]


def test_vertex_mapping_single_party_identity_rank():
    keys = key_list("xyzw")
    sim = OMSim(1 << 14)
    global_map, maps = vertex_mapping(sim, [obfuscate_ids(keys, SALT)], 4)
    ids = np.sort(obfuscate_ids(keys, SALT), order=("h", "l"))
    assert [id_key(r) for r in global_map.data] == [id_key(r) for r in ids]


def test_vertex_mapping_identical_sets():
    keys = key_list("abc")
    sim = OMSim(1 << 14)
    _, maps = vertex_mapping(sim, [obfuscate_ids(keys, SALT)] * 3, 3)
    views = [sorted((id_key(r), int(r["mapped"])) for r in m.data) for m in maps]
    assert views[0] == views[1] == views[2]


def test_vertex_mapping_rejects_wrong_declared_n():
    sim = OMSim(1 << 14)
    with pytest.raises(SizeMismatch):
        vertex_mapping(sim, [obfuscate_ids(key_list("ab"), SALT)], 1)


def test_vertex_mapping_oracle_randomized():
    rng = np.random.default_rng(4)
    for trial in range(5):
        lists = [
            [int(x) for x in rng.integers(0, 40, size=rng.integers(3, 12))]
            for _ in range(3)
        ]
        lists = [list(dict.fromkeys(keys)) for keys in lists]  # distinct per party
        oracle = _mapping_oracle(lists, SALT)
        sim = OMSim(1 << 14)
        arrays = [obfuscate_ids(keys, SALT) for keys in lists]
        global_map, maps = vertex_mapping(sim, arrays, len(oracle))
        assert global_map.data["mapped"].tolist() == list(range(len(oracle)))
        for i, arr in enumerate(arrays):
            got = {id_key(r): int(r["mapped"]) for r in maps[i].data}
            assert got == {id_key(r): oracle[id_key(r)] for r in arr}


# -- client-side preprocessing -----------------------------------------------------

def micro_parties():
    return [
        Party(0, key_list("AC"), edge_list("AC"), SALT),
        Party(1, key_list("BC"), edge_list("BC", "CB"), SALT),
    ]


def _mapped_parties(parties, declared_n):
    sim = OMSim(1 << 14)
    arrays = [ids_from_bytes(p.vertex_submit_payload()) for p in parties]
    global_map, maps = vertex_mapping(sim, arrays, declared_n)
    for party, mbuf in zip(parties, maps):
        party.receive_mapping(map_return_payload(sim, mbuf))
    return sim, global_map, maps


def test_preprocess_micro_and_merge():
    parties = micro_parties()
    sim, global_map, maps = _mapped_parties(parties, 3)
    params = PublicParams.derive(p=2, n_i=[2, 2], n=3, t=1,
                                 s=2 * 2 * 8 + RESERVE_BYTES, vwidth=8)
    lengths = [p.block_occupancy(params) for p in parties]
    full = params.with_block_lengths(lengths)
    payloads = [p.grid_submit_payload(full, full.l_i[p.index]) for p in parties]
    grid = merge_grids(sim, payloads, full)
    assert grid.m == 3
    src, dst = grid.row_order
    oracle = _mapping_oracle([p.raw_keys for p in parties], SALT)
    mapped_of = {k: oracle[id_key(obfuscate_ids([KEY[k]], SALT)[0])] for k in "ABC"}
    expect = sorted([
        (mapped_of["A"], mapped_of["C"]),
        (mapped_of["B"], mapped_of["C"]),
        (mapped_of["C"], mapped_of["B"]),
    ])
    assert sorted(zip(src.tolist(), dst.tolist())) == expect


def test_merge_grids_lengths_and_param_mismatch():
    parties = micro_parties()
    sim, _, _ = _mapped_parties(parties, 3)
    params = PublicParams.derive(p=2, n_i=[2, 2], n=3, t=1,
                                 s=2 * 2 * 8 + RESERVE_BYTES, vwidth=8)
    full = params.with_block_lengths([1, 2])
    payloads = [p.grid_submit_payload(full, full.l_i[p.index]) for p in parties]
    grid = merge_grids(sim, payloads, full)
    assert grid.params.l == 3
    blocks = grid.edges.reshape(grid.params.b, grid.params.b, grid.params.l)
    assert all(len(blocks[r, c]) == 3 for r in range(2) for c in range(2))

    with pytest.raises(ParamMismatch):
        merge_grids(sim, payloads, full.with_block_lengths([2, 2]))


def test_zero_edge_party_contributes_empty_blocks():
    parties = [
        Party(0, key_list("AB"), edge_list("AB"), SALT),
        Party(1, key_list("C"), [], SALT),
    ]
    sim, _, _ = _mapped_parties(parties, 3)
    params = PublicParams.derive(p=2, n_i=[2, 1], n=3, t=1,
                                 s=2 * 2 * 8 + RESERVE_BYTES, vwidth=8)
    lengths = [p.block_occupancy(params) for p in parties]
    assert lengths[1] == 0
    full = params.with_block_lengths(lengths)
    payloads = [p.grid_submit_payload(full, full.l_i[p.index]) for p in parties]
    grid = merge_grids(sim, payloads, full)
    assert grid.m == 1 and grid.params.l == lengths[0]

    got, _, _ = run_end_to_end(
        [(key_list("AB"), edge_list("AB")), (key_list("C"), [])], "pr", 2, 1 << 16, SALT)
    assert got[1][KEY["C"]] == pytest.approx(0.15)


def test_merge_single_party_is_identity():
    party = Party(0, key_list("AB"), edge_list("AB"), SALT)
    sim, _, _ = _mapped_parties([party], 2)
    params = PublicParams.derive(p=1, n_i=[2], n=2, t=1,
                                 s=2 * 2 * 8 + RESERVE_BYTES, vwidth=8)
    full = params.with_block_lengths([party.block_occupancy(params)])
    payload = party.grid_submit_payload(full, full.l_i[0])
    grid = merge_grids(sim, [payload], full)
    src, dst = grid.row_order
    assert len(src) == 1


def test_merged_multiset_is_union():
    rng = np.random.default_rng(8)
    raw = [
        ([int(x) for x in range(0, 30)],
         [(int(rng.integers(0, 30)), int(rng.integers(0, 30))) for _ in range(40)]),
        ([int(x) for x in range(20, 50)],
         [(int(rng.integers(20, 50)), int(rng.integers(20, 50))) for _ in range(25)]),
    ]
    parties = [Party(i, keys, edges, SALT) for i, (keys, edges) in enumerate(raw)]
    n = len({k for keys, _ in raw for k in keys})
    sim, _, _ = _mapped_parties(parties, n)
    params = PublicParams.derive(p=2, n_i=[30, 30], n=n, t=1,
                                 s=2 * 8 * 8 + RESERVE_BYTES, vwidth=8)
    lengths = [p.block_occupancy(params) for p in parties]
    full = params.with_block_lengths(lengths)
    payloads = [p.grid_submit_payload(full, full.l_i[p.index]) for p in parties]
    grid = merge_grids(sim, payloads, full)
    assert grid.m == 65

    oracle = _mapping_oracle([keys for keys, _ in raw], SALT)
    expect = sorted(
        (oracle[id_key(obfuscate_ids([u], SALT)[0])],
         oracle[id_key(obfuscate_ids([v], SALT)[0])])
        for _, edges in raw for u, v in edges
    )
    src, dst = grid.row_order
    assert sorted(zip(src.tolist(), dst.tolist())) == expect


def test_merge_grids_records_every_block_traced_and_none_untraced(monkeypatch):
    rng = np.random.default_rng(9)
    raw = [([int(x) for x in range(0, 30)],
            [(int(rng.integers(0, 30)), int(rng.integers(0, 30))) for _ in range(40)]),
           ([int(x) for x in range(20, 50)],
            [(int(rng.integers(20, 50)), int(rng.integers(20, 50))) for _ in range(25)])]
    parties = [Party(i, keys, edges, SALT) for i, (keys, edges) in enumerate(raw)]
    _mapped_parties(parties, 50)
    params = PublicParams.derive(p=2, n_i=[30, 30], n=50, t=1,
                                 s=2 * 8 * 8 + RESERVE_BYTES, vwidth=8)
    full = params.with_block_lengths([p.block_occupancy(params) for p in parties])
    payloads = [p.grid_submit_payload(full, full.l_i[p.index]) for p in parties]
    b, l, l_i = full.b, full.l, full.l_i
    assert b > 1

    traced = OMSim(1 << 14)
    grid = merge_grids(traced, payloads, full)
    expect = []
    for i, payload in enumerate(payloads):
        expect += [("pipe.gridmsg%d" % i, o, "write") for o in range(len(payload))]
    for i, payload in enumerate(payloads):
        header = parse_grid_header(payload)
        hdr, nbytes = header["header_nbytes"], header["block_nbytes"]
        for x in range(b * b):
            expect += [("pipe.gridmsg%d" % i, hdr + x * nbytes + o, "read")
                       for o in range(nbytes)]
            expect += [("grid.party%d" % i, x * l_i[i] + o, "write")
                       for o in range(l_i[i])]
    for x in range(b * b):
        for i in range(2):
            start = x * l + sum(l_i[:i])
            for o in range(l_i[i]):
                expect += [("grid.party%d" % i, x * l_i[i] + o, "read"),
                           (GRID_REGION, start + o, "write")]
    assert [e.astuple()[1:] for e in traced.trace.events()] == expect

    calls = []
    monkeypatch.setattr(AccessTrace, "seq", lambda self, *a: calls.append(a))
    monkeypatch.setattr(AccessTrace, "zip2", lambda self, *a: calls.append(a))
    untraced = OMSim(1 << 14, enabled=False)
    again = merge_grids(untraced, payloads, full)
    assert len(calls) == 2  # the message buffers' initial writes
    assert again.edges.tobytes() == grid.edges.tobytes() and again.m == grid.m


# -- post-processing ---------------------------------------------------------------

def test_post_process_example():
    parties = micro_parties()
    sim, global_map, maps = _mapped_parties(parties, 3)
    params = PublicParams.derive(p=2, n_i=[2, 2], n=3, t=1,
                                 s=2 * 2 * 8 + RESERVE_BYTES, vwidth=8)
    results = np.zeros(3, dtype=R_DTYPE)
    results["mapped"] = np.arange(3)
    results["result"] = [100, 200, 300]
    rbuf = sim.buffer_from_rows("pipe.R", results)
    parts = post_process(sim, rbuf, maps, params)
    for party, out in zip(parties, parts):
        assert len(out.data) == 2
        payload = result_return_payload(sim, out)
        got = party.receive_results(payload, "bfs")
        for key in party.raw_keys:
            oracle = _mapping_oracle([p.raw_keys for p in parties], SALT)
            mapped = oracle[id_key(obfuscate_ids([key], SALT)[0])]
            assert int(got[key]) == [100, 200, 300][mapped]
    # shared vertex: both parties see the same value
    a = parts[0].data, parts[1].data
    shared = id_key(obfuscate_ids([KEY["C"]], SALT)[0])
    va = [int(r["result"]) for r in a[0] if id_key(r) == shared]
    vb = [int(r["result"]) for r in a[1] if id_key(r) == shared]
    assert va == vb and len(va) == 1


def test_post_process_single_party_identity():
    party = Party(0, key_list("pqr"), [], SALT)
    sim, global_map, maps = _mapped_parties([party], 3)
    params = PublicParams.derive(p=1, n_i=[3], n=3, t=1,
                                 s=2 * 2 * 8 + RESERVE_BYTES, vwidth=8)
    results = np.zeros(3, dtype=R_DTYPE)
    results["mapped"] = np.arange(3)
    results["result"] = [7, 8, 9]
    rbuf = sim.buffer_from_rows("pipe.R", results)
    (out,) = post_process(sim, rbuf, maps, params)
    by_id = {id_key(r): int(r["result"]) for r in out.data}
    for r in global_map.data:
        assert by_id[id_key(r)] == [7, 8, 9][int(r["mapped"])]


def test_post_process_handles_allones_result_bits():
    # result bits equal to the null pattern (the unreachable sentinel) must
    # still distribute as exactly that value
    party = Party(0, key_list("ab"), [], SALT)
    sim, _, maps = _mapped_parties([party], 2)
    params = PublicParams.derive(p=1, n_i=[2], n=2, t=1,
                                 s=2 * 2 * 8 + RESERVE_BYTES, vwidth=8)
    results = np.zeros(2, dtype=R_DTYPE)
    results["mapped"] = [0, 1]
    results["result"] = [int(NULL64), 5]
    rbuf = sim.buffer_from_rows("pipe.R", results)
    (out,) = post_process(sim, rbuf, maps, params)
    got = sorted(int(r["result"]) for r in out.data)
    assert got == [5, int(NULL64)]


# -- message-level leakage bounds ---------------------------------------------------

def test_map_return_contains_only_own_entries():
    parties = micro_parties()
    sim, _, maps = _mapped_parties(parties, 3)
    for party, mbuf in zip(parties, maps):
        payload = map_return_payload(sim, mbuf)
        assert len(payload) == party.n_vertices * MAP_DTYPE.itemsize
        rows = np.frombuffer(payload, dtype=MAP_DTYPE)
        own = {id_key(r) for r in party.ids}
        assert {id_key(r) for r in rows} == own


def test_result_return_size_is_public():
    parties = micro_parties()
    sim, _, maps = _mapped_parties(parties, 3)
    params = PublicParams.derive(p=2, n_i=[2, 2], n=3, t=1,
                                 s=2 * 2 * 8 + RESERVE_BYTES, vwidth=8)
    results = np.zeros(3, dtype=R_DTYPE)
    results["mapped"] = np.arange(3)
    rbuf = sim.buffer_from_rows("pipe.R", results)
    parts = post_process(sim, rbuf, maps, params)
    for party, out in zip(parties, parts):
        payload = result_return_payload(sim, out)
        assert len(payload) == party.n_vertices * 24


# -- end to end --------------------------------------------------------------------

def test_end_to_end_pr_matches_reference():
    parties = [
        (key_list("AC"), edge_list("AC")),
        (key_list("BC"), edge_list("BC", "CB")),
    ]
    got, _, _ = run_end_to_end(parties, "pr", 4, 1 << 16, SALT, engine="oblige")
    ref, _, _ = run_end_to_end(parties, "pr", 4, 1 << 16, SALT, engine="reference")
    for i in got:
        for key in got[i]:
            assert got[i][key] == pytest.approx(ref[i][key], rel=1e-12)


def test_end_to_end_single_party_equals_direct_run():
    from oblige.apps import APPS
    from oblige.baselines import reference_run

    rng = np.random.default_rng(2)
    n, m = 32, 80
    edges = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2))]
    keys = list(range(n))
    got, _, _ = run_end_to_end([(keys, edges)], "pr", 5, 1 << 16, SALT)

    # identity of the merged graph does not depend on the key-to-rank order
    # for PR values, only the multiset of edges does
    oracle = _mapping_oracle([keys], SALT)
    rank = {k: oracle[id_key(obfuscate_ids([k], SALT)[0])] for k in keys}
    src = [rank[u] for u, v in edges]
    dst = [rank[v] for u, v in edges]
    w = reference_run(APPS["pr"], n, src, dst, 5)
    for key in keys:
        assert got[0][key] == pytest.approx(w[rank[key]], rel=1e-9)


def test_partition_invariance_small():
    from oblige.kron import assign_parties, generate_kronecker, split_parties

    src, dst = generate_kronecker(6, 1 << 8, seed=5)
    n = 1 << 6
    baseline = None
    for p in (1, 2, 3, 5):
        owner = assign_parties(n, p, "random", seed=p)
        parties = split_parties(src, dst, owner, p)
        got, _, _ = run_end_to_end(parties, "pr", 5, 1 << 16, SALT,
                                   engine="oblige")
        combined = {}
        for res in got.values():
            combined.update(res)
        if baseline is None:
            baseline = combined
        else:
            assert set(combined) == set(baseline)
            for key in combined:
                assert combined[key] == pytest.approx(baseline[key], rel=1e-9)


def test_bfs_unknown_source():
    parties = [(key_list("AB"), edge_list("AB"))]
    with pytest.raises(UnknownSource):
        run_end_to_end(parties, "bfs", 2, 1 << 16, SALT, source_key=KEY["Z"])


@pytest.mark.parametrize("engine", ["oblige", "sortscan", "reference"])
def test_errors_name_their_stage(engine):
    parties = [(key_list("AB"), edge_list("AB"))]
    with pytest.raises(UnknownSource) as err:
        run_end_to_end(parties, "bfs", 2, 1 << 16, SALT, engine=engine,
                       source_key=KEY["Z"])
    assert err.value.stage == "compute"
    with pytest.raises(UnknownSource) as err:  # refused before any stage runs
        run_end_to_end(parties, "bfs", 2, 1 << 16, SALT, engine=engine, source_key=-1)
    assert err.value.stage is None
    with pytest.raises(MalformedPartyFile) as err:
        run_end_to_end([(key_list("AB"), edge_list("AC"))], "pr", 1, 1 << 16, SALT,
                       engine=engine)
    assert err.value.stage == "party_setup"


def test_report_digests_reproducible():
    parties = [(key_list("AC"), edge_list("AC")), (key_list("BC"), edge_list("BC"))]
    _, rep1, _ = run_end_to_end(parties, "pr", 2, 1 << 16, SALT)
    _, rep2, _ = run_end_to_end(parties, "pr", 2, 1 << 16, SALT)
    assert rep1.stage_digests == rep2.stage_digests
    assert rep1.params == rep2.params


def test_report_digest_seconds_per_traced_stage():
    parties = [(key_list("AC"), edge_list("AC")), (key_list("BC"), edge_list("BC"))]
    for engine in ("oblige", "sortscan"):
        _, rep, _ = run_end_to_end(parties, "pr", 2, 1 << 16, SALT, engine=engine)
        assert set(rep.digest_seconds) == set(rep.stage_digests) == set(rep.stage_seconds)
        assert all(v >= 0 for v in rep.digest_seconds.values())
        assert rep.to_dict()["digest_seconds"] == rep.digest_seconds
        _, untraced, _ = run_end_to_end(parties, "pr", 2, 1 << 16, SALT, engine=engine,
                                        record=False)
        assert untraced.digest_seconds == {}
        assert untraced.to_dict()["digest_seconds"] == {}
        assert set(untraced.stage_seconds) == set(rep.stage_seconds)


def test_osort_log_on_oblige_engine_is_public():
    # Twin inputs: same key lists and per-party edge counts, other edges.
    parties = [(key_list("ACD"), edge_list("AC", "DA")),
               (key_list("BC"), edge_list("BC"))]
    twin = [(key_list("ACD"), edge_list("CD", "CA")),
            (key_list("BC"), edge_list("CB"))]
    lengths = []
    for inputs in (parties, twin):
        _, report, sim = run_end_to_end(inputs, "pr", 2, 1 << 16, SALT,
                                        block_length_override=[2, 1])
        assert report.osort_lengths == [entry["n"] for entry in sim.osort_log]
        lengths.append([(e["n"], e["padded"], e["segment"], e["compare_exchanges"])
                        for e in sim.osort_log])
    assert lengths[0] and lengths[0] == lengths[1]
    # vertex mapping sorts all 5 submitted IDs; post-processing sorts the 5
    # party entries with the 4 merged results
    assert [n for n, _, _, _ in lengths[0]] == [5, 9]


# -- party-side key handling ----------------------------------------------------

@pytest.mark.parametrize("keys, edges", [
    ([1, 2], [("1", 2)]),                    # str endpoint, int keys
    ([1.0, 2.0], []),                        # unsupported key type
    ([np.int64(-1)], []),                    # negative numpy key
    ([1, 2], [(1, np.int64(-1))]),           # negative numpy endpoint
    ([(1 << 64) - 1], [(-1, (1 << 64) - 1)]),
    ([1, 2], [(1, 2, 2)]),                   # not a pair
    ([], [(1, 1)]),                          # edge without keys
    (np.array([2, -1]), []),                 # negative key in an int64 array
    (np.array([[1, 2]]), []),                # key array that is not 1-D
    ([1, 2], np.array([1, 2])),              # edge array that is not (m, 2)
    ([1, 2], np.array([[1, 2, 2]])),
    ([1, 2], np.array([[1, -2]])),           # negative endpoint in an array
    (np.array([1, 2]), [("1", "2")]),        # str endpoints, int array keys
    (np.array([1, 2]), np.array([[1, 3]])),  # edge array to an unlisted key
    (["a"], []),                             # str key
    ([b"a"], []),                            # bytes key
    ([None], []),                            # None key
    (["5"], []),                             # a digit string is not an integer
    ([1, 2, 3], [(1, 2), (3,)]),             # ragged edge list
])
def test_party_rejects_conflatable_or_foreign_keys(keys, edges):
    with pytest.raises(MalformedPartyFile):
        Party(0, keys, edges, SALT)


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64]


@st.composite
def numpy_ints(draw):
    info = np.iinfo(draw(st.sampled_from(INT_DTYPES)))
    return info.dtype.type(draw(st.integers(int(info.min), int(info.max))))


def exact_keys(values):
    """Oracle: the values as Python ints if each is an integer in [0, 2^64)."""
    out = []
    for value in values:
        if not (isinstance(value, (int, np.integer)) and 0 <= int(value) < 1 << 64):
            return None
        out.append(int(value))
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(-(1 << 64), (1 << 65) - 1), numpy_ints(),
                          st.booleans(), st.floats(), st.text(max_size=2)),
                max_size=6))
def test_party_accepts_exactly_the_integers_in_range(values):
    want = exact_keys(values)
    if want is None:
        with pytest.raises(MalformedPartyFile):
            Party(0, values, [], SALT)
    else:
        assert Party(0, values, [], SALT).raw_keys.tolist() == want


def test_party_accepts_numpy_and_bool_int_keys():
    party = Party(0, [np.uint64(7), True, 2], [(np.int64(2), 7), (1, True)], SALT)
    assert party.ids.tobytes() == old_obfuscate_ids([7, 1, 2], SALT).tobytes()


def party_forms(keys, edges):
    """One party's input as lists, as arrays and in mixed forms."""
    key_array = np.asarray(keys, dtype=np.uint64)
    edge_array = np.asarray(edges, dtype=np.uint64).reshape(-1, 2)
    return {
        "lists": (keys, edges),
        "uint64 arrays": (key_array, edge_array),
        "int64 arrays": (key_array.astype(np.int64), edge_array.astype(np.int64)),
        # perfbench's twin input: a key array and a list of np.uint64 pairs
        "twin": (key_array, [(u, v) for u, v in edge_array]),
        "list keys, array edges": (keys, edge_array),
    }


def test_party_array_and_list_inputs_agree():
    src, dst = kron.generate_kronecker(6, 1 << 8, seed=5)
    owner = kron.assign_parties(1 << 6, 2, "random", seed=1)
    lists = [(keys.tolist(), list(map(tuple, edges.tolist())))
             for keys, edges in kron.split_parties(src, dst, owner, 2)]
    lists.append(([], []))  # and an empty party
    forms = [party_forms(keys, edges) for keys, edges in lists]
    want = None
    for name in forms[0]:
        inputs = [f[name] for f in forms]
        parties = [Party(i, keys, edges, SALT) for i, (keys, edges) in enumerate(inputs)]
        state = [(p.ids.tobytes(), p._ends.tolist(), p.raw_keys.tolist()) for p in parties]
        runs = []
        for app, engine in [("pr", "oblige"), ("bfs", "sortscan"), ("wcc", "oblige"),
                            ("pr", "reference")]:
            results, report, sim = run_end_to_end(inputs, app, 2, 1 << 14, SALT,
                                                  engine=engine, source_key=1)
            assert all(type(key) is int for res in results.values() for key in res)
            runs.append((results, report.stage_digests,
                         sim.osort_log if sim else None))
        if want is None:
            want = state, runs
        assert (state, runs) == want, name
    assert [keys for keys, _ in lists] == [raw_keys for _, _, raw_keys in want[0]]


def _payload_without(payload, dtype, row):
    rows = np.frombuffer(payload, dtype=dtype)
    return np.delete(rows, row).tobytes()


def test_map_return_missing_id_is_typed_error():
    parties = micro_parties()
    sim = OMSim(1 << 14)
    arrays = [ids_from_bytes(p.vertex_submit_payload()) for p in parties]
    _, maps = vertex_mapping(sim, arrays, 3)
    payload = map_return_payload(sim, maps[0])
    with pytest.raises(MissingID):
        parties[0].receive_mapping(_payload_without(payload, MAP_DTYPE, 1))
    # a foreign ID in place of an own one
    foreign = np.frombuffer(payload, dtype=MAP_DTYPE).copy()
    foreign[0]["l"] ^= np.uint64(1)
    with pytest.raises(MissingID):
        parties[0].receive_mapping(foreign.tobytes())
    assert issubclass(MissingID, ObligeError)


def test_result_return_missing_id_is_typed_error():
    parties = micro_parties()
    sim, _, maps = _mapped_parties(parties, 3)
    params = PublicParams.derive(p=2, n_i=[2, 2], n=3, t=1,
                                 s=2 * 2 * 8 + RESERVE_BYTES, vwidth=8)
    results = np.zeros(3, dtype=R_DTYPE)
    results["mapped"] = np.arange(3)
    rbuf = sim.buffer_from_rows("pipe.R", results)
    parts = post_process(sim, rbuf, maps, params)
    payload = result_return_payload(sim, parts[1])
    with pytest.raises(MissingID):
        parties[1].receive_results(_payload_without(payload, RES_DTYPE, 0), "bfs")
    with pytest.raises(MissingID):
        parties[1].receive_results(b"", "bfs")


def test_missing_id_on_a_duplicated_row():
    parties = micro_parties()
    sim, _, maps = _mapped_parties(parties, 3)
    rows = np.frombuffer(map_return_payload(sim, maps[1]), dtype=MAP_DTYPE).copy()
    rows[1] = rows[0]
    with pytest.raises(MissingID):
        parties[1].receive_mapping(rows.tobytes())


# -- replies matched on the ID's h word --------------------------------------------

SHARED_H = np.array([(5, 2), (5, 1), (3, 9)], dtype=ID_DTYPE)  # two IDs share h


@pytest.fixture
def shared_h_party(monkeypatch):
    """A party whose first two IDs share their h word, a 2^-64 event forced here."""
    monkeypatch.setattr(pipeline, "obfuscate_ids", lambda keys, salt: SHARED_H.copy())
    return Party(0, [10, 20, 30], [(10, 20), (30, 10)], SALT)


def _reply(dtype, field, values, order):
    rows = np.zeros(len(SHARED_H), dtype=dtype)
    rows["h"], rows["l"], rows[field] = SHARED_H["h"], SHARED_H["l"], values
    return rows[order]


def test_shared_h_reply_falls_back_to_the_exact_match(shared_h_party):
    # In h order both shared-h IDs find row (5, 1) first, so the l check fails.
    for order in ([2, 1, 0], [0, 2, 1], [1, 0, 2]):
        shared_h_party.receive_mapping(_reply(MAP_DTYPE, "mapped", [7, 8, 9], order).tobytes())
        assert shared_h_party._mapped.tolist() == [[7, 9], [8, 7]]
        reply = _reply(RES_DTYPE, "result", [100, 200, 300], order)
        assert shared_h_party.receive_results(reply.tobytes(), "bfs") == \
            {10: 100, 20: 200, 30: 300}


@pytest.mark.parametrize("fault", ["short", "duplicated", "foreign-l", "foreign-h"])
def test_shared_h_reply_lacking_an_id_is_refused(shared_h_party, fault):
    rows = _reply(RES_DTYPE, "result", [100, 200, 300], [0, 1, 2])
    if fault == "short":
        rows = rows[[0, 2]]
    elif fault == "duplicated":
        rows[1] = rows[0]
    elif fault == "foreign-l":
        rows[1]["l"] = 7  # h shared with two own IDs, l with neither
    else:
        rows[2]["h"] = 4
    with pytest.raises(MissingID):
        shared_h_party.receive_results(rows.tobytes(), "bfs")
    with pytest.raises(MissingID):
        shared_h_party.receive_mapping(rows.astype(MAP_DTYPE).tobytes())


# -- the array path against dict-based oracles ---------------------------------------

@st.composite
def drawn_parties(draw):
    """Parties over a shared key universe: overlaps, duplicate edges, self-loops."""
    universe = draw(st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=12,
                             unique=True))
    parties = []
    for _ in range(draw(st.integers(1, 3))):
        keys = draw(st.lists(st.sampled_from(universe), min_size=1,
                             max_size=len(universe), unique=True))
        picks = st.tuples(st.sampled_from(keys), st.sampled_from(keys))
        parties.append((keys, draw(st.lists(picks, max_size=12))))
    return parties


def dict_mapped_edges(party_inputs, salt, symmetrize):
    """Mapped (src, dst) per party, through per-key dicts."""
    rank = _mapping_oracle([keys for keys, _ in party_inputs], salt)
    out = []
    for keys, edges in party_inputs:
        by_raw = {k: rank[id_key(r)] for k, r in zip(keys, obfuscate_ids(keys, salt))}
        src = [by_raw[u] for u, _ in edges]
        dst = [by_raw[v] for _, v in edges]
        if symmetrize:
            src, dst = src + dst, dst + src
        out.append((src, dst))
    return out


@settings(max_examples=40, deadline=None)
@given(drawn_parties())
def test_mapped_edges_match_dict_oracle(party_inputs):
    parties = [Party(i, keys, edges, SALT) for i, (keys, edges) in enumerate(party_inputs)]
    n = len(_mapping_oracle([keys for keys, _ in party_inputs], SALT))
    _mapped_parties(parties, n)
    for symmetrize in (False, True):
        want = dict_mapped_edges(party_inputs, SALT, symmetrize)
        for party, (src, dst) in zip(parties, want):
            got_src, got_dst = party._mapped_edges(symmetrize)
            assert got_src.tolist() == src and got_dst.tolist() == dst


@settings(max_examples=25, deadline=None)
@given(drawn_parties(), st.sampled_from([2, 3, 64]))
def test_end_to_end_matches_reference_drawn(party_inputs, k):
    source = party_inputs[0][0][0]
    for app in ("pr", "bfs", "wcc"):
        om = 2 * k * 16 + RESERVE_BYTES
        got, _, _ = run_end_to_end(party_inputs, app, 3, om, SALT, source_key=source)
        ref, _, _ = run_end_to_end(party_inputs, app, 3, om, SALT, source_key=source,
                                   engine="reference")
        assert got.keys() == ref.keys()
        for i in ref:
            assert got[i].keys() == ref[i].keys()
            a = np.array([got[i][key] for key in ref[i]])
            b = np.array([ref[i][key] for key in ref[i]])
            if app == "pr":
                np.testing.assert_allclose(a, b, rtol=1e-9, atol=0)
            else:
                assert a.tolist() == b.tolist()


@pytest.mark.parametrize("engine", ["oblige", "sortscan", "reference"])
def test_run_rejects_fewer_than_one_worker(engine):
    parties = [([1, 2, 3], [(1, 2), (2, 3)])]
    for workers in (0, -2):
        with pytest.raises(UsageError):
            run_end_to_end(parties, "pr", 2, 1 << 16, SALT, workers=workers,
                           engine=engine)


@pytest.mark.parametrize("engine", ["oblige", "sortscan", "reference"])
def test_run_rejects_a_negative_round_count(engine):
    parties = [([1, 2, 3], [(1, 2), (2, 3)])]
    with pytest.raises(UsageError):
        run_end_to_end(parties, "pr", -3, 1 << 16, SALT, engine=engine)


def test_damping_reaches_every_engine():
    from oblige.apps import APPS

    src, dst = kron.generate_kronecker(6, 1 << 8, seed=3)
    owner = kron.assign_parties(1 << 6, 2, "random", seed=3)
    parties = kron.split_parties(src, dst, owner, 2)

    def values(engine, f):
        got, _, _ = run_end_to_end(parties, "pr", 4, 1 << 16, SALT, engine=engine, f=f)
        return np.array([got[i][key] for i in sorted(got) for key in sorted(got[i])])

    half = {engine: values(engine, 0.5) for engine in ("oblige", "sortscan", "reference")}
    default = values("reference", None)
    for engine in ("oblige", "sortscan"):
        np.testing.assert_allclose(half[engine], half["reference"], rtol=1e-9, atol=0)
    np.testing.assert_allclose(values("oblige", 0.85), default, rtol=1e-9, atol=0)
    assert not np.allclose(half["reference"], default, rtol=1e-3)
    assert APPS["pr"].damping == 0.85


def test_serial_stages_record_only_on_worker_0():
    # Only the grid scan is parallel.  With b >= 3 lines and 3 workers each
    # worker owns a scan line; every other stage records as worker 0.
    src, dst = kron.generate_kronecker(7, 1 << 9, seed=5)
    owner = kron.assign_parties(1 << 7, 3, "random", seed=5)
    parties = kron.split_parties(src, dst, owner, 3)
    om = RESERVE_BYTES + 2 * 16 * 8
    source = parties[0][0][0]
    for app, t, engine, workers in [("pr", 2, "sortscan", {0}), ("bfs", 0, "oblige", {0}),
                                    ("pr", 1, "oblige", {0, 1, 2})]:
        _, report, sim = run_end_to_end(parties, app, t, om, SALT, workers=3,
                                        engine=engine, source_key=source)
        assert report.params["b"] >= 3
        assert set(sim.trace.mark()) == workers, (app, t, engine)


def test_stage_seconds_cover_the_run():
    src, dst = kron.generate_kronecker(10, 1 << 12, seed=3)
    owner = kron.assign_parties(1 << 10, 3, "random", seed=3)
    parties = kron.split_parties(src, dst, owner, 3)
    stages = ["party_setup", "declare_n", "vertex_mapping", "edge_preprocess",
              "merge_grids", "compute", "post_process"]
    for engine in ("oblige", "sortscan"):
        for record in (False, True):
            covered = []
            for _ in range(3):
                start = time.perf_counter()
                _, rep, _ = run_end_to_end(parties, "pr", 2, 1 << 16, SALT,
                                           engine=engine, record=record)
                wall = time.perf_counter() - start
                assert list(rep.stage_seconds) == stages
                # Digest hashing is timed apart from its stage.
                timed = sum(rep.stage_seconds.values()) + sum(rep.digest_seconds.values())
                covered.append(timed / wall)
            assert 0.95 <= max(covered) <= 1.0, (engine, record, covered)
