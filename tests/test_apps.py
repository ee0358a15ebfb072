"""Application semantics: fixed points, truncated rounds, oracle agreement."""

import numpy as np
import pytest

from oblige.apps import (
    APPS,
    INF,
    VertexProgram,
    bfs_initial_dist,
    compute_out_degrees,
    iteration,
    run_app,
)
from oblige.baselines import reference_run, sortscan_on_grid
from oblige.errors import SymmetryRequired, UnknownSource
from oblige.grid import RESERVE_BYTES, PublicParams, build_grid
from oblige.omsim import OMSim
from oblige.pipeline import ID_DTYPE
from oblige.scan import full_scan, full_scan_rows

PR, BFS, WCC = APPS["pr"], APPS["bfs"], APPS["wcc"]


def fixture_grid(edges, n, k=None, l=None, vwidth=16, symmetrized=False):
    k = k or max(2, n // 3)
    l = l if l is not None else max(len(edges), 1)
    params = PublicParams.derive(p=1, n_i=[n], n=n, t=1,
                                 s=2 * k * vwidth + RESERVE_BYTES,
                                 vwidth=vwidth, l_i=[l])
    return build_grid(edges, params, symmetrized=symmetrized)


def index_map(sim, n):
    """Global-map stand-in whose IDs are the positions themselves."""
    rows = np.zeros(n, dtype=ID_DTYPE)
    rows["l"] = np.arange(n, dtype=np.uint64)
    return sim.buffer_from_rows("vm.global", rows)


def source_id(v):
    row = np.zeros(1, dtype=ID_DTYPE)
    row["l"] = v
    return row[0]


def test_out_degrees_micro():
    grid = fixture_grid([(0, 3), (1, 0), (3, 3)], 4, vwidth=8)
    sim = OMSim(grid.params.s)
    out = compute_out_degrees(sim, grid)
    assert out.data["degree"].tolist() == [1, 1, 0, 1]


def test_out_degrees_all_null():
    grid = fixture_grid([], 4, vwidth=8)
    sim = OMSim(grid.params.s)
    out = compute_out_degrees(sim, grid)
    assert out.data["degree"].tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n, k", [(11, 11), (14, 4)])
def test_out_degrees_equal_bincount(n, k, workers):
    # b=1, and b=4 with a short last chunk (14 = 3*4 + 2); vertex 5 has no
    # out-edges and vertex 0 has many
    rng = np.random.default_rng(n)
    src = np.concatenate([np.zeros(9, dtype=np.int64),
                          rng.choice([v for v in range(n) if v != 5], size=40)])
    edges = list(zip(src.tolist(), rng.integers(0, n, size=len(src)).tolist()))
    grid = fixture_grid(edges, n, k=k, vwidth=8)
    assert grid.params.b == -(-n // k)
    sim = OMSim(grid.params.s)
    degree = compute_out_degrees(sim, grid, workers=workers).data["degree"]
    assert degree.dtype == np.uint64
    want = np.bincount(grid.row_order[0], minlength=n).astype(np.uint64)
    assert degree.tobytes() == want.tobytes()
    assert degree[5] == 0


def test_pr_two_cycle_fixed_point():
    grid = fixture_grid([(0, 1), (1, 0)], 2)
    sim = OMSim(grid.params.s)
    state = run_app(sim, grid, None, PR, 100)
    assert state.data["weight"].tolist() == [1.0, 1.0]  # exact fixed point


def test_pr_isolated_vertex():
    grid = fixture_grid([(0, 1)], 3)
    sim = OMSim(grid.params.s)
    state = run_app(sim, grid, None, PR, 1)
    assert state.data["weight"][2] == pytest.approx(0.15)


def test_pr_matches_reference_on_kron():
    from oblige.kron import generate_kronecker

    src, dst = generate_kronecker(7, 1 << 9, seed=3)
    n = 1 << 7
    grid = fixture_grid(list(zip(src.tolist(), dst.tolist())), n, k=40)
    sim = OMSim(grid.params.s)
    state = run_app(sim, grid, None, PR, 10)
    ref = reference_run(PR, n, src, dst, t=10)
    np.testing.assert_allclose(state.data["weight"], ref, rtol=1e-9)


def test_pr_weight_conservation_without_dangling():
    rng = np.random.default_rng(6)
    n = 50
    edges = [(v, int(rng.integers(0, n))) for v in range(n) for _ in range(2)]
    grid = fixture_grid(edges, n, k=17)
    sim = OMSim(grid.params.s)
    state = run_app(sim, grid, None, PR, 8)
    assert float(state.data["weight"].sum()) == pytest.approx(n, rel=1e-6)


def test_pr_iteration_digest_constant_across_iterations():
    grid = fixture_grid([(0, 1), (1, 2), (2, 0)], 3)
    sim = OMSim(grid.params.s)
    state = run_app(sim, grid, None, PR, 0)
    digests = []
    for _ in range(3):
        mark = sim.trace.mark()
        state = iteration(sim, grid, state, PR)
        digests.append(sim.trace.digest(start=mark))
    assert digests[0] == digests[1] == digests[2]


def test_bfs_path_graph():
    grid = fixture_grid([(0, 1), (1, 2)], 3, vwidth=8)
    sim = OMSim(grid.params.s)
    state = run_app(sim, grid, index_map(sim, 3), BFS, 2, source_id=source_id(0))
    assert state.data["dist"].tolist() == [0, 1, 2]


def test_bfs_zero_rounds():
    grid = fixture_grid([(0, 1), (1, 2)], 3, vwidth=8)
    sim = OMSim(grid.params.s)
    state = run_app(sim, grid, index_map(sim, 3), BFS, 0, source_id=source_id(1))
    assert state.data["dist"].tolist() == [int(INF), 0, int(INF)]


def test_bfs_unknown_source():
    grid = fixture_grid([(0, 1)], 2, vwidth=8)
    sim = OMSim(grid.params.s)
    with pytest.raises(UnknownSource):
        run_app(sim, grid, index_map(sim, 2), BFS, 1, source_id=source_id(99))


def _dict_bfs_rounds(n, edges, source, t):
    # independent oracle: per-round relaxation over a dict adjacency
    dist = {v: None for v in range(n)}
    dist[source] = 0
    for _ in range(t):
        new = dict(dist)
        for u, v in edges:
            if dist[u] is not None:
                cand = dist[u] + 1
                if new[v] is None or cand < new[v]:
                    new[v] = cand
        dist = new
    return [int(INF) if dist[v] is None else dist[v] for v in range(n)]


def test_bfs_truncated_rounds_match_oracle():
    rng = np.random.default_rng(11)
    n = 24
    edges = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(60, 2))]
    grid = fixture_grid(edges, n, k=7, vwidth=8)
    for t in (1, 2, 5, n):
        sim = OMSim(grid.params.s)
        state = run_app(sim, grid, index_map(sim, n), BFS, t, source_id=source_id(0))
        assert state.data["dist"].tolist() == _dict_bfs_rounds(n, edges, 0, t)


def test_bfs_exact_at_full_rounds():
    grid = fixture_grid([(0, 1), (1, 2), (2, 3), (0, 3)], 4, vwidth=8)
    sim = OMSim(grid.params.s)
    state = run_app(sim, grid, index_map(sim, 4), BFS, 3, source_id=source_id(0))
    assert state.data["dist"].tolist() == [0, 1, 2, 1]


def test_wcc_requires_symmetry():
    grid = fixture_grid([(0, 1)], 2, vwidth=8, symmetrized=False)
    sim = OMSim(grid.params.s)
    with pytest.raises(SymmetryRequired):
        run_app(sim, grid, None, WCC, 1)


def _sym(edges):
    return edges + [(v, u) for u, v in edges]


def test_wcc_two_cycles():
    edges = _sym([(0, 1), (2, 3)])
    grid = fixture_grid(edges, 4, vwidth=8, symmetrized=True)
    sim = OMSim(grid.params.s)
    state = run_app(sim, grid, None, WCC, 2)
    assert state.data["label"].tolist() == [0, 0, 2, 2]


def test_wcc_zero_rounds_identity():
    grid = fixture_grid(_sym([(0, 1)]), 3, vwidth=8, symmetrized=True)
    sim = OMSim(grid.params.s)
    state = run_app(sim, grid, None, WCC, 0)
    assert state.data["label"].tolist() == [0, 1, 2]


def test_wcc_converges_to_component_minimum():
    pytest.importorskip("scipy")
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(12)
    n = 40
    base = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(30, 2))]
    edges = _sym(base)
    grid = fixture_grid(edges, n, k=13, vwidth=8, symmetrized=True)
    sim = OMSim(grid.params.s)
    state = run_app(sim, grid, None, WCC, n)

    if base:
        rows, cols = zip(*base)
    else:
        rows, cols = [], []
    adj = coo_matrix((np.ones(len(base)), (rows, cols)), shape=(n, n))
    _, comp = connected_components(adj, directed=False)
    expect = np.zeros(n, dtype=np.uint64)
    for c in np.unique(comp):
        members = np.flatnonzero(comp == c)
        expect[members] = members.min()
    assert (state.data["label"] == expect).all()


def test_per_iteration_digest_constant_bfs_wcc():
    edges = _sym([(0, 1), (1, 2)])
    grid = fixture_grid(edges, 3, vwidth=8, symmetrized=True)
    for app, make in (("bfs", lambda sim: bfs_initial_dist(index_map(sim, 3), source_id(0))),):
        sim = OMSim(grid.params.s)
        state = make(sim)
        digests = []
        for _ in range(3):
            mark = sim.trace.mark()
            state = iteration(sim, grid, state, BFS)
            digests.append(sim.trace.digest(start=mark))
        assert len(set(digests)) == 1


def test_app_registry_metadata():
    assert APPS["pr"].vwidth == 16 and APPS["pr"].damping == 0.85
    assert APPS["bfs"].damping is None and APPS["wcc"].damping is None
    assert APPS["bfs"].vwidth == 8 and not APPS["bfs"].symmetric
    assert APPS["wcc"].symmetric
    bits = APPS["pr"].result_bits(np.array([(1.5, 2)], dtype=APPS["pr"].state_dtype))
    assert APPS["pr"].bits_to_values(bits)[0] == 1.5


# -- a fourth program, defined here only: every engine derives from it -----------

def khop_program(sources):
    """k-hop reachability from a source set: 0 once reached, 1 before."""
    def init(n):
        reach = np.ones(n, dtype=np.uint64)
        reach[sources] = 0
        return reach

    return VertexProgram("khop", "khop.reach", np.dtype([("reach", "<u8")]), "reach",
                         init, lambda state, idx: state["reach"][idx], np.minimum)


def _within_hops(n, edges, sources, k):
    reached = set(int(s) for s in sources)
    for _ in range(k):
        reached |= {v for u, v in edges if u in reached}
    return [0 if v in reached else 1 for v in range(n)]


@pytest.mark.parametrize("seed", range(8))
def test_khop_program_identical_on_all_engines(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    m = int(rng.integers(0, 120))
    edges = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2))]
    sources = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
    hops = int(rng.integers(0, 5))
    program = khop_program(sources)
    grid = fixture_grid(edges, n, k=max(2, n // 4), vwidth=8)

    sim = OMSim(grid.params.s)
    scan = run_app(sim, grid, None, program, hops, workers=int(rng.integers(1, 4)))
    sim = OMSim(grid.params.s)
    bits = sortscan_on_grid(sim, grid, None, program, hops)
    ref = reference_run(program, n, [u for u, _ in edges], [v for _, v in edges], hops)

    expect = np.array(_within_hops(n, edges, sources, hops), dtype=np.uint64)
    assert scan.data["reach"].tobytes() == expect.tobytes()
    assert bits.data["result"].tobytes() == expect.tobytes()
    assert ref.tobytes() == expect.tobytes()


# -- kernel contract: one message per vertex, the same bytes as one per edge ------

def per_edge_message(program):
    """The message each edge sends, computed at that edge's source alone."""
    if program.name == "pr":
        return lambda state, idx: state["weight"][idx] / state["degree"][idx]
    return program.message


def per_edge_kernel(program):
    message = per_edge_message(program)

    def kernel(src, dst, soff, doff):
        program.combine.at(dst[program.field], doff, message(src, soff))
    return kernel


def contract_state(program, n, out_degree, rng):
    state = program.initial(n)
    if program.value.kind == "f":
        state[program.field] = rng.choice([1e16, -1e16, 1.0, 3.3e-3, 7.0],
                                          size=n) * rng.random(n)
    else:
        state[program.field] = rng.integers(0, 2 * n, size=n)
        state[program.field][rng.random(n) < 0.3] = INF
    if program.needs_degrees:
        state["degree"] = out_degree
    return state


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("by_rows", [False, True])
@pytest.mark.parametrize("app", ["pr", "bfs", "wcc", "khop"])
def test_kernel_matches_per_edge_oracle(app, by_rows, workers):
    # n=14, k=4: b=4 with a short last chunk.  Vertices 2, 7 and 13 send
    # nothing (PR degree 0); most edges go to 0, 1 and 13, so float folds
    # over mixed magnitudes show any change of operand or order.
    program = khop_program([0, 5]) if app == "khop" else APPS[app]
    rng = np.random.default_rng(workers)
    n = 14
    senders = [v for v in range(n) if v not in (2, 7, 13)]
    src = rng.choice(senders, size=80)
    dst = np.where(rng.random(80) < 0.8, rng.choice([0, 1, 13], size=80),
                   rng.integers(0, n, size=80))
    edges = list(zip(src.tolist(), dst.tolist()))
    grid = fixture_grid(edges, n, k=4, vwidth=16)
    assert grid.params.b == 4
    out_degree = np.bincount(src, minlength=n).astype(np.uint64)
    assert out_degree[[2, 7, 13]].tolist() == [0, 0, 0]
    src_init = contract_state(program, n, out_degree, rng)
    dst_init = contract_state(program, n, out_degree, rng)
    scan = full_scan_rows if by_rows else full_scan

    def run(kernel):
        seen = []

        def recording(src_side, dst_side, soff, doff):
            kernel(src_side, dst_side, soff, doff)
            seen.append((src_side.tobytes(), dst_side.tobytes()))

        sim = OMSim(grid.params.s)
        src_buf = sim.buffer_from_rows("vsrc", src_init)
        dst_buf = sim.buffer_from_rows("vdst", dst_init)
        with np.errstate(all="raise"):
            out = scan(grid, src_buf, dst_buf, recording, sim, workers=workers)
        return out.data.tobytes(), seen

    got, want = run(program.kernel), run(per_edge_kernel(program))
    assert len(got[1]) == 1
    assert got == want
