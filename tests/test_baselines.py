"""Sort-scan baseline vs reference engine vs the grid engine."""

import numpy as np

from oblige.apps import APPS, INF
from oblige.baselines import SortScanKernel, reference_run, sortscan_run
from oblige.kron import generate_kronecker
from oblige.omsim import OMSim

PR, BFS, WCC = APPS["pr"], APPS["bfs"], APPS["wcc"]


def edge_buf(sim, pairs, name="ss.edgein"):
    rows = np.zeros(len(pairs), dtype=[("src", "<u8"), ("dst", "<u8")])
    if pairs:
        rows["src"], rows["dst"] = zip(*pairs)
    return sim.buffer_from_rows(name, rows)


def dist_init(sim, n, source):
    rows = np.full(n, INF, dtype=[("dist", "<u8")])
    rows["dist"][source] = 0
    return sim.buffer_from_rows("bfs.init", rows)


def test_pr_two_cycle_fixed_point():
    sim = OMSim(1 << 14)
    res = sortscan_run(sim, 2, edge_buf(sim, [(0, 1), (1, 0)]), PR, t=1)
    assert res.data["result"].view("<f8").tolist() == [1.0, 1.0]
    assert reference_run(PR, 2, [0, 1], [1, 0], 1).tolist() == [1.0, 1.0]


def test_bfs_path_graph():
    sim = OMSim(1 << 14)
    res = sortscan_run(sim, 3, edge_buf(sim, [(0, 1), (1, 2)]), BFS, t=2,
                       init_bits=dist_init(sim, 3, 0))
    assert res.data["result"].tolist() == [0, 1, 2]


def test_iteration_trace_constant_across_inputs():
    def digest(pairs):
        sim = OMSim(1 << 13)
        sortscan_run(sim, 8, edge_buf(sim, pairs), PR, t=2)
        return sim.trace.digest()

    a = digest([(0, 1), (1, 2), (2, 3), (3, 0)])
    b = digest([(7, 7), (6, 5), (0, 7), (4, 4)])
    assert a == b


def test_exactly_two_sorts_per_iteration():
    sim = OMSim(1 << 13)
    n, pairs = 8, [(0, 1), (1, 2), (2, 3)]
    t = 4
    sortscan_run(sim, n, edge_buf(sim, pairs), PR, t=t)
    lengths = [entry["n"] for entry in sim.osort_log]
    expected_elems = n + len(pairs)
    # one degree pre-sort, then two sorts of n+m per iteration, one final
    # sort of the n extracted vertices
    assert lengths[0] == expected_elems
    assert lengths[1:1 + 2 * t] == [expected_elems] * (2 * t)
    assert lengths[-1] == n


def test_three_way_agreement_random():
    rng = np.random.default_rng(21)
    n = 1 << 6
    src, dst = generate_kronecker(6, 1 << 8, seed=9)
    pairs = list(zip(src.tolist(), dst.tolist()))

    # pr
    ref = reference_run(PR, n, src, dst, t=10)
    sim = OMSim(1 << 14)
    ss = sortscan_run(sim, n, edge_buf(sim, pairs), PR, t=10)
    np.testing.assert_allclose(ss.data["result"].view("<f8"), ref, rtol=1e-9)

    # bfs
    source = int(src[0])
    ref_d = reference_run(BFS, n, src, dst, t=10, source=source)
    sim = OMSim(1 << 14)
    ss_d = sortscan_run(sim, n, edge_buf(sim, pairs), BFS, t=10,
                        init_bits=dist_init(sim, n, source))
    assert (ss_d.data["result"] == ref_d).all()

    # wcc over symmetrized edges
    sym = pairs + [(b, a) for a, b in pairs]
    s2, d2 = zip(*sym)
    ref_l = reference_run(WCC, n, list(s2), list(d2), t=10)
    sim = OMSim(1 << 14)
    ss_l = sortscan_run(sim, n, edge_buf(sim, sym), WCC, t=10)
    assert (ss_l.data["result"] == ref_l).all()


def test_reference_truncation_semantics():
    # one round reaches only direct successors
    d = reference_run(BFS, 4, [0, 1, 2], [1, 2, 3], t=1, source=0)
    assert d.tolist() == [0, 1, int(INF), int(INF)]
    lab = reference_run(WCC, 4, [0, 1, 2, 1, 2, 3], [1, 2, 3, 0, 1, 2], t=1)
    assert lab.tolist() == [0, 0, 1, 2]


def test_sortscan_degree_round_counts_out_edges():
    sim = OMSim(1 << 13)
    pairs = [(0, 1), (0, 2), (0, 3), (2, 0)]
    res = sortscan_run(sim, 4, edge_buf(sim, pairs), PR, t=1)
    ref = reference_run(PR, 4, [p[0] for p in pairs], [p[1] for p in pairs], 1)
    np.testing.assert_allclose(res.data["result"].view("<f8"), ref, rtol=1e-12)


def test_kernel_dtype_selection():
    # Elements are (kind, a, b) + the program's state + a message: 41 and 33 bytes.
    pr, bfs = SortScanKernel(PR).dtype, SortScanKernel(BFS).dtype
    assert pr.names == ("kind", "a", "b", "weight", "degree", "msg")
    assert bfs.names == ("kind", "a", "b", "dist", "msg")
    assert (pr.itemsize, bfs.itemsize, SortScanKernel(WCC).dtype.itemsize) == (41, 33, 33)
