"""Full-scan semantics, trace purity, write-back totality and OM budget."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblige import apps
from oblige.errors import CapacityExceeded, UsageError
from oblige.grid import GRID_REGION, RESERVE_BYTES, PublicParams, build_grid
from oblige.omsim import (
    CACHELINE,
    ELEMENT,
    READ,
    WRITE,
    Buffer,
    OMSim,
    assign_records,
    copy_records,
)
from oblige.scan import full_scan, full_scan_rows

VAL = np.dtype([("v", "<f8")])


def micro_params(n=4, k=2, l=2):
    return PublicParams.derive(p=1, n_i=[n], n=n, t=1,
                               s=2 * k * 8 + RESERVE_BYTES, vwidth=8, l_i=[l])


def add_kernel(src_chunk, dst_chunk, soff, doff):
    np.add.at(dst_chunk["v"], doff, src_chunk["v"][soff])


def count_kernel(src_chunk, dst_chunk, soff, doff):
    np.add.at(src_chunk["v"], soff, 1.0)


def micro_scan(edges, src_vals, dst_vals, workers=1):
    params = micro_params()
    sim = OMSim(params.s)
    grid = build_grid(edges, params)
    # Registered, not written: every write to "vdst" in the trace is the scan's.
    src = Buffer(sim.trace, "vsrc", np.array([(x,) for x in src_vals], dtype=VAL))
    dst = Buffer(sim.trace, "vdst", np.array([(x,) for x in dst_vals], dtype=VAL))
    out = full_scan(grid, src, dst, add_kernel, sim, workers=workers)
    return out, src, sim


def test_full_scan_micro_case():
    out, src, _ = micro_scan([(0, 3), (1, 0), (3, 3)], [1, 1, 1, 1], [0, 0, 0, 0])
    assert out.data["v"].tolist() == [1.0, 0.0, 0.0, 2.0]
    assert src.data["v"].tolist() == [1.0, 1.0, 1.0, 1.0]  # unmodified


def test_full_scan_all_null_rewrites_unchanged():
    out, _, sim = micro_scan([], [1, 2, 3, 4], [5, 6, 7, 8])
    assert out.data["v"].tolist() == [5.0, 6.0, 7.0, 8.0]
    writes = [ev for ev in sim.trace.events()
              if ev.region == "vdst" and ev.kind == 1]
    assert sorted(ev.offset for ev in writes) == [0, 1, 2, 3]


def test_write_back_totality():
    # every destination element written exactly once per scan
    _, _, sim = micro_scan([(0, 1)], [1, 1, 1, 1], [0, 0, 0, 0])
    writes = [ev.offset for ev in sim.trace.events()
              if ev.region == "vdst" and ev.kind == 1]
    assert sorted(writes) == [0, 1, 2, 3]
    assert len(writes) == 4


def test_full_scan_trace_purity():
    def digest(edges, values):
        out, _, sim = micro_scan(edges, values, [0, 0, 0, 0])
        return sim.trace.digest()

    a = digest([(0, 1), (2, 3), (1, 2)], [1, 2, 3, 4])
    b = digest([(3, 0), (0, 0), (2, 2)], [9, 9, 9, 9])
    assert a == b


def test_full_scan_rows_degrees():
    params = micro_params()
    sim = OMSim(params.s)
    grid = build_grid([(0, 3), (1, 0), (3, 3)], params)
    deg = sim.buffer_from_rows("deg", np.zeros(4, dtype=VAL))
    aux = sim.buffer_from_rows("aux", np.zeros(4, dtype=VAL))
    out = full_scan_rows(grid, deg, aux, count_kernel, sim)
    assert out.data["v"].tolist() == [1.0, 1.0, 0.0, 1.0]


def test_full_scan_rows_all_null():
    params = micro_params()
    sim = OMSim(params.s)
    grid = build_grid([], params)
    deg = sim.buffer_from_rows("deg", np.zeros(4, dtype=VAL))
    aux = sim.buffer_from_rows("aux", np.zeros(4, dtype=VAL))
    out = full_scan_rows(grid, deg, aux, count_kernel, sim)
    assert out.data["v"].tolist() == [0.0] * 4


def test_full_scan_rows_trace_purity():
    def digest(edges):
        params = micro_params()
        sim = OMSim(params.s)
        grid = build_grid(edges, params)
        deg = sim.buffer_from_rows("deg", np.zeros(4, dtype=VAL))
        aux = sim.buffer_from_rows("aux", np.zeros(4, dtype=VAL))
        full_scan_rows(grid, deg, aux, count_kernel, sim)
        return sim.trace.digest()

    assert digest([(0, 1), (1, 2)]) == digest([(3, 3), (2, 0)])


def test_padding_transparency():
    # extra null padding (public l change) never alters the numeric result
    def result(l):
        params = micro_params(l=l)
        sim = OMSim(params.s)
        grid = build_grid([(0, 3), (1, 0), (3, 3)], params)
        src = sim.buffer_from_rows("vsrc", np.ones(4, dtype=VAL))
        dst = sim.buffer_from_rows("vdst", np.zeros(4, dtype=VAL))
        return full_scan(grid, src, dst, add_kernel, sim).data["v"].tolist()

    assert result(2) == result(5) == result(9)


def test_peak_om_usage_exact():
    params = micro_params()
    sim = OMSim(params.s)
    grid = build_grid([(0, 1)], params)
    src = sim.buffer_from_rows("vsrc", np.ones(4, dtype=VAL))
    dst = sim.buffer_from_rows("vdst", np.zeros(4, dtype=VAL))
    full_scan(grid, src, dst, add_kernel, sim)
    assert sim.last_scan_peaks == [2 * params.k * params.vwidth + RESERVE_BYTES]


def test_worker_partition_covers_columns():
    # 2 columns, 3 workers: results identical to single worker, idle worker ok
    single, _, _ = micro_scan([(0, 3), (1, 0), (3, 3)], [1, 1, 1, 1], [0, 0, 0, 0])
    multi, _, sim = micro_scan([(0, 3), (1, 0), (3, 3)], [1, 1, 1, 1], [0, 0, 0, 0],
                               workers=3)
    assert single.data["v"].tolist() == multi.data["v"].tolist()
    assert len(sim.last_scan_peaks) == 3


def test_multi_worker_trace_purity_per_worker():
    def worker_digests(edges):
        params = micro_params()
        sim = OMSim(params.s)
        grid = build_grid(edges, params)
        src = sim.buffer_from_rows("vsrc", np.ones(4, dtype=VAL))
        dst = sim.buffer_from_rows("vdst", np.zeros(4, dtype=VAL))
        full_scan(grid, src, dst, add_kernel, sim, workers=2)
        return sim.trace.worker_digests()

    assert worker_digests([(0, 1), (2, 3)]) == worker_digests([(3, 3), (1, 0)])


def test_oversized_vertex_records_rejected():
    params = micro_params()
    sim = OMSim(params.s)
    grid = build_grid([], params)
    wide = np.dtype([("a", "<f8"), ("b", "<f8")])  # 16 > vwidth 8
    src = sim.buffer_from_rows("vsrc", np.zeros(4, dtype=wide))
    dst = sim.buffer_from_rows("vdst", np.zeros(4, dtype=wide))
    with pytest.raises(CapacityExceeded):
        full_scan(grid, src, dst, add_kernel, sim)


# -- oracle: the block-at-a-time scan ------------------------------------------

def block_scan(grid, src_vals, dst_vals, kernel, sim, workers, by_rows):
    """Reference scan: copy every chunk and block, one kernel call per block.

    Kernels see two chunk arrays with chunk-relative offsets on both sides;
    a kernel that indexes its inputs only by the given offsets runs unchanged
    under both scans.
    """
    params = grid.params
    k, b, l, n = params.k, params.b, params.l, params.n
    owned_vals = src_vals if by_rows else dst_vals
    edges = Buffer(sim.trace, GRID_REGION, grid.edges)
    out = Buffer(sim.trace, owned_vals.name, np.empty_like(owned_vals.data))
    peaks = []

    def read(buf, lo, hi, w):
        sim.trace.seq(w, buf.name, READ, lo, hi - lo)
        return copy_records(buf.data[lo:hi])

    for w in range(workers):
        arena = sim.new_arena()
        for outer in range(w, b, workers):
            reserve = arena.alloc(RESERVE_BYTES)
            owned_om = arena.alloc(k * params.vwidth)
            other_om = arena.alloc(k * params.vwidth)
            lo = outer * k
            hi = min(lo + k, n)
            owned = read(owned_vals, lo, hi, w)
            for inner in range(b):
                ilo = inner * k
                ihi = min(ilo + k, n)
                other = read(dst_vals if by_rows else src_vals, ilo, ihi, w)
                r, c = (outer, inner) if by_rows else (inner, outer)
                base = (r * b + c) * l
                blk = read(edges, base, base + l, w)
                real = blk["pad"] == 0
                soff = (blk["src"][real] - np.uint64(r * k)).astype(np.int64)
                doff = (blk["dst"][real] - np.uint64(c * k)).astype(np.int64)
                if by_rows:
                    kernel(owned, other, soff, doff)
                else:
                    kernel(other, owned, soff, doff)
            sim.trace.seq(w, out.name, WRITE, lo, len(owned))
            assign_records(out.data[lo:lo + len(owned)], owned)
            arena.free(other_om)
            arena.free(owned_om)
            arena.free(reserve)
        peaks.append(arena.peak)
    sim.last_scan_peaks = peaks
    return out


def mixed_add_kernel(src_chunk, dst_chunk, soff, doff):
    # Float sums over mixed magnitudes: any change of summation order shows.
    np.add.at(dst_chunk["v"], doff, src_chunk["v"][soff] * 0.7)


def pull_kernel(src_chunk, dst_chunk, soff, doff):
    # Row-scan kernel that reads the other (destination) side.
    np.add.at(src_chunk["v"], soff, dst_chunk["v"][doff] + 0.1)


def mixed_values(rng, n):
    return rng.choice([1e16, -1e16, 1.0, 3.3e-3, 7.0], size=n) * rng.random(n)


def assert_matches_block_scan(edges, n, k, workers, by_rows, same_buffer,
                              granularity, seed=0):
    params = PublicParams.derive(p=1, n_i=[n], n=n, t=1,
                                 s=2 * k * 8 + RESERVE_BYTES, vwidth=8)
    assert params.k == k
    load = np.bincount([(u // k) * params.b + v // k for u, v in edges] or [0],
                       minlength=params.b * params.b).max()
    grid = build_grid(edges, params.with_block_lengths([max(int(load), 1)]))
    rng = np.random.default_rng(seed)
    src_init = np.zeros(n, dtype=VAL)
    src_init["v"] = mixed_values(rng, n)
    dst_init = np.zeros(n, dtype=VAL)
    dst_init["v"] = mixed_values(rng, n)
    kernel = pull_kernel if by_rows else mixed_add_kernel
    scan = full_scan_rows if by_rows else full_scan

    def run(scan_fn):
        sim = OMSim(params.s, granularity=granularity)
        src = sim.buffer_from_rows("vsrc", src_init)
        dst = src if same_buffer else sim.buffer_from_rows("vdst", dst_init)
        out = scan_fn(src, dst, sim)
        # the scan writes only its output buffer
        assert src.data.tobytes() == src_init.tobytes()
        if not same_buffer:
            assert dst.data.tobytes() == dst_init.tobytes()
        return out, sim

    got, sim = run(lambda src, dst, sim: scan(grid, src, dst, kernel, sim, workers=workers))
    want, ref_sim = run(lambda src, dst, sim: block_scan(
        grid, src, dst, kernel, sim, workers, by_rows))
    assert got.data.tobytes() == want.data.tobytes()
    assert [e.astuple() for e in sim.trace.events()] \
        == [e.astuple() for e in ref_sim.trace.events()]
    assert sim.trace.worker_digests() == ref_sim.trace.worker_digests()
    assert sim.last_scan_peaks == ref_sim.last_scan_peaks
    return got


def repeated_dst_edges(n, seed):
    rng = np.random.default_rng(seed)
    m = 6 * n
    src = rng.integers(0, n, size=m)
    dst = rng.choice([0, 1, n - 1], size=m)  # many repeats of few destinations
    return list(zip(src.tolist(), dst.tolist()))


@pytest.mark.parametrize("granularity", [ELEMENT, CACHELINE])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("by_rows", [False, True])
def test_column_scan_matches_block_scan(workers, by_rows, granularity):
    # n=11, k=3: b=4 with a short last chunk
    edges = repeated_dst_edges(11, seed=workers)
    if by_rows:
        edges = [(v, u) for u, v in edges]
    assert_matches_block_scan(edges, n=11, k=3, workers=workers, by_rows=by_rows,
                              same_buffer=False, granularity=granularity)


@pytest.mark.parametrize("by_rows", [False, True])
def test_column_scan_all_padding_line(by_rows):
    # nothing touches chunk 1 (vertices 3..5) on the owned side; b=4
    edges = [(u, v) for u in range(11) for v in (0, 7, 10)]
    if by_rows:
        edges = [(v, u) for u, v in edges]
    for workers in (1, 2):
        out = assert_matches_block_scan(edges, n=11, k=3, workers=workers,
                                        by_rows=by_rows, same_buffer=False,
                                        granularity=ELEMENT)
        owned_init = assert_matches_block_scan([], n=11, k=3, workers=workers,
                                               by_rows=by_rows, same_buffer=False,
                                               granularity=ELEMENT)
        assert out.data[3:6].tobytes() == owned_init.data[3:6].tobytes()


@pytest.mark.parametrize("by_rows", [False, True])
def test_column_scan_shared_state_buffer(by_rows):
    # the BFS/WCC shape: one vertex buffer is both source and destination
    edges = repeated_dst_edges(14, seed=5)
    for workers in (1, 3):
        assert_matches_block_scan(edges, n=14, k=4, workers=workers,
                                  by_rows=by_rows, same_buffer=True,
                                  granularity=CACHELINE)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20), st.integers(1, 5), st.data())
def test_column_scan_matches_block_scan_drawn(n, k, data):
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=40))
    assert_matches_block_scan(
        edges, n=n, k=k,
        workers=data.draw(st.integers(1, 3)),
        by_rows=data.draw(st.booleans()),
        same_buffer=data.draw(st.booleans()),
        granularity=data.draw(st.sampled_from([ELEMENT, CACHELINE])),
        seed=data.draw(st.integers(0, 2 ** 32 - 1)))


# -- kernel contract: the scan's inputs stay as they were ------------------------

APP_KERNELS = {
    "degree": (apps._degree_kernel, apps.DEGREE_STATE),
    **{app: (program.kernel, program.state_dtype) for app, program in apps.APPS.items()},
}


def app_state(dtype, n, rng):
    state = np.zeros(n, dtype=dtype)
    for name in dtype.names:
        state[name] = rng.integers(1, 50, size=n)
    return state


@pytest.mark.parametrize("by_rows", [False, True])
@pytest.mark.parametrize("app", sorted(APP_KERNELS))
def test_app_kernels_leave_scan_inputs_unchanged(app, by_rows):
    # The degree kernel writes its source side, which full_scan does not own:
    # it must land in a private copy, never in the caller's array.
    kernel, dtype = APP_KERNELS[app]
    rng = np.random.default_rng(11)
    n, k = 13, 4
    params = PublicParams.derive(p=1, n_i=[n], n=n, t=1,
                                 s=2 * k * 16 + RESERVE_BYTES, vwidth=16)
    assert params.b == 4
    edges = [(int(u), int(v)) for u, v in rng.integers(0, n, size=(60, 2))]
    grid = build_grid(edges, params.with_block_lengths([60]))
    sim = OMSim(params.s)
    src = sim.buffer_from_rows("vsrc", app_state(dtype, n, rng))
    dst = sim.buffer_from_rows("vdst", app_state(dtype, n, rng))
    before = src.data.tobytes(), dst.data.tobytes()
    scan = full_scan_rows if by_rows else full_scan
    with np.errstate(divide="ignore", invalid="ignore"):
        scan(grid, src, dst, kernel, sim, workers=2)
    assert (src.data.tobytes(), dst.data.tobytes()) == before


# -- one kernel call per scan, over the grid's cached line orders -----------------

def short_chunk_grid():
    """n=11, k=3: b=4 with a short last chunk, repeated destinations."""
    params = PublicParams.derive(p=1, n_i=[11], n=11, t=1,
                                 s=2 * 3 * 8 + RESERVE_BYTES, vwidth=8)
    assert (params.k, params.b) == (3, 4)
    edges = repeated_dst_edges(11, seed=9)
    return build_grid(edges, params.with_block_lengths([len(edges)]))


def test_grid_line_orders_concatenate_block_edges():
    grid = short_chunk_grid()
    b = grid.params.b
    stored = grid.edges.reshape(b, b, grid.params.l)

    def concat(coords):
        blocks = [stored[r, c] for r, c in coords]
        real = [blk[blk["pad"] == 0] for blk in blocks]
        return [np.concatenate([e[side] for e in real]).astype(np.int64)
                for side in ("src", "dst")]

    by_column = concat((r, c) for c in range(b) for r in range(b))
    by_row = concat((r, c) for r in range(b) for c in range(b))
    for order, want in ((grid.column_order, by_column), (grid.row_order, by_row)):
        assert [side.dtype for side in order] == [np.int64, np.int64]
        assert [side.tolist() for side in order] == [side.tolist() for side in want]
        assert not any(side.flags.writeable for side in order)
    assert grid.column_order is grid.column_order  # computed once
    assert grid.row_order is grid.row_order
    assert [side.tolist() for side in grid.row_order] == \
        [side.tolist() for side in by_row]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("by_rows", [False, True])
def test_one_kernel_call_per_scan_at_global_offsets(by_rows, workers):
    grid = short_chunk_grid()
    n = grid.params.n
    sim = OMSim(grid.params.s)
    src = sim.buffer_from_rows("vsrc", np.arange(n, dtype=np.float64).view(VAL))
    dst = sim.buffer_from_rows("vdst", np.zeros(n, dtype=VAL))
    calls = []

    def counting_kernel(src_side, dst_side, soff, doff):
        calls.append((len(src_side), len(dst_side), soff.tolist(), doff.tolist()))
        (pull_kernel if by_rows else mixed_add_kernel)(src_side, dst_side, soff, doff)

    scan = full_scan_rows if by_rows else full_scan
    out = scan(grid, src, dst, counting_kernel, sim, workers=workers)
    order = grid.row_order if by_rows else grid.column_order
    assert calls == [(n, n, order[0].tolist(), order[1].tolist())]
    if by_rows:
        want = src.data["v"].copy()
        np.add.at(want, order[0], dst.data["v"][order[1]] + 0.1)
    else:
        want = dst.data["v"].copy()
        np.add.at(want, order[1], src.data["v"][order[0]] * 0.7)
    assert out.data["v"].tobytes() == want.tobytes()


@pytest.mark.parametrize("by_rows", [False, True])
def test_idle_workers_peak_zero(by_rows):
    # b=4 lines over 6 workers: workers 4 and 5 own nothing and allocate nothing
    edges = repeated_dst_edges(11, seed=2)
    assert_matches_block_scan(edges, n=11, k=3, workers=6, by_rows=by_rows,
                              same_buffer=False, granularity=ELEMENT)
    params = micro_params()
    sim = OMSim(params.s)
    grid = build_grid([(0, 3), (1, 0)], params)
    src = sim.buffer_from_rows("vsrc", np.ones(4, dtype=VAL))
    dst = sim.buffer_from_rows("vdst", np.zeros(4, dtype=VAL))
    scan = full_scan_rows if by_rows else full_scan
    scan(grid, src, dst, add_kernel, sim, workers=5)
    busy = 2 * params.k * params.vwidth + RESERVE_BYTES
    assert sim.last_scan_peaks == [busy, busy, 0, 0, 0]


@pytest.mark.parametrize("workers", [0, -1])
@pytest.mark.parametrize("scan", [full_scan, full_scan_rows])
def test_scan_rejects_fewer_than_one_worker(scan, workers):
    params = micro_params()
    sim = OMSim(params.s)
    grid = build_grid([(0, 1)], params)
    src = sim.buffer_from_rows("vsrc", np.ones(4, dtype=VAL))
    dst = sim.buffer_from_rows("vdst", np.zeros(4, dtype=VAL))
    with pytest.raises(UsageError):
        scan(grid, src, dst, add_kernel, sim, workers=workers)


@pytest.mark.parametrize("n", [200, 202])
@pytest.mark.parametrize("by_rows", [False, True])
def test_traced_scan_records_o_of_b_records(n, by_rows):
    # Per line: the chunk read, one repeated record over the full chunks,
    # a short last pair as two records, the write-back.
    k = 4
    params = PublicParams.derive(p=1, n_i=[n], n=n, t=1,
                                 s=2 * k * 8 + RESERVE_BYTES, vwidth=8)
    b = params.b
    edges = [(u, (7 * u + 3) % n) for u in range(n)]
    grid = build_grid(edges, params.with_block_lengths([2]))
    sim = OMSim(params.s)
    vals = sim.buffer_from_rows("v", np.zeros(n, dtype=VAL))
    before = sum(sim.trace.mark().values())
    scan = full_scan_rows if by_rows else full_scan
    scan(grid, vals, vals, add_kernel, sim, workers=2)
    per_line = 3 if n % k == 0 else 5
    assert sum(sim.trace.mark().values()) - before == per_line * b


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("by_rows", [False, True])
def test_untraced_scan_makes_no_recording_calls(by_rows, workers):
    # Same output and OM peaks as a traced scan, and not one recording call.
    grid = short_chunk_grid()
    n = grid.params.n
    scan = full_scan_rows if by_rows else full_scan
    kernel = pull_kernel if by_rows else mixed_add_kernel
    rng = np.random.default_rng(workers)
    init = np.zeros(n, dtype=VAL)
    init["v"] = mixed_values(rng, n)
    runs = []
    for enabled in (True, False):
        sim = OMSim(grid.params.s, enabled=enabled)
        src = sim.buffer_from_rows("vsrc", init)
        dst = sim.buffer_from_rows("vdst", init[::-1].copy())
        calls = []  # every recording call is a `repeat`
        record = sim.trace.repeat
        sim.trace.repeat = lambda *args: (calls.append(args), record(*args))
        out = scan(grid, src, dst, kernel, sim, workers=workers)
        runs.append((out.data.tobytes(), sim.last_scan_peaks, calls,
                     sum(sim.trace.mark().values())))
    (traced, traced_peaks, traced_calls, traced_records), \
        (untraced, untraced_peaks, untraced_calls, untraced_records) = runs
    assert traced_calls and traced_records
    assert untraced == traced
    assert untraced_peaks == traced_peaks
    assert untraced_calls == [] and untraced_records == 0
