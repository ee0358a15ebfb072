"""Oblivious full-graph scan over the grid storage.

The scan walks the grid column by column (one destination chunk at a time).
For each column it loads the destination vertex chunk into OM, then for each
of the b blocks in that column loads the source chunk and reads the block's
entire fixed-length edge list, padding included; finally the destination
chunk is written back whether or not it changed.  The observable pattern is
therefore a pure function of (b, k, l, record widths, worker assignment).

The trace is recorded line by line in exactly that order: the owned chunk's
read, then per block the other chunk and the block's l slots, then the
owned chunk's write-back.  The chunk read and write-back are two
``trace.seq`` records on the owned input's region; the lines copy no data,
and the output buffer, which takes the owned input's name, is one raw-byte
copy of it made once per scan (the owned chunks are disjoint and cover it).
A line's blocks over full chunks are one ``trace.repeat`` record, since
from block to block the other chunk rises by k and the block by b*l (a
column) or l (a row); a short last chunk and its block are two
``trace.seq`` records.  A traced scan thus records O(b) records and does
O(b) Python work; an untraced one skips the recording calls, and keeps only
the per-worker arena allocations and the budget check.
The kernel then runs once per scan, over every real edge in the order the
lines visit them: the grid's cached `column_order` (columns 0..b-1, block
rows 0..b-1 within a column, stored order within a block), or `row_order`
for `full_scan_rows`.  Each scan, kernel call included, is one trace
window named after its function (`AccessTrace.window`).

Kernel contract: ``kernel(src, dst, src_off, dst_off)`` is vectorized and
called once per scan.  Both vertex sides are whole arrays indexed by global
vertex offsets.  The side the scan direction owns (the destination for
`full_scan`, the source for `full_scan_rows`) is the output buffer's data,
and the kernel folds into it.  The other side is one private copy per scan
of the other input; the kernel only reads it (a kernel that writes it
changes nothing the caller sees), and may read it at every vertex, not only
at endpoints of real edges: each line reads every chunk of the other side,
so the recorded per-block chunk reads cover all n vertices, and the
null-edge check and all value-dependent work stay invisible.  No input
array is written during a scan.  The offset arrays are read-only.  Every
owned vertex belongs to one line, and repeated indices are applied in
order, so each vertex folds the same messages in the same order as a
block-at-a-time scan: float accumulation is bit-identical to it and
reproducible run to run.

Lines are assigned to workers statically and cyclically (column c goes to
worker c mod W); each worker that owns a line holds the reserve and two
vertex chunks in a private OM arena of the full capacity (an idle worker's
peak stays 0), and per-worker traces are independent, so the parallel scan
is as oblivious as the serial one.
"""

from .errors import CapacityExceeded, UsageError
from .grid import GRID_REGION, RESERVE_BYTES
from .omsim import READ, WRITE, Buffer, copy_records


def _check_vertex_width(params, *bufs):
    for buf in bufs:
        if buf.data.dtype.itemsize > params.vwidth:
            raise CapacityExceeded(
                "vertex records of %d bytes exceed the budgeted width %d"
                % (buf.data.dtype.itemsize, params.vwidth)
            )


def _scan(grid, src_vals, dst_vals, kernel, sim, workers, by_rows):
    if workers < 1:
        raise UsageError("a scan needs at least one worker, not %r" % (workers,))
    params = grid.params
    k, b, l, n = params.k, params.b, params.l, params.n
    _check_vertex_width(params, src_vals, dst_vals)

    owned_vals, other_vals = (src_vals, dst_vals) if by_rows else (dst_vals, src_vals)
    trace = sim.trace
    trace.register(GRID_REGION, len(grid.edges), grid.edges.dtype.itemsize)
    out = Buffer(trace, owned_vals.name, copy_records(owned_vals.data))
    # The kernels' private copy: a read-only view would not do, since
    # ufunc.at writes through it.
    other = copy_records(other_vals.data)

    full = n // k  # whole other chunks per line; a short last one is recorded apart
    rise = l if by_rows else b * l
    peaks = []
    for w in range(workers):
        arena = sim.new_arena()
        lines = range(w, b, workers)
        held = [arena.alloc(RESERVE_BYTES), arena.alloc(k * params.vwidth),
                arena.alloc(k * params.vwidth)] if lines else []
        # Recording only: the data moves once per scan.
        for outer in lines if trace.enabled else ():
            lo = outer * k
            size = min(k, n - lo)
            first = outer * b * l if by_rows else outer * l
            trace.seq(w, owned_vals.name, READ, lo, size)
            trace.repeat(w, [(other_vals.name, READ, 0, k, k),
                             (GRID_REGION, READ, first, l, rise)], full)
            for inner in range(full, b):
                trace.seq(w, other_vals.name, READ, inner * k, n - inner * k)
                trace.seq(w, GRID_REGION, READ, first + inner * rise, l)
            # Unconditional write-back, changed or not; the kernel folds into
            # the written chunks once every line is done.
            trace.seq(w, out.name, WRITE, lo, size)
        for handle in reversed(held):
            arena.free(handle)
        peaks.append(arena.peak)
    sim.last_scan_peaks = peaks

    # One kernel call over every real edge, in the order the lines visit them.
    if by_rows:
        kernel(out.data, other, *grid.row_order)
    else:
        kernel(other, out.data, *grid.column_order)
    return out


def full_scan(grid, src_vals, dst_vals, kernel, sim, workers=1):
    """Column-major scan folding every in-edge into the destination chunks.

    Returns a new vertex buffer named after `dst_vals`, whose region its
    write-backs cover; no input buffer is modified.  Sources are visited in
    block row order 0..b-1 and, within a block, in stored order.
    """
    with sim.trace.window("full_scan"):
        return _scan(grid, src_vals, dst_vals, kernel, sim, workers, by_rows=False)


def full_scan_rows(grid, src_vals, dst_vals, kernel, sim, workers=1):
    """Row-major variant that owns and writes back the source chunks.

    Mirrors `full_scan` with the chunk roles swapped, so the output is named
    after `src_vals`; used to accumulate per-source quantities such as
    out-degrees under the same trace shape argument.
    """
    with sim.trace.window("full_scan_rows"):
        return _scan(grid, src_vals, dst_vals, kernel, sim, workers, by_rows=True)
