"""Oblivious full-graph scan over the grid storage.

The scan walks the grid column by column (one destination chunk at a time).
For each column it loads the destination vertex chunk into OM, then for each
of the b blocks in that column loads the source chunk and reads the block's
entire fixed-length edge list, padding included; finally the destination
chunk is written back whether or not it changed.  The observable pattern is
therefore a pure function of (b, k, l, record widths, worker assignment).

The trace is recorded block by block in exactly that order (other chunk,
then the block's l slots), but the simulator moves the data once per column:
the kernel is called once with the real edges of the whole column (block
rows 0..b-1, stored order within each block), so a scan makes b kernel calls
and b edge gathers rather than b^2.  The per-block reads are recorded with
``trace.seq`` and copy nothing.

Kernel contract: ``kernel(src, dst, src_off, dst_off)`` is vectorized and
called once per column (per row for `full_scan_rows`).  The side the scan
direction owns (the destination chunk for `full_scan`, the source chunk for
`full_scan_rows`) is its OM-resident chunk with chunk-relative offsets, and
the kernel mutates it.  The other side is the whole vertex array with global
offsets; the kernel only reads it, and only at endpoints of this column's
edges, whose chunks the recorded per-block reads cover, so the null-edge
check and all value-dependent work stay invisible.  No input array is
written during a scan: the other side is handed over as one private copy
per scan (a kernel that writes it changes nothing the caller sees), and
write-back goes to a fresh output buffer.  Repeated
indices are applied in stored order, so float accumulation is bit-identical
to a block-at-a-time scan and reproducible run to run.

Columns are assigned to workers statically and cyclically (column c goes to
worker c mod W); each worker gets a private OM arena of the full capacity,
and per-worker traces are independent, so the parallel scan is as oblivious
as the serial one.
"""

import numpy as np

from .errors import CapacityExceeded
from .grid import RESERVE_BYTES
from .omsim import READ, Buffer


def _check_vertex_width(params, *bufs):
    for buf in bufs:
        if buf.data.dtype.itemsize > params.vwidth:
            raise CapacityExceeded(
                "vertex records of %d bytes exceed the budgeted width %d"
                % (buf.data.dtype.itemsize, params.vwidth)
            )


def _scan(grid, src_vals, dst_vals, kernel, sim, workers, out_name, by_rows):
    params = grid.params
    k, b, l, n = params.k, params.b, params.l, params.n
    _check_vertex_width(params, src_vals, dst_vals)

    owned_vals, other_vals = (src_vals, dst_vals) if by_rows else (dst_vals, src_vals)
    if out_name is None:
        out_name = owned_vals.name
    trace = sim.trace
    trace.register(grid.region_name, len(grid.edges), grid.edges.dtype.itemsize)
    out = Buffer.wrap(trace, out_name, np.empty_like(owned_vals.data))
    blocks = grid.edges.reshape(b, b, l)
    # The kernels' private copy: a read-only view would not do, since
    # ufunc.at writes through it.  Copied as bytes, which is many times
    # faster than a field-by-field structured copy.
    other = other_vals.data.view(np.uint8).copy().view(other_vals.data.dtype)

    peaks = []
    for w in range(workers):
        arena = sim.new_arena()
        for outer in range(w, b, workers):
            reserve = arena.alloc(RESERVE_BYTES)
            owned_om = arena.alloc(k * params.vwidth)
            other_om = arena.alloc(k * params.vwidth)
            lo = outer * k
            hi = min(lo + k, n)
            owned = owned_vals.read(lo, hi, worker=w)
            for inner in range(b):
                ilo = inner * k
                trace.seq(w, other_vals.name, READ, ilo, min(ilo + k, n) - ilo)
                base = ((outer * b + inner) if by_rows else (inner * b + outer)) * l
                trace.seq(w, grid.region_name, READ, base, l)
            # One kernel call over the real edges of blocks 0..b-1 of the line.
            line = blocks[outer] if by_rows else blocks[:, outer]
            real = line[line["pad"] == 0]
            src = real["src"].astype(np.int64)
            dst = real["dst"].astype(np.int64)
            if by_rows:
                kernel(owned, other, src - lo, dst)
            else:
                kernel(other, owned, src, dst - lo)
            # Unconditional write-back, changed or not.
            out.write(lo, owned, worker=w)
            arena.free(other_om)
            arena.free(owned_om)
            arena.free(reserve)
        peaks.append(arena.peak)
    sim.last_scan_peaks = peaks
    return out


def full_scan(grid, src_vals, dst_vals, kernel, sim, workers=1, out_name=None):
    """Column-major scan folding every in-edge into the destination chunks.

    Returns a new vertex buffer (named after `dst_vals` unless `out_name`
    says otherwise); `src_vals` is never modified.  Sources are visited in
    block row order 0..b-1 and, within a block, in stored order.
    """
    return _scan(grid, src_vals, dst_vals, kernel, sim, workers, out_name,
                 by_rows=False)


def full_scan_rows(grid, src_vals, dst_vals, kernel, sim, workers=1, out_name=None):
    """Row-major variant that owns and writes back the source chunks.

    Mirrors `full_scan` with the chunk roles swapped; used to accumulate
    per-source quantities such as out-degrees under the same trace shape
    argument.
    """
    return _scan(grid, src_vals, dst_vals, kernel, sim, workers, out_name,
                 by_rows=True)
