"""Comparison engines: the sort-scan oblivious baseline and a plain reference.

Both run the vertex programs of `oblige.apps`.  The sort-scan baseline ports
the classic approach of interleaving oblivious sorts with linear scans over
a combined vertex+edge element list.  One iteration is: sort so each vertex
precedes its out-edges, scan forward computing each edge's `message` from
the vertex before it, sort so each vertex follows its in-edges, scan folding
the messages into the vertex with `combine.at` over the vertex groups.  An
element is (kind, a, b), the program's state fields and a message of the
state's value type: 41 bytes for PR, 33 for BFS and WCC.  All passes are
built from the oblivious routines, so the per-iteration trace depends only
on (n, m) and the record width; the element count n+m is treated as public
here, unlike the grid engine where only the padded block total is.

The reference engine is a non-oblivious adjacency engine with the same
truncated-iteration semantics, folding with `combine.at` over whole arrays.
It exists purely as a correctness and performance oracle; nothing about it
is access-pattern safe.
"""

import numpy as np

from .apps import bfs_initial_dist
from .omsim import Buffer, copy_records, with_fields
from .oprims import group_ids, o_filter, o_sort, o_trans, o_trans_merge

VERTEX, EDGE = 0, 1


def _scatter_key(batch):
    # Vertices first within their ID group: (active id, kind).
    return batch["a"], batch["kind"]


def _gather_key(batch):
    # Edges (keyed by destination) first, their vertex last.
    key = np.where(batch["kind"] == EDGE, batch["b"], batch["a"])
    return key, np.uint8(1) - batch["kind"]


def _gather_by_source_key(batch):
    # Out-edges first, their source vertex last (for degree counting).
    return batch["a"], np.uint8(1) - batch["kind"]


def build_elements(init_vals, edges, kernel):
    """Merge the vertex init buffer and the edge buffer into the element list "ss.elems".

    `init_vals` holds the program's `field` for every vertex in mapped-ID
    order; `edges` holds (src, dst) pairs.
    """
    def element(batch, i):
        if i == 0:
            ids = np.arange(len(batch), dtype=np.uint64)
            return with_fields(batch, kernel.dtype, kind=VERTEX, a=ids, b=ids)
        return with_fields(batch, kernel.dtype, kind=EDGE, a=batch["src"], b=batch["dst"])

    return o_trans_merge([init_vals, edges], element, "ss.elems")


class SortScanKernel:
    """A vertex program's scatter and gather folds for one sort-scan iteration."""

    def __init__(self, program):
        self.program = program
        state = program.state_dtype
        self.dtype = np.dtype(
            [("kind", "u1"), ("a", "<u8"), ("b", "<u8")]
            + [(name, state[name]) for name in state.names]
            + [("msg", program.value)])

    def scatter(self, batch):
        # Sorted by (a, kind): every edge's source vertex is the last vertex
        # before it.
        out = copy_records(batch)
        edges = batch["kind"] == EDGE
        src = np.maximum.accumulate(np.where(edges, -1, np.arange(len(batch))))
        out["msg"] = 0
        out["msg"][edges] = self.program.message(batch, src[edges])
        return out

    def gather(self, batch):
        # Sorted by (destination, 1 - kind): each vertex ends its group, and
        # every group holds exactly one vertex, so groups count vertices.
        field = self.program.field
        out = copy_records(batch)
        edges = batch["kind"] == EDGE
        verts = ~edges
        gid = group_ids(np.where(edges, batch["b"], batch["a"]))
        out[field][verts] = self.program.fold(
            batch[field][verts], gid[edges], batch["msg"][edges])
        out["msg"] = 0
        return out

    def count_degrees(self, batch):
        # Called after sorting by (a, 1-kind): groups are source-vertex IDs.
        gid = group_ids(batch["a"])
        groups = int(gid[-1]) + 1 if len(gid) else 0
        edges = batch["kind"] == EDGE
        out = copy_records(batch)
        counts = np.bincount(gid[edges], minlength=groups)
        verts = ~edges
        out["degree"][verts] = counts[gid[verts]]
        return out


def sortscan_iteration(elems, kernel, arena, sim):
    """One baseline iteration: scatter sort+scan, then gather sort+scan."""
    sim.osort_log.append(o_sort(elems, _scatter_key, arena))
    elems = o_trans(elems, kernel.scatter)
    sim.osort_log.append(o_sort(elems, _gather_key, arena))
    return o_trans(elems, kernel.gather)


def sortscan_run(sim, n, edges_buf, program, t, init_bits=None):
    """Run a vertex program on the sort-scan engine.

    `edges_buf` holds (src, dst) mapped pairs; `init_bits` (a buffer with
    the program's `field`) seeds the vertex values, which otherwise start at
    the program's `init` in a fresh "ss.init" buffer.  Returns a buffer of
    per-vertex result bits in mapped-ID order.
    """
    kernel = SortScanKernel(program)
    arena = sim.new_arena()

    if init_bits is None:
        rows = np.zeros(n, dtype=[(program.field, program.value)])
        rows[program.field] = program.init(n)
        init_bits = sim.buffer_from_rows("ss.init", rows)
    elems = build_elements(init_bits, edges_buf, kernel)

    if program.needs_degrees:
        # Degree pre-pass: one sort grouping edges by source, one count scan.
        sim.osort_log.append(o_sort(elems, _gather_by_source_key, arena))
        elems = o_trans(elems, kernel.count_degrees)

    for _ in range(t):
        elems = sortscan_iteration(elems, kernel, arena, sim)

    verts = o_filter(elems, lambda b: (b["kind"] == VERTEX).astype(np.int64),
                     n, "ss.verts", arena)
    sim.osort_log.append(o_sort(verts, lambda b: b["a"], arena))
    return o_trans(verts, lambda b: with_fields(b, [("result", "<u8")],
                                                result=program.result_bits(b)),
                   out_name="ss.result")


def sortscan_on_grid(sim, grid, global_map, program, t, source_id=None):
    """The sort-scan engine on a merged grid; returns its result-bits buffer.

    The grid's edge slots are copied out ("ss.gridedges") and obliviously
    filtered down to the grid's m real edges ("ss.edges"); a program that
    needs a source is seeded by `bfs_initial_dist` over the global map.
    """
    ecopy = o_trans(Buffer(sim.trace, grid.region_name, grid.edges),
                    lambda b: b, out_name="ss.gridedges")
    edges = o_filter(ecopy, lambda b: (b["pad"] == 0).astype(np.int64),
                     grid.m, "ss.edges", sim.new_arena())
    init = None
    if program.needs_source:
        init = bfs_initial_dist(global_map, source_id)
    return sortscan_run(sim, grid.params.n, edges, program, t, init_bits=init)


# -- non-oblivious reference oracle ------------------------------------------

def reference_run(program, n, src, dst, t, source=None):
    """Adjacency-style engine with the same t-round semantics, no obliviousness.

    BFS/WCC rounds are Jacobi relaxations, so results match the scan engine
    exactly; PR sums in a different order, so comparisons use a relative
    tolerance.  For wcc the caller passes already-symmetrized edges.
    Returns the final values of the program's `field`.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    state = program.initial(n)
    if program.needs_source:
        state[program.field][source] = 0
    if program.needs_degrees:
        state["degree"] = np.bincount(src, minlength=n)
    for _ in range(t):
        new = copy_records(state)
        new[program.field] = program.fold(
            state[program.field], dst, program.message(state, src))
        state = new
    return np.ascontiguousarray(state[program.field])
