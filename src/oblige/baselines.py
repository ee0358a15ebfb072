"""Comparison engines: the sort-scan oblivious baseline and a plain reference.

The sort-scan baseline ports the classic approach of interleaving oblivious
sorts with linear scans over a combined vertex+edge element list.  One
iteration is: sort so each vertex precedes its out-edges, scan forward
carrying the vertex payload onto the edges, sort so each vertex follows its
in-edges, scan folding the edge messages into the vertex.  All passes are
built from the oblivious routines, so the per-iteration trace depends only
on (n, m) and the record width; the element count n+m is treated as public
here, unlike the grid engine where only the padded block total is.

The reference engine is a non-oblivious adjacency engine with the same
truncated-iteration semantics.  It exists purely as a correctness and
performance oracle; nothing about it is access-pattern safe.
"""

import numpy as np

from .apps import APPS, INF
from .omsim import copy_records
from .oprims import o_filter, o_sort, o_trans, o_trans_merge

SS_PR = np.dtype([
    ("kind", "u1"), ("a", "<u8"), ("b", "<u8"),
    ("wgt", "<f8"), ("deg", "<u8"), ("msg", "<f8"),
])
SS_U64 = np.dtype([
    ("kind", "u1"), ("a", "<u8"), ("b", "<u8"),
    ("val", "<u8"), ("msg", "<u8"),
])

VERTEX, EDGE = 0, 1


def _scatter_key(batch):
    # Vertices first within their ID group: (active id, kind).
    return batch["a"], batch["kind"]


def _gather_key(batch):
    # Edges (keyed by destination) first, their vertex last.
    key = np.where(batch["kind"] == EDGE, batch["b"], batch["a"])
    return key, np.uint8(1) - batch["kind"]


def _group_ids(keys):
    change = np.ones(len(keys), dtype=bool)
    change[1:] = keys[1:] != keys[:-1]
    return np.cumsum(change) - 1


def build_elements(sim, init_vals, edges, dtype, vertex_fill, out_name="ss.elems"):
    """Merge the vertex init buffer and the edge buffer into one element list."""
    def fn(batch, i):
        out = np.zeros(len(batch), dtype=dtype)
        if i == 0:
            out["kind"] = VERTEX
            out["a"] = np.arange(len(batch), dtype=np.uint64)
            out["b"] = out["a"]
            vertex_fill(out, batch)
        else:
            out["kind"] = EDGE
            out["a"] = batch["src"]
            out["b"] = batch["dst"]
        return out

    return o_trans_merge([init_vals, edges], fn, out_name)


class SortScanKernel:
    """Per-application scatter/gather folds for one sort-scan iteration."""

    def __init__(self, app, f=0.85):
        self.app = app
        self.f = f
        self.dtype = SS_PR if app == "pr" else SS_U64

    def scatter(self, batch):
        out = copy_records(batch)
        is_vertex = batch["kind"] == VERTEX
        last_vertex = np.maximum.accumulate(
            np.where(is_vertex, np.arange(len(batch)), -1)
        )
        if self.app == "pr":
            src = last_vertex  # every edge's source vertex precedes it
            msg = np.zeros(len(batch))
            edges = ~is_vertex
            msg[edges] = batch["wgt"][src[edges]] / batch["deg"][src[edges]]
            out["msg"] = msg
        else:
            v = batch["val"][last_vertex]
            if self.app == "bfs":
                out["msg"] = np.where(v == INF, INF, v + np.uint64(1))
            else:
                out["msg"] = v
        return out

    def gather(self, batch):
        out = copy_records(batch)
        gid = _group_ids(np.where(batch["kind"] == EDGE, batch["b"], batch["a"]))
        groups = int(gid[-1]) + 1 if len(gid) else 0
        edges = batch["kind"] == EDGE
        verts = ~edges
        if self.app == "pr":
            acc = np.bincount(gid[edges], weights=batch["msg"][edges],
                              minlength=groups)
            out["wgt"][verts] = (1.0 - self.f) + self.f * acc[gid[verts]]
            out["msg"] = 0.0
        else:
            best = np.full(groups, INF, dtype=np.uint64)
            np.minimum.at(best, gid[edges], batch["msg"][edges])
            out["val"][verts] = np.minimum(batch["val"][verts], best[gid[verts]])
            out["msg"] = 0
        return out

    def count_degrees(self, batch):
        # Called after sorting by (a, 1-kind): groups are source-vertex IDs.
        gid = _group_ids(batch["a"])
        groups = int(gid[-1]) + 1 if len(gid) else 0
        edges = batch["kind"] == EDGE
        out = copy_records(batch)
        counts = np.bincount(gid[edges], minlength=groups)
        verts = ~edges
        out["deg"][verts] = counts[gid[verts]]
        return out


def sortscan_iteration(elems, kernel, arena, sim=None, worker=0):
    """One baseline iteration: scatter sort+scan, then gather sort+scan."""
    stats = o_sort(elems, _scatter_key, arena, worker=worker)
    if sim is not None:
        sim.osort_log.append(stats)
    elems = o_trans(elems, kernel.scatter, worker=worker)
    stats = o_sort(elems, _gather_key, arena, worker=worker)
    if sim is not None:
        sim.osort_log.append(stats)
    return o_trans(elems, kernel.gather, worker=worker)


def sortscan_run(sim, n, edges_buf, app, t, f=0.85, init_bits=None):
    """Run an application on the sort-scan engine.

    `edges_buf` holds (src, dst) mapped pairs; `init_bits` (a u64 buffer)
    seeds the vertex values for bfs.  Returns a buffer of per-vertex result
    bits in mapped-ID order.
    """
    spec = APPS[app]
    kernel = SortScanKernel(app, f=f)
    arena = sim.new_arena()

    if app == "pr":
        def vertex_fill(out, batch):
            out["wgt"] = 1.0
    elif app == "bfs":
        def vertex_fill(out, batch):
            out["val"] = batch["dist"]
    else:
        def vertex_fill(out, batch):
            out["val"] = np.arange(len(batch), dtype=np.uint64)

    if init_bits is None:
        seed = sim.buffer_from_rows(
            "ss.init", np.zeros(n, dtype=[("dist", "<u8")]))
    else:
        seed = init_bits
    elems = build_elements(sim, seed, edges_buf, kernel.dtype, vertex_fill)

    if app == "pr":
        # Degree pre-pass: one sort grouping edges by source, one count scan.
        stats = o_sort(elems, _gather_by_source_key, arena)
        sim.osort_log.append(stats)
        elems = o_trans(elems, kernel.count_degrees)

    for _ in range(t):
        elems = sortscan_iteration(elems, kernel, arena, sim=sim)

    verts = o_filter(elems, lambda b: (b["kind"] == VERTEX).astype(np.int64),
                     n, "ss.verts", arena)
    stats = o_sort(verts, lambda b: b["a"], arena)
    sim.osort_log.append(stats)

    field = "wgt" if app == "pr" else "val"

    def extract(batch):
        out = np.zeros(len(batch), dtype=[("result", "<u8")])
        col = batch[field]
        out["result"] = col.view("<u8") if spec.result_kind == "f64" else col
        return out

    return o_trans(verts, extract, out_name="ss.result")


def _gather_by_source_key(batch):
    # Out-edges first, their source vertex last (for degree counting).
    return batch["a"], np.uint8(1) - batch["kind"]


# -- non-oblivious reference oracle ------------------------------------------

def reference_run(app, n, src, dst, t, f=0.85, source=None):
    """Adjacency-style engine with the same t-round semantics, no obliviousness.

    BFS/WCC rounds are Jacobi relaxations, so results match the scan engine
    exactly; PR sums in a different order, so comparisons use a relative
    tolerance.  For wcc the caller passes already-symmetrized edges.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if app == "pr":
        deg = np.bincount(src, minlength=n).astype(np.float64)
        w = np.ones(n)
        for _ in range(t):
            acc = np.zeros(n)
            np.add.at(acc, dst, w[src] / deg[src])
            w = (1.0 - f) + f * acc
        return w
    if app == "bfs":
        d = np.full(n, INF, dtype=np.uint64)
        d[source] = 0
        for _ in range(t):
            hop = np.where(d[src] == INF, INF, d[src] + np.uint64(1))
            nd = d.copy()
            np.minimum.at(nd, dst, hop)
            d = nd
        return d
    if app == "wcc":
        lab = np.arange(n, dtype=np.uint64)
        for _ in range(t):
            nl = lab.copy()
            np.minimum.at(nl, dst, lab[src])
            lab = nl
        return lab
    raise ValueError("unknown application %r" % app)
