"""Graph analytics applications expressed as edge kernels over full scans.

Every application runs a fixed number of iterations with no convergence
detection, frontier tracking or early exit: any of those would make the
iteration count or per-iteration work depend on secret data.  Per-iteration
region names are stable, so the trace of one iteration is identical to the
trace of any other (and to the same iteration on different secret inputs).

Value conventions:

* PageRank state is (weight: f64, degree: u64); weights start at 1 and fold
  as w = (1-f) + f * sum(w_prev(u) / d(u)) over in-edges.  Vertices with no
  out-edges simply contribute nothing (the division only happens on edges
  that exist), so total weight may shrink on graphs with dangling vertices.
* BFS distance and WCC label are u64 with INF = 2^64-1 as the unreachable
  sentinel; min() with +1 saturates at INF.
"""

import numpy as np

from .errors import SymmetryRequired, UnknownSource
from .omsim import copy_records
from .oprims import o_trans
from .scan import full_scan, full_scan_rows

PR_STATE = np.dtype([("weight", "<f8"), ("degree", "<u8")])
DEGREE_STATE = np.dtype([("degree", "<u8")])
DIST_STATE = np.dtype([("dist", "<u8")])
LABEL_STATE = np.dtype([("label", "<u8")])

INF = np.uint64(np.iinfo(np.uint64).max)


# -- kernels (touch only the OM-resident chunks) ----------------------------

def _degree_kernel(src_chunk, dst_chunk, soff, doff):
    np.add.at(src_chunk["degree"], soff, 1)


def _pr_kernel(src_chunk, dst_chunk, soff, doff):
    # degree >= 1 whenever an out-edge of that vertex exists
    contrib = src_chunk["weight"][soff] / src_chunk["degree"][soff]
    np.add.at(dst_chunk["weight"], doff, contrib)


def _bfs_kernel(src_chunk, dst_chunk, soff, doff):
    d = src_chunk["dist"][soff]
    hop = np.where(d == INF, INF, d + np.uint64(1))
    np.minimum.at(dst_chunk["dist"], doff, hop)


def _wcc_kernel(src_chunk, dst_chunk, soff, doff):
    np.minimum.at(dst_chunk["label"], doff, src_chunk["label"][soff])


# -- out-degrees -------------------------------------------------------------

def compute_out_degrees(sim, grid, workers=1):
    """Out-degree of every vertex via a row-major scan with a count kernel."""
    n = grid.params.n
    deg = sim.buffer_from_rows("degrees", np.zeros(n, dtype=DEGREE_STATE))
    aux = sim.buffer_from_rows("degrees.dst", np.zeros(n, dtype=DEGREE_STATE))
    return full_scan_rows(grid, deg, aux, _degree_kernel, sim, workers=workers,
                          out_name="degrees")


# -- PageRank ----------------------------------------------------------------

def pagerank_iteration(sim, grid, state, f=0.85, workers=1):
    """One PR round: zeroed accumulation scan, then the damping transform."""
    def zero_weight(batch):
        out = copy_records(batch)
        out["weight"] = 0.0
        return out

    acc = o_trans(state, zero_weight, out_name="pr.acc")
    acc = full_scan(grid, state, acc, _pr_kernel, sim, workers=workers)

    def finalize(batch):
        out = copy_records(batch)
        out["weight"] = (1.0 - f) + f * batch["weight"]
        return out

    return o_trans(acc, finalize, out_name="pr.state")


def pagerank(sim, grid, t, f=0.85, workers=1):
    """t full PR rounds; returns the final (weight, degree) state buffer."""
    degrees = compute_out_degrees(sim, grid, workers=workers)

    def seed(batch):
        out = np.ones(len(batch), dtype=PR_STATE)
        out["degree"] = batch["degree"]
        return out

    state = o_trans(degrees, seed, out_name="pr.state")
    for _ in range(t):
        state = pagerank_iteration(sim, grid, state, f=f, workers=workers)
    return state


# -- BFS ---------------------------------------------------------------------

def bfs_initial_dist(sim, global_map, source_id):
    """Distance array seeded by an equality scan over the merged ID map.

    The map is stored in mapped-ID order, so position j holds the vertex
    mapped to j.  Comparing every entry against the source keeps the trace
    independent of which vertex (if any) matches; absence surfaces as
    :class:`UnknownSource` only after the full pass.
    """
    h, l = int(source_id["h"]), int(source_id["l"])
    found = []

    def seed(batch):
        hit = (batch["h"] == h) & (batch["l"] == l)
        found.append(bool(hit.any()))
        out = np.full(len(batch), INF, dtype=DIST_STATE)
        out["dist"][hit] = 0
        return out

    dist = o_trans(global_map, seed, out_name="bfs.dist")
    if not found[0]:
        raise UnknownSource("source vertex is not present in the merged graph")
    return dist


def bfs_iteration(sim, grid, state, workers=1):
    return full_scan(grid, state, state, _bfs_kernel, sim, workers=workers)


def bfs(sim, grid, global_map, source_id, t, workers=1):
    """t rounds of hop relaxation from `source_id`, no early exit."""
    state = bfs_initial_dist(sim, global_map, source_id)
    for _ in range(t):
        state = bfs_iteration(sim, grid, state, workers=workers)
    return state


# -- WCC ---------------------------------------------------------------------

def wcc_iteration(sim, grid, state, workers=1):
    return full_scan(grid, state, state, _wcc_kernel, sim, workers=workers)


def wcc(sim, grid, t, workers=1):
    """t rounds of minimum-label propagation over a symmetrized grid."""
    if not grid.symmetrized:
        raise SymmetryRequired("wcc needs a grid built from symmetrized edges")
    n = grid.params.n
    labels = np.zeros(n, dtype=LABEL_STATE)
    labels["label"] = np.arange(n, dtype=np.uint64)
    state = sim.buffer_from_rows("wcc.label", labels)
    for _ in range(t):
        state = wcc_iteration(sim, grid, state, workers=workers)
    return state


# -- registry ----------------------------------------------------------------

class AppSpec:
    """Static per-application facts shared by all engines."""

    def __init__(self, name, vwidth, symmetric, state_dtype, result_field,
                 result_kind):
        self.name = name
        self.vwidth = vwidth
        self.symmetric = symmetric
        self.state_dtype = state_dtype
        self.result_field = result_field
        self.result_kind = result_kind  # "f64" or "u64"

    def result_bits(self, state_data):
        """Final per-vertex results as raw u64 bits (wire representation)."""
        col = state_data[self.result_field]
        if self.result_kind == "f64":
            return col.astype("<f8").view("<u8").copy()
        return col.astype("<u8").copy()

    def bits_to_values(self, bits):
        if self.result_kind == "f64":
            return np.asarray(bits, dtype="<u8").view("<f8").copy()
        return np.asarray(bits, dtype="<u8").copy()


APPS = {
    "pr": AppSpec("pr", PR_STATE.itemsize, False, PR_STATE, "weight", "f64"),
    "bfs": AppSpec("bfs", DIST_STATE.itemsize, False, DIST_STATE, "dist", "u64"),
    "wcc": AppSpec("wcc", LABEL_STATE.itemsize, True, LABEL_STATE, "label", "u64"),
}


def run_app(sim, grid, global_map, app, t, workers=1, f=0.85, source_id=None):
    """Run one application on the scan engine; returns the final state buffer."""
    if app == "pr":
        return pagerank(sim, grid, t, f=f, workers=workers)
    if app == "bfs":
        return bfs(sim, grid, global_map, source_id, t, workers=workers)
    if app == "wcc":
        return wcc(sim, grid, t, workers=workers)
    raise ValueError("unknown application %r" % app)
