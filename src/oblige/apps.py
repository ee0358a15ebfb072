"""Graph analytics applications, each written once as a vertex program.

A :class:`VertexProgram` is one round of edge-centric scatter/gather/apply,
as in GridGraph: every edge (u, v) sends ``message(state, u)`` to v, the
messages arriving at v fold with the `combine` ufunc, and `apply` turns the
fold into v's next value; a program without `apply` folds the messages into
v's old value instead.  `message` is elementwise in its index: its value at
a vertex does not depend on which other vertices are indexed with it.  All
three engines derive their per-app code from it:

* the grid scan (this module) evaluates ``message(src, arange(n))`` once per
  scan, at every source vertex, and runs ``combine.at(dst[field], doff,
  msg[soff])`` as its kernel, into a copy of the state or, with an `apply`,
  into an accumulator cleared to the fold's identity;
* the sort-scan baseline (`oblige.baselines`) computes `message` at each
  edge from the vertex sorted before it, and folds with `combine.at` over
  vertex groups;
* the reference oracle computes `message` per edge and folds with
  `combine.at` over whole arrays.

Each edge thus folds the same value in every engine: one IEEE operation on
the same operands, whether evaluated per vertex or per edge.

Every application runs a fixed number of iterations with no convergence
detection, frontier tracking or early exit: any of those would make the
iteration count or per-iteration work depend on secret data.  Per-iteration
region names are stable, so the trace of one iteration is identical to the
trace of any other (and to the same iteration on different secret inputs).

Value conventions:

* PageRank state is (weight: f64, degree: u64); weights start at 1 and fold
  as w = (1-f) + f * sum(w_prev(u) / d(u)) over in-edges, f being the
  program's `damping` (0.85).  Vertices with no out-edges simply
  contribute nothing (their message divides by max(d, 1) and is never
  gathered), so total weight may shrink on graphs with dangling vertices.
* BFS distance and WCC label are u64 with INF = 2^64-1 as the unreachable
  sentinel; min() with +1 saturates at INF.
"""

import numpy as np

from .errors import SymmetryRequired, UnknownSource
from .omsim import with_fields
from .oprims import o_trans
from .scan import full_scan, full_scan_rows

PR_STATE = np.dtype([("weight", "<f8"), ("degree", "<u8")])
DEGREE_STATE = np.dtype([("degree", "<u8")])
DIST_STATE = np.dtype([("dist", "<u8")])
LABEL_STATE = np.dtype([("label", "<u8")])

INF = np.uint64(np.iinfo(np.uint64).max)


class VertexProgram:
    """One application: its vertex state, edge message and message fold.

    `state_dtype` is the per-vertex record, `field` the value the program
    computes and `region` the state buffer's trace region.  `init(n)` gives
    the starting values of `field`; with `needs_source` the source vertex
    starts at 0 instead (the scan engines seed it with `bfs_initial_dist`),
    and with `needs_degrees` a `degree` field holds out-degrees.
    `message(state, idx)` is what edges send from source vertices `idx`;
    `idx` may index every vertex, so it must be defined (and warning-free)
    at vertices with no out-edges, whose value is never used;
    `combine` (np.add or np.minimum) folds the messages arriving at a
    vertex; `apply(folded, damping)` maps the fold to the new value (PR's
    `damping` is f; None for the others), or, when None, the fold takes in
    the old value too.  A `symmetric` program runs over symmetrized edges;
    results travel as the raw u64 bits of `field`, an 8-byte value.
    """

    def __init__(self, name, region, state_dtype, field, init, message,
                 combine, apply=None, damping=None, needs_degrees=False,
                 needs_source=False, symmetric=False):
        self.name = name
        self.region = region
        self.state_dtype = state_dtype
        self.field = field
        self.init = init
        self.message = message
        self.combine = combine
        self.apply = apply
        self.damping = damping
        self.needs_degrees = needs_degrees
        self.needs_source = needs_source
        self.symmetric = symmetric
        self.vwidth = state_dtype.itemsize
        self.value = value = state_dtype[field]
        # The fold's starting value: 0 for np.add, the top value for np.minimum.
        self.identity = combine.identity if combine.identity is not None else (
            np.inf if value.kind == "f" else np.iinfo(value).max)

    def initial(self, n):
        """State of n vertices with `field` at its initial values."""
        state = np.zeros(n, dtype=self.state_dtype)
        state[self.field] = self.init(n)
        return state

    def kernel(self, src, dst, soff, doff):
        """Scan kernel: fold each edge's message into its destination.

        `message` runs once, at every source vertex, and each edge gathers
        its source's value: the same value as a per-edge call, from one
        pass over n vertices instead of strided gathers over every edge.
        """
        msg = self.message(src, np.arange(len(src)))
        self.combine.at(dst[self.field], doff, msg[soff])

    def fold(self, old, idx, msg):
        """New values of the vertices `old`, given messages `msg` to vertices `idx`."""
        acc = np.full(len(old), self.identity, dtype=old.dtype)
        self.combine.at(acc, idx, msg)
        return self.combine(old, acc) if self.apply is None else self.apply(acc, self.damping)

    def result_bits(self, state_data):
        """Final per-vertex results as raw u64 bits (wire representation)."""
        return state_data[self.field].astype(self.value).view("<u8")

    def bits_to_values(self, bits):
        return np.asarray(bits, dtype="<u8").view(self.value).copy()


def _hop(state, idx):
    d = state["dist"][idx]
    return np.where(d == INF, INF, d + np.uint64(1))


APPS = {program.name: program for program in (
    # max(degree, 1) equals degree wherever an out-edge exists; it only keeps
    # the never-gathered value at a vertex without out-edges finite
    VertexProgram("pr", "pr.state", PR_STATE, "weight", np.ones,
                  lambda state, idx: state["weight"][idx]
                  / np.maximum(state["degree"][idx], np.uint64(1)),
                  np.add, apply=lambda acc, damping: (1.0 - damping) + damping * acc,
                  damping=0.85, needs_degrees=True),
    VertexProgram("bfs", "bfs.dist", DIST_STATE, "dist",
                  lambda n: np.full(n, INF), _hop, np.minimum, needs_source=True),
    VertexProgram("wcc", "wcc.label", LABEL_STATE, "label",
                  lambda n: np.arange(n, dtype=np.uint64),
                  lambda state, idx: state["label"][idx], np.minimum,
                  symmetric=True),
)}


# -- the grid-scan engine ------------------------------------------------------

def _degree_kernel(src_chunk, dst_chunk, soff, doff):
    # A uint64 one: a Python int operand takes ufunc.at off its fast loop.
    np.add.at(src_chunk["degree"], soff, np.uint64(1))


def compute_out_degrees(sim, grid, workers=1):
    """Out-degree of every vertex via a row-major scan with a count kernel."""
    n = grid.params.n
    deg = sim.buffer_from_rows("degrees", np.zeros(n, dtype=DEGREE_STATE))
    aux = sim.buffer_from_rows("degrees.dst", np.zeros(n, dtype=DEGREE_STATE))
    return full_scan_rows(grid, deg, aux, _degree_kernel, sim, workers=workers,
                          out_name="degrees")


def bfs_initial_dist(global_map, source_id):
    """BFS state seeded by an equality scan over the merged ID map.

    The map is stored in mapped-ID order, so position j holds the vertex
    mapped to j.  Comparing every entry against the source keeps the trace
    independent of which vertex (if any) matches; absence surfaces as
    :class:`UnknownSource` only after the full pass.
    """
    program = APPS["bfs"]
    h, l = int(source_id["h"]), int(source_id["l"])
    found = []

    def seed(batch):
        hit = (batch["h"] == h) & (batch["l"] == l)
        found.append(bool(hit.any()))
        out = program.initial(len(batch))
        out[program.field][hit] = 0
        return out

    dist = o_trans(global_map, seed, out_name=program.region)
    if not found[0]:
        raise UnknownSource("source vertex is not present in the merged graph")
    return dist


def initial_state(sim, grid, global_map, program, workers=1, source_id=None):
    """The program's state buffer before its first round."""
    if program.needs_source:
        return bfs_initial_dist(global_map, source_id)
    if not program.needs_degrees:
        return sim.buffer_from_rows(program.region, program.initial(grid.params.n))
    degrees = compute_out_degrees(sim, grid, workers=workers)
    return o_trans(degrees, lambda b: with_fields(
        b, program.state_dtype, **{program.field: program.init(len(b))}),
        out_name=program.region)


def iteration(sim, grid, state, program, workers=1):
    """One round: a scan folding every in-edge's message, then `apply`.

    Without `apply` the scan folds straight into a copy of the state.  With
    it the scan folds into an accumulator ("<name>.acc") cleared to the
    fold's identity, and a transform applies the result.
    """
    if program.apply is None:
        return full_scan(grid, state, state, program.kernel, sim, workers=workers)
    field = program.field
    acc = o_trans(state, lambda b: with_fields(b, **{field: program.identity}),
                  out_name=program.name + ".acc")
    acc = full_scan(grid, state, acc, program.kernel, sim, workers=workers)
    return o_trans(acc, lambda b: with_fields(
        b, **{field: program.apply(b[field], program.damping)}), out_name=program.region)


def run_app(sim, grid, global_map, program, t, workers=1, source_id=None):
    """t rounds of `program` on the grid-scan engine; returns the state buffer."""
    if program.symmetric and not grid.symmetrized:
        raise SymmetryRequired("%s needs a grid built from symmetrized edges"
                               % program.name)
    state = initial_state(sim, grid, global_map, program, workers=workers,
                          source_id=source_id)
    for _ in range(t):
        state = iteration(sim, grid, state, program, workers=workers)
    return state
