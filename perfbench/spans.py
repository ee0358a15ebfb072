"""Span recording around oblige's public layer calls, installed from outside.

`LayerSpans` wraps the public functions and methods listed in `TARGETS`.
Each call appends one span (name, start, end, parent) to in-memory columns,
so the package source stays untouched.  A layer's self time is its spans'
time minus the time of their child spans; summed with the self time of the
root span (the whole `run_end_to_end` call), the self times of all spans add
up to the root span's duration, which is how `run_s` is attributed.

`pipeline` and `baselines` import functions such as `o_sort` and
`decode_block` by name, so a wrapper replaces the original in every
`oblige` module that holds it; methods are replaced on their class.
"""

import functools
import sys
import time

import numpy as np

ROOT = "run"

# (module, attribute path, span name).  Span names are "<layer>.<call>".
TARGETS = [
    ("pipeline", "Party.__init__", "pipeline.party_init"),
    ("pipeline", "obfuscate_ids", "pipeline.obfuscate_ids"),
    ("pipeline", "Party.receive_mapping", "pipeline.receive_mapping"),
    ("pipeline", "Party.block_occupancy", "pipeline.block_occupancy"),
    ("pipeline", "Party.grid_submit_payload", "pipeline.grid_submit"),
    ("pipeline", "Party.receive_results", "pipeline.receive_results"),
    ("pipeline", "vertex_mapping", "pipeline.vertex_mapping"),
    ("pipeline", "map_return_payload", "pipeline.map_return_payload"),
    ("pipeline", "merge_grids", "pipeline.merge_grids"),
    ("pipeline", "gather_results", "pipeline.gather_results"),
    ("pipeline", "post_process", "pipeline.post_process"),
    ("pipeline", "result_return_payload", "pipeline.result_return_payload"),
    ("oprims", "o_sort", "oprims.o_sort"),
    ("oprims", "o_trans", "oprims.o_trans"),
    ("oprims", "o_trans_merge", "oprims.o_trans_merge"),
    ("oprims", "o_merge", "oprims.o_merge"),
    ("oprims", "o_split_trans", "oprims.o_split_trans"),
    ("oprims", "o_filter", "oprims.o_filter"),
    ("scan", "full_scan", "scan.full_scan"),
    ("scan", "full_scan_rows", "scan.full_scan_rows"),
    ("apps", "run_app", "apps.run_app"),
    ("apps", "pagerank", "apps.pagerank"),
    ("apps", "pagerank_iteration", "apps.pagerank_iteration"),
    ("apps", "compute_out_degrees", "apps.compute_out_degrees"),
    ("apps", "bfs", "apps.bfs"),
    ("apps", "bfs_iteration", "apps.bfs_iteration"),
    ("apps", "bfs_initial_dist", "apps.bfs_initial_dist"),
    ("apps", "wcc", "apps.wcc"),
    ("apps", "wcc_iteration", "apps.wcc_iteration"),
    ("baselines", "sortscan_run", "baselines.sortscan_run"),
    ("baselines", "sortscan_iteration", "baselines.sortscan_iteration"),
    ("baselines", "build_elements", "baselines.build_elements"),
    ("baselines", "SortScanKernel.scatter", "baselines.kernel"),
    ("baselines", "SortScanKernel.gather", "baselines.kernel"),
    ("baselines", "SortScanKernel.count_degrees", "baselines.kernel"),
    ("grid", "group_into_blocks", "grid.group_into_blocks"),
    ("grid", "encode_grid", "grid.encode_grid"),
    ("grid", "decode_block", "grid.decode_block"),
    ("grid", "parse_grid_header", "grid.parse_grid_header"),
    ("grid", "grid_block_payload", "grid.grid_block_payload"),
    ("omsim", "AccessTrace.digest", "omsim.digest"),
    ("omsim", "AccessTrace.mark", "omsim.mark"),
    ("omsim", "Buffer.read", "omsim.buffer_read"),
    ("omsim", "Buffer.write", "omsim.buffer_write"),
]

# Self-time metrics: metric -> the spans whose self time it sums.  Every
# other span of a layer lands in "<layer>.other_s", and the root span's self
# time is "pipeline.unattributed_s", so the time metrics add up to the
# span run's run_s.
SELF_TIME = {
    "pipeline.party_init_s": ["pipeline.party_init"],
    "pipeline.obfuscate_ids_s": ["pipeline.obfuscate_ids"],
    "pipeline.receive_mapping_s": ["pipeline.receive_mapping"],
    "pipeline.block_occupancy_s": ["pipeline.block_occupancy"],
    "pipeline.grid_submit_s": ["pipeline.grid_submit"],
    "pipeline.receive_results_s": ["pipeline.receive_results"],
    "pipeline.vertex_mapping_s": ["pipeline.vertex_mapping"],
    "pipeline.merge_grids_s": ["pipeline.merge_grids"],
    "pipeline.post_process_s": ["pipeline.post_process"],
    "oprims.o_sort_s": ["oprims.o_sort"],
    "oprims.o_trans_s": ["oprims.o_trans"],
    "oprims.o_trans_merge_s": ["oprims.o_trans_merge"],
    "oprims.o_split_trans_s": ["oprims.o_split_trans"],
    "oprims.o_filter_s": ["oprims.o_filter"],
    "scan.full_scan_s": ["scan.full_scan"],
    "scan.full_scan_rows_s": ["scan.full_scan_rows"],
    "apps.pagerank_iteration_s": ["apps.pagerank_iteration"],
    "apps.compute_out_degrees_s": ["apps.compute_out_degrees"],
    "apps.bfs_initial_dist_s": ["apps.bfs_initial_dist"],
    "baselines.sortscan_run_s": ["baselines.sortscan_run"],
    "baselines.sortscan_iteration_s": ["baselines.sortscan_iteration"],
    "baselines.build_elements_s": ["baselines.build_elements"],
    "baselines.kernel_s": ["baselines.kernel"],
    "grid.group_into_blocks_s": ["grid.group_into_blocks"],
    "grid.encode_grid_s": ["grid.encode_grid"],
    "grid.decode_block_s": ["grid.decode_block"],
    "omsim.digest_s": ["omsim.digest"],
    "omsim.buffer_read_s": ["omsim.buffer_read"],
}
LAYERS = ["pipeline", "oprims", "scan", "apps", "baselines", "grid", "omsim"]

# Call counts: metric -> span name.
CALLS = {
    "oprims.o_sort_calls": "oprims.o_sort",
    "grid.decode_block_calls": "grid.decode_block",
    "omsim.digest_calls": "omsim.digest",
    "omsim.buffer_read_calls": "omsim.buffer_read",
}

# Spans each workload must record at least once; zero calls means a wrapper
# did not take (or the workload no longer exercises the layer).
EXPECTED_COMMON = [
    "pipeline.party_init", "pipeline.obfuscate_ids", "pipeline.receive_mapping",
    "pipeline.block_occupancy", "pipeline.grid_submit", "pipeline.receive_results",
    "pipeline.vertex_mapping", "pipeline.merge_grids", "pipeline.post_process",
    "oprims.o_sort", "oprims.o_trans", "oprims.o_trans_merge",
    "oprims.o_split_trans", "oprims.o_filter",
    "grid.group_into_blocks", "grid.encode_grid", "grid.decode_block",
    "omsim.digest",
]
EXPECTED_SCAN = ["scan.full_scan", "scan.full_scan_rows", "apps.run_app",
                 "apps.pagerank_iteration", "apps.compute_out_degrees",
                 "omsim.buffer_read"]
EXPECTED_SORTSCAN = ["baselines.sortscan_run", "baselines.sortscan_iteration",
                     "baselines.build_elements", "baselines.kernel",
                     "apps.bfs_initial_dist"]


def _o_sort_counts(counters, args, result):
    counters["oprims.o_sort_cx"] += result["compare_exchanges"]
    counters["oprims.o_sort_padded"] += result["padded"]


def _scan_counts(counters, args, result):
    params = args[0].params
    counters["scan.calls"] += 1
    counters["scan.block_visits"] += params.b * params.b
    counters["scan.edge_slots"] += params.b * params.b * params.l


HOOKS = {
    "oprims.o_sort": _o_sort_counts,
    "scan.full_scan": _scan_counts,
    "scan.full_scan_rows": _scan_counts,
}
COUNTERS = ["oprims.o_sort_cx", "oprims.o_sort_padded", "scan.calls",
            "scan.block_visits", "scan.edge_slots"]

# Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = [
    "pipeline.party_init_s", "pipeline.obfuscate_ids_s",
    "pipeline.receive_mapping_s", "pipeline.block_occupancy_s",
    "pipeline.grid_submit_s", "pipeline.receive_results_s",
    "pipeline.vertex_mapping_s", "pipeline.merge_grids_s",
    "pipeline.post_process_s", "pipeline.other_s", "pipeline.unattributed_s",
    "oprims.o_sort_s", "oprims.o_sort_calls", "oprims.o_sort_cx",
    "oprims.o_sort_padded", "oprims.o_trans_s", "oprims.o_trans_merge_s",
    "oprims.o_split_trans_s", "oprims.o_filter_s", "oprims.other_s",
    "scan.full_scan_s", "scan.full_scan_rows_s", "scan.inclusive_s",
    "scan.calls", "scan.block_visits", "scan.edge_slots_per_s",
    "apps.pagerank_iteration_s", "apps.compute_out_degrees_s",
    "apps.bfs_initial_dist_s", "apps.other_s",
    "baselines.sortscan_run_s", "baselines.sortscan_iteration_s",
    "baselines.build_elements_s", "baselines.kernel_s",
    "grid.group_into_blocks_s", "grid.encode_grid_s", "grid.decode_block_s",
    "grid.decode_block_calls", "grid.other_s", "grid.b", "grid.l",
    "grid.pad_ratio",
    "omsim.digest_s", "omsim.digest_calls", "omsim.records",
    "omsim.om_peak_bytes", "omsim.buffer_read_s", "omsim.buffer_read_calls",
    "omsim.other_s",
    "bench.span_overhead_s",
]


def unit_of(metric):
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


class LayerSpans:
    """In-memory span columns plus the wrappers that fill them."""

    def __init__(self):
        self.names = [ROOT]
        self._ids = {ROOT: 0}
        self.reset()
        self._undo = []

    def reset(self):
        self._rows = []  # (index, name id, parent index, start, end)
        self._next = 0
        self._stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, span_name, fn):
        nid = self._ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        hook = HOOKS.get(span_name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._next
            self._next = idx + 1
            stack = self._stack
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._rows.append((idx, nid, parent, t0, t1))
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return wrapper

    def call(self, fn, *args, **kwargs):
        """Run `fn` under the root span."""
        return self._wrap(ROOT, fn)(*args, **kwargs)

    # -- installing and removing wrappers ---------------------------------

    def install(self):
        """Wrap every target; raise if any module still holds an original."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "oblige" or name.startswith("oblige.")]
        originals = []
        for mod_name, path, span_name in TARGETS:
            owner = sys.modules["oblige." + mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if attr not in vars(owner):
                print("perfbench: %s.%s is gone, not wrapped" % (mod_name, path),
                      file=sys.stderr)
                continue
            orig = vars(owner)[attr]
            wrapped = self._wrap(span_name, orig)
            if outer:  # a method: its class is the one place to replace it
                self._set(owner, attr, wrapped)
            else:
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._set(mod, key, wrapped)
            originals.append((orig, span_name))
        for orig, span_name in originals:
            for mod in modules:
                if any(val is orig for val in vars(mod).values()):
                    self.uninstall()
                    raise RuntimeError("rebinding failed: %s still holds the "
                                       "unwrapped %s" % (mod.__name__, span_name))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- analysis ----------------------------------------------------------

    def _columns(self):
        """Span columns indexed by span index (rows are stored as calls end)."""
        rows = np.array(self._rows, dtype=[("idx", "<i8"), ("name", "<i8"),
                                           ("parent", "<i8"), ("start", "<f8"),
                                           ("end", "<f8")]).reshape(-1)
        rows = rows[np.argsort(rows["idx"])]
        return rows["name"], rows["parent"], rows["start"], rows["end"]

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        name, parent, start, end = self._columns()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {n: (int(calls[i]), float(incl[i]), float(own[i]))
                for i, n in enumerate(self.names)}

    def save(self, path):
        name, parent, start, end = self._columns()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end)


def layer_metrics(totals, counters):
    """Per-layer time and count metrics of one span run (see SELF_TIME)."""
    out = {}
    claimed = set()
    for metric, spans in SELF_TIME.items():
        out[metric] = sum(totals.get(s, (0, 0.0, 0.0))[2] for s in spans)
        claimed.update(spans)
    for layer in LAYERS:
        out[layer + ".other_s"] = sum(
            own for name, (_, _, own) in totals.items()
            if name.startswith(layer + ".") and name not in claimed)
    out["pipeline.unattributed_s"] = totals[ROOT][2]
    for metric, span in CALLS.items():
        out[metric] = totals.get(span, (0, 0.0, 0.0))[0]
    for metric in ("oprims.o_sort_cx", "oprims.o_sort_padded", "scan.calls",
                   "scan.block_visits"):
        out[metric] = counters[metric]
    scan_s = sum(totals.get(s, (0, 0.0, 0.0))[1]
                 for s in ("scan.full_scan", "scan.full_scan_rows"))
    out["scan.edge_slots_per_s"] = counters["scan.edge_slots"] / scan_s if scan_s else 0.0
    out["scan.inclusive_s"] = scan_s
    return out


def layer_split(metrics):
    """Self seconds per layer; with pipeline.unattributed_s they sum to run_s."""
    split = dict.fromkeys(LAYERS, 0.0)
    for name in PER_LAYER:
        layer = name.split(".")[0]
        if (layer in split and name.endswith("_s") and not name.endswith("_per_s")
                and name not in ("scan.inclusive_s", "pipeline.unattributed_s")):
            split[layer] += metrics[name]
    return split
