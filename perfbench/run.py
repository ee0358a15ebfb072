"""End-to-end and per-layer benchmark of `oblige run`.

Usage, from the repository root:

    python3 perfbench/run.py --workload run_pr --seed 1 --seconds 30 --trace 0

One invocation generates the workload's Kronecker graph from `--seed`,
splits it among the parties and writes their party files (untimed), then
does what `oblige run` does: parses the party files (`setup_s`) and calls
`pipeline.run_end_to_end` on the parsed inputs, repeatedly, for about
`--seconds` seconds.  Each call is checked against gates that make a run
count as failed:

* oracle: results equal the `engine="reference"` results (BFS
  bit-identical, PageRank within rtol=1e-9, atol=0);
* twin input: every party's destination column is permuted, which keeps
  the key lists and the per-party edge counts; both inputs run with the
  same block lengths (the elementwise max of their own) and must leave
  equal stage digests.  Workloads timed with recording on compare every
  timed call with the twin; the others check the twin traced at t=1 once;
* exact counts: block count b, block length l, compressed trace records,
  OM peak and the o_sort log repeat exactly across calls.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates
untraced calls with span calls, which wrap the package's public layer calls
in spans (see spans.py), and prints the per-layer metrics; it also fails if
an expected span never ran or a per-layer count does not repeat exactly.
Every metric is printed as "name value unit"; the last line is one JSON
object.  The exit code is 0 only if every check passed, and 2 if the
repository's `src/oblige` package is missing.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# One process, no threads: keep numpy's BLAS pool to the calling thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import spans  # noqa: E402  (sibling module)


@dataclass(frozen=True)
class Workload:
    app: str
    scale: int        # log2 vertices of the Kronecker universe
    edge_scale: int   # log2 edges
    parties: int
    om_bytes: int
    t: int
    workers: int
    engine: str
    record: bool      # access-trace recording in the timed calls
    source_key: int = None


# Why each workload exists is recorded in BENCHMARK.json and design.json.
WORKLOADS = {
    "run_pr": Workload("pr", 15, 17, 3, int(1.25 * 1024 * 1024), 10, 1,
                       "oblige", True),
    "scan_pr": Workload("pr", 14, 17, 3, 16 * 1024, 60, 2, "oblige", False),
    "sortscan_bfs": Workload("bfs", 13, 15, 3, 64 * 1024, 3, 1, "sortscan",
                             True, source_key=0),
}

SETUP_PER_ROUND = 2  # party-file parses after each round (setup_s samples)
MIN_CALLS = 3        # timed calls per invocation, whatever --seconds says
MIN_SPAN_CALLS = 2   # span calls with --trace 1, so counts can be compared

END_TO_END_UNITS = {"run_s": "s", "compute_s_per_iter": "s", "setup_s": "s",
                    "peak_rss_mib": "MiB"}


class GateFailure(Exception):
    """A check that is not tied to one timed call failed."""


def salt_for(seed):
    return hashlib.sha256(b"perfbench-salt" + int(seed).to_bytes(8, "little")).digest()[:16]


def write_party_files(kron, wl, seed, workdir):
    src, dst = kron.generate_kronecker(wl.scale, 1 << wl.edge_scale, seed)
    owner = kron.assign_parties(1 << wl.scale, wl.parties, "random", seed)
    paths = []
    for i, (keys, edges) in enumerate(kron.split_parties(src, dst, owner, wl.parties)):
        path = workdir / ("party.%d.txt" % i)
        kron.write_party_file(path, keys, edges)
        paths.append(path)
    return paths


def twin_of(inputs, seed):
    """Same key lists and edge counts, each party's destinations permuted."""
    rng = np.random.default_rng([seed, 7])
    twin = []
    for keys, edges in inputs:
        src = [u for u, _ in edges]
        dst = [v for _, v in edges]
        twin.append((keys, list(zip(src, [dst[j] for j in rng.permutation(len(dst))]))))
    return twin


def block_lengths(ob, inputs, wl, salt):
    """Each party's own block length l_i: its largest block load.

    Parties learn their mapped IDs from the dense rank of the obfuscated IDs
    over all parties, as the pipeline assigns them.
    """
    parties = [ob.pipeline.Party(i, keys, edges, salt)
               for i, (keys, edges) in enumerate(inputs)]
    uniq, inverse = np.unique(np.concatenate([p.ids for p in parties]),
                              return_inverse=True)
    params = ob.grid.PublicParams.derive(
        p=len(parties), n_i=[p.n_vertices for p in parties], n=len(uniq),
        t=wl.t, s=wl.om_bytes, vwidth=ob.apps.APPS[wl.app].vwidth)
    symmetric = ob.apps.APPS[wl.app].symmetric
    lengths, lo = [], 0
    for party in parties:
        rows = np.zeros(party.n_vertices, dtype=ob.pipeline.MAP_DTYPE)
        rows["h"], rows["l"] = party.ids["h"], party.ids["l"]
        rows["mapped"] = inverse[lo:lo + party.n_vertices]
        lo += party.n_vertices
        party.receive_mapping(rows.tobytes())
        lengths.append(party.block_occupancy(params, symmetrize=symmetric))
    return lengths


def results_match(app, got, want):
    for index, expected in want.items():
        keys = list(expected)
        a = np.array([got[index][k] for k in keys])
        b = np.array([expected[k] for k in keys])
        if app == "pr":
            if not np.allclose(a, b, rtol=1e-9, atol=0.0):
                return False
        elif not np.array_equal(a, b):
            return False
    return True


def sim_counts(report, sim):
    """Counts that depend only on the seed; they must repeat exactly."""
    return {
        "grid.b": report.params["b"],
        "grid.l": report.params["l"],
        "omsim.records": sum(sim.trace.mark().values()),
        "omsim.om_peak_bytes": max(a.peak for a in sim.arenas),
        "osort_log": [(e["n"], e["padded"], e["compare_exchanges"])
                      for e in sim.osort_log],
    }


class Bench:
    """One workload on one seed: its inputs, oracle, twin digests and tallies."""

    def __init__(self, ob, wl, seed, paths):
        self.ob, self.wl, self.paths = ob, wl, paths
        self.setup = []
        self.inputs = self.parse()
        self.salt = salt_for(seed)
        self.attempted = 0
        self.failed = 0
        self.counts = None
        self.oracle, _, _ = ob.pipeline.run_end_to_end(
            self.inputs, wl.app, wl.t, wl.om_bytes, self.salt, engine="reference",
            source_key=wl.source_key)
        twin = twin_of(self.inputs, seed)
        self.override = [max(a, b) for a, b in zip(
            block_lengths(ob, self.inputs, wl, self.salt),
            block_lengths(ob, twin, wl, self.salt))]
        # Untimed twin run; it also warms up every code path timed below.
        check_t = wl.t if wl.record else 1
        _, twin_report, _ = self.run(twin, t=check_t, record=True)
        self.twin_digests = twin_report.stage_digests
        self.twin_ok = True
        if not wl.record:
            _, own, _ = self.run(self.inputs, t=check_t, record=True)
            self.twin_ok = own.stage_digests == self.twin_digests

    def parse(self):
        """What `oblige run` does first; each parse is one setup_s sample."""
        t0 = time.perf_counter()
        inputs = [self.ob.kron.read_party_file(p) for p in self.paths]
        self.setup.append(time.perf_counter() - t0)
        return inputs

    def run(self, inputs, t=None, record=None):
        wl = self.wl
        return self.ob.pipeline.run_end_to_end(
            inputs, wl.app, wl.t if t is None else t, wl.om_bytes, self.salt,
            workers=wl.workers, engine=wl.engine,
            record=wl.record if record is None else record,
            source_key=wl.source_key, block_length_override=self.override)

    def timed_call(self, call):
        """One checked call: (seconds, compute s/iter, counts, extra) or None."""
        gc.collect()
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            results, report, sim, extra = call(self.inputs)
            seconds = time.perf_counter() - t0
            counts = sim_counts(report, sim)
            problem = None
            if not results_match(self.wl.app, results, self.oracle):
                problem = "results differ from the reference oracle"
            elif not self.twin_ok or (self.wl.record
                                      and report.stage_digests != self.twin_digests):
                problem = "stage digests differ from the twin input's"
            elif self.counts is not None and counts != self.counts:
                problem = "seed-determined counts changed: %s" % counts
            self.counts = self.counts or counts
        except Exception:  # a raising call is one failed run; keep measuring
            traceback.print_exc()
            problem = "raised"
        if problem:
            self.failed += 1
            print("perfbench: call %d failed: %s" % (self.attempted, problem),
                  file=sys.stderr)
            return None
        return seconds, report.stage_seconds["compute"] / self.wl.t, counts, extra

    def plain(self, inputs):
        return self.run(inputs) + (None,)

    def loop(self, seconds, calls, min_rounds):
        """Rounds of checked calls, one per entry of `calls`, for about `seconds`.

        Returns the passing samples of each entry.  Party-file parses for
        setup_s run between rounds, so their samples span the same stretch of
        time as the calls'.
        """
        samples = [[] for _ in calls]
        rounds = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for call, out in zip(calls, samples):
                sample = self.timed_call(call)
                if sample is not None:
                    out.append(sample)
            for _ in range(SETUP_PER_ROUND):
                self.parse()
            rounds.append(time.perf_counter() - t0)
            if (len(rounds) >= min_rounds and time.perf_counter() - start
                    + statistics.median(rounds) > seconds):
                return samples


def end_to_end(samples, bench):
    return {
        "run_s": statistics.median(s[0] for s in samples),
        "compute_s_per_iter": statistics.median(s[1] for s in samples),
        "setup_s": statistics.median(bench.setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def span_run(bench, seconds, name):
    """Alternate untraced and span calls; returns (untraced samples, per-layer).

    Per-layer times are medians over the span calls; counts must repeat
    exactly.  The spans of the last span call are saved to out/spans-<name>.npz.
    """
    recorder = spans.LayerSpans()

    def traced(inputs):
        recorder.reset()
        recorder.install()
        try:
            results, report, sim = recorder.call(bench.run, inputs)
        finally:
            recorder.uninstall()
        return results, report, sim, (recorder.totals(), dict(recorder.counters))

    plain, samples = bench.loop(seconds, [bench.plain, traced], MIN_SPAN_CALLS)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    recorder.save(out_dir / ("spans-%s.npz" % name))
    if len(samples) < MIN_SPAN_CALLS:
        raise GateFailure("too few span calls passed their checks")

    expected = list(spans.EXPECTED_COMMON)
    expected += spans.EXPECTED_SORTSCAN if bench.wl.engine == "sortscan" else spans.EXPECTED_SCAN
    per_run = []
    for _, _, counts, (totals, counters) in samples:
        # A span missing from totals was not installed: its function is gone.
        missing = [s for s in expected if s in totals and totals[s][0] == 0]
        if missing:
            raise GateFailure("expected spans recorded no calls: %s" % missing)
        m = spans.layer_metrics(totals, counters)
        m.update((k, v) for k, v in counts.items() if k != "osort_log")
        m["grid.pad_ratio"] = m["grid.b"] ** 2 * m["grid.l"] / edge_count(bench)
        m["bench.run_s"] = totals[spans.ROOT][1]
        per_run.append(m)
    exact = [k for k in per_run[0] if not k.endswith("_s")]
    for m in per_run[1:]:
        changed = [k for k in exact if m[k] != per_run[0][k]]
        if changed:
            raise GateFailure("per-layer counts differ between span calls: %s" % changed)
    return plain, {k: (per_run[0][k] if k in exact
                       else statistics.median(m[k] for m in per_run))
                   for k in per_run[0]}


def edge_count(bench):
    m = sum(len(edges) for _, edges in bench.inputs)
    return 2 * m if bench.ob.apps.APPS[bench.wl.app].symmetric else m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "oblige" / "__init__.py").is_file():
        print("perfbench: no oblige package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oblige.apps
    import oblige.grid
    import oblige.kron
    import oblige.pipeline
    ob = oblige

    wl = WORKLOADS[args.workload]
    workdir = HERE / "out" / ("%s-seed%d-pid%d" % (args.workload, args.seed, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paths = write_party_files(ob.kron, wl, args.seed, workdir)
        bench = Bench(ob, wl, args.seed, paths)
        correct = bench.twin_ok
        if not bench.twin_ok:
            print("perfbench: twin-input digests differ", file=sys.stderr)
        layer = None
        if args.trace:
            try:
                samples, layer = span_run(bench, args.seconds, args.workload)
            except GateFailure as err:
                print("perfbench: %s" % err, file=sys.stderr)
                correct = False
                samples = []
        else:
            samples, = bench.loop(args.seconds, [bench.plain], MIN_CALLS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = correct and bool(samples)
    e2e = end_to_end(samples, bench) if samples else {}
    print("perfbench: run_s samples %s" % " ".join("%.4f" % s[0] for s in samples),
          file=sys.stderr)
    correct = correct and bench.failed == 0

    for name, value in e2e.items():
        print("%-34s %.6g %s" % (name, value, END_TO_END_UNITS[name]))
    print("%-34s %.6g %s" % ("failed_frac", bench.failed / bench.attempted, "ratio"))
    if not args.trace:
        for name, value in sorted((bench.counts or {}).items()):
            if name != "osort_log":
                print("%-34s %s %s" % (name, value, spans.unit_of(name)))
    metrics = {}
    if layer is not None and e2e:
        layer["bench.span_overhead_s"] = layer.pop("bench.run_s") - e2e["run_s"]
        for name in spans.PER_LAYER:
            print("%-34s %.6g %s" % (name, layer[name], spans.unit_of(name)))
        traced_s = layer["bench.span_overhead_s"] + e2e["run_s"]
        split = spans.layer_split(layer)
        split["unattributed"] = layer["pipeline.unattributed_s"]
        split["scan inclusive"] = layer["scan.inclusive_s"]
        for name, value in split.items():
            print("split %-28s %.4f s  %5.1f%% of the span run's run_s"
                  % (name, value, 100.0 * value / traced_s))
        metrics = {name: {"value": layer[name], "unit": spans.unit_of(name)}
                   for name in spans.PER_LAYER}
    elif not args.trace:
        metrics = {name: {"value": e2e[name], "unit": END_TO_END_UNITS[name]}
                   for name in e2e}
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
