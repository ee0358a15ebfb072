"""Command-line front end: graph generation, partitioning, runs, checks, benches.

Outputs are machine-readable: comma-separated tables on stdout (or a file)
and a JSON summary per run.  Exit codes: 0 on success, 1 on an
obliviousness violation, 2 on any other engine or usage error.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import kron
from .apps import APPS
from .errors import InputNotFound, ObligeError, ObliviousnessViolation, UsageError
from .omsim import ELEMENT
from .pipeline import ENGINES, run_end_to_end
from .tracecheck import STAGES, CheckConfig, check_stages

DEFAULT_OM = int(1.25 * 1024 * 1024)  # per-core L2-sized oblivious memory

# Every command takes at most 2^MAX_SCALE edges or vertices; a larger count
# is a UsageError, raised before anything is allocated.
MAX_SCALE = 40

_SUFFIXES = {"b": 1, "kib": 1024, "mib": 1024 ** 2, "gib": 1024 ** 3}


def parse_size(text):
    """Byte sizes with binary suffixes: '1.25MiB', '64KiB', '4096'."""
    t = text.strip().lower()
    try:
        for suffix, scale in sorted(_SUFFIXES.items(), key=lambda kv: -len(kv[0])):
            if t.endswith(suffix):
                return int(float(t[:-len(suffix)]) * scale)
        return int(t)
    except (ValueError, OverflowError):
        raise UsageError("%r is not a byte size" % text) from None


def parse_granularity(text):
    if text == "element":
        return ELEMENT
    size = parse_size(text)
    if size < 1:
        raise UsageError("granularity must be 'element' or a positive byte count")
    return size


def _numbers(parse, text):
    """A comma-separated list of numbers, such as '12,14'."""
    try:
        return [parse(x) for x in text.split(",")]
    except ValueError:
        raise UsageError("%r is not a comma-separated list of numbers" % text) from None


def _check_count(what, count):
    if count > 1 << MAX_SCALE:
        raise UsageError("%s is %d, above the limit of 2^%d" % (what, count, MAX_SCALE))


def _check_scales(what, scales):
    if not all(0 <= x <= MAX_SCALE for x in scales):
        raise UsageError("%s lie in [0, %d], not %r" % (what, MAX_SCALE, scales))


def _read(reader, path):
    try:
        return reader(path)
    except OSError as err:
        raise InputNotFound("cannot read %s: %s" % (path, err.strerror or err)) from None


def _salt_from_seed(seed):
    return hashlib.sha256(b"oblige-salt" + int(seed).to_bytes(8, "little")).digest()[:16]


def cmd_gen_kron(args):
    _check_scales("--scale and --edge-scale", [args.scale, args.edge_scale])
    src, dst = kron.generate_kronecker(args.scale, 1 << args.edge_scale, args.seed)
    kron.write_edge_list(args.output, src, dst)
    print("wrote %d edges over %d vertices to %s"
          % (len(src), 1 << args.scale, args.output))
    return 0


def cmd_partition(args):
    src, dst = _read(kron.read_edge_list, args.edges)
    num_vertices = args.vertices
    if num_vertices is None:
        num_vertices = int(max(src.max(), dst.max())) + 1 if len(src) else 1
    _check_count("the vertex count", num_vertices)
    owner = kron.assign_parties(num_vertices, args.parties, args.mode, args.seed)
    parties = kron.split_parties(src, dst, owner, args.parties)
    for i, (keys, edges) in enumerate(parties):
        path = "%s.%d.txt" % (args.output, i)
        kron.write_party_file(path, keys, edges)
        print("party %d: %d vertices, %d edges -> %s" % (i, len(keys), len(edges), path))
    return 0


def _load_parties(paths):
    return [_read(kron.read_party_file, p) for p in paths]


def cmd_run(args):
    parties = _load_parties(args.party_files)
    salt = _salt_from_seed(args.seed)
    results, report, _sim = run_end_to_end(
        parties, args.app, args.iterations, parse_size(args.om), salt,
        workers=args.workers, engine=args.engine,
        granularity=parse_granularity(args.granularity),
        record=not args.no_trace, f=args.damping, source_key=args.source,
    )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for i, values in sorted(results.items()):
        with open(outdir / ("party%d.results.txt" % i), "w") as fp:
            for key in sorted(values):
                value = values[key]
                if isinstance(value, (float, np.floating)):
                    fp.write("%s %.17g\n" % (key, value))
                else:
                    fp.write("%s %d\n" % (key, value))
    summary = report.to_dict()
    summary["results_dir"] = str(outdir)
    with open(outdir / "report.json", "w") as fp:
        json.dump(summary, fp, indent=2, sort_keys=True)
    with open(outdir / "stages.csv", "w") as fp:
        fp.write("stage,seconds,digest\n")
        for stage, seconds in report.stage_seconds.items():
            fp.write("%s,%.6f,%s\n"
                     % (stage, seconds, report.stage_digests.get(stage, "")))
    print("report: %s" % (outdir / "report.json"))
    for stage, seconds in report.stage_seconds.items():
        print("%s,%.6f" % (stage, seconds))
    return 0


def cmd_trace_check(args):
    stages = ["pr_leaky"] if args.leaky else args.stage
    _check_count("--vertices", args.vertices)
    _check_count("--edges", args.edges)
    cfg = CheckConfig(n=args.vertices, p=args.parties,
                      edges_per_party=args.edges, om_bytes=parse_size(args.om),
                      workers=args.workers)
    try:
        reports = check_stages(stages, args.trials, args.seed, cfg=cfg)
    except ObliviousnessViolation as err:
        print("FAIL %s" % err)
        return 1
    for report in reports:
        digest = next(iter(report["digests"].values()))
        print("PASS %s: %d trials, digest %s" % (report["stage"], args.trials, digest))
    return 0


def _bench_once(app, n_scale, m_scale, om_bytes, t, seed, workers, engine):
    src, dst = kron.generate_kronecker(n_scale, 1 << m_scale, seed)
    keys = np.arange(1 << n_scale, dtype=np.uint64)
    _, report, _ = run_end_to_end(
        [(keys, np.stack([src, dst], axis=1))], app, t, om_bytes, _salt_from_seed(seed),
        workers=workers, engine=engine, record=False,
        source_key=keys[0],  # where BFS starts; the other apps take no source
    )
    return report.stage_seconds["compute"] / max(t, 1)


def cmd_bench(args):
    n_scales = _numbers(int, args.n_scales)
    m_scales = _numbers(int, args.m_scales)
    _check_scales("bench scales", n_scales + m_scales)
    oms = _numbers(parse_size, args.om)
    cells = [(ns, ms, om) for ns in n_scales for ms in m_scales if ns <= ms for om in oms]
    if not cells:
        raise UsageError("no bench cell: every n-scale exceeds every m-scale")
    rows = []
    for ns, ms, cell_om in cells:
        tob, tss = (_bench_once(args.app, ns, ms, cell_om, args.iterations,
                                args.seed, args.workers, engine)
                    for engine in ("oblige", "sortscan"))
        rows.append((1 << ns, 1 << ms, cell_om, tob, tss, tss / tob))

    out = open(args.output, "w") if args.output else sys.stdout
    try:
        out.write("n,m,om_bytes,oblige_sec_per_iter,sortscan_sec_per_iter,speedup\n")
        for row in rows:
            out.write("%d,%d,%d,%.6f,%.6f,%.2f\n" % row)
    finally:
        if args.output:
            out.close()
            print("wrote %s" % args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oblige",
        description="data-oblivious multi-party graph analytics simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-kron", help="generate a seeded Kronecker edge list")
    g.add_argument("--scale", type=int, required=True, help="log2 vertex count")
    g.add_argument("--edge-scale", type=int, required=True, help="log2 edge count")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(fn=cmd_gen_kron)

    pt = sub.add_parser("partition", help="split an edge list into party files")
    pt.add_argument("edges")
    pt.add_argument("-p", "--parties", type=int, required=True)
    pt.add_argument("--mode", choices=["random", "range"], default="random")
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--vertices", type=int, default=None,
                    help="vertex universe size (default: max endpoint + 1)")
    pt.add_argument("-o", "--output", required=True, help="party file prefix")
    pt.set_defaults(fn=cmd_partition)

    r = sub.add_parser("run", help="run one engine end to end over party files")
    r.add_argument("party_files", nargs="+")
    r.add_argument("--app", choices=sorted(APPS), required=True)
    r.add_argument("-t", "--iterations", type=int, default=10)
    r.add_argument("--om", default=str(DEFAULT_OM))
    r.add_argument("--workers", type=int, default=1)
    r.add_argument("--engine", choices=sorted(ENGINES), default="oblige")
    r.add_argument("--granularity", default="element",
                   help="'element' or a byte line size such as 64")
    r.add_argument("--no-trace", action="store_true",
                   help="disable recording (timing runs)")
    r.add_argument("--damping", type=float, help="PR damping (default %g)" % APPS["pr"].damping)
    r.add_argument("--source", type=int, default=None, help="bfs source raw key")
    r.add_argument("--seed", type=int, default=0, help="salt seed")
    r.add_argument("--outdir", default="oblige-out")
    r.set_defaults(fn=cmd_run)

    tc = sub.add_parser("trace-check",
                        help="equal-trace check over random secret inputs")
    tc.add_argument("--stage", nargs="+", choices=sorted(STAGES), default=["pipeline_pr"],
                    help="stages to check; those of one app and engine share trials")
    tc.add_argument("--trials", type=int, default=20)
    tc.add_argument("--seed", type=int, default=0)
    tc.add_argument("--vertices", type=int, default=CheckConfig.n)
    tc.add_argument("--parties", type=int, default=CheckConfig.p)
    tc.add_argument("--edges", type=int, default=CheckConfig.edges_per_party,
                    help="edges per party in the generated secrets")
    tc.add_argument("--om", default=str(CheckConfig.om_bytes))
    tc.add_argument("--workers", type=int, default=CheckConfig.workers)
    tc.add_argument("--leaky", action="store_true",
                    help="negative control: run the intentionally leaky kernel")
    tc.set_defaults(fn=cmd_trace_check)

    b = sub.add_parser("bench", help="desk-scale engine comparison table")
    b.add_argument("--app", choices=sorted(APPS), default="pr")
    b.add_argument("--n-scales", default="12,14")
    b.add_argument("--m-scales", default="12,14,16")
    b.add_argument("--om", default=str(DEFAULT_OM),
                   help="comma-separated OM sizes; one cell per (n-scale, m-scale, OM)")
    b.add_argument("-t", "--iterations", type=int, default=3)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--workers", type=int, default=1)
    b.add_argument("-o", "--output", default=None)
    b.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if not 0 <= args.seed < 1 << 64:  # every command takes one
            raise UsageError("--seed is an integer in [0, 2^64), not %d" % args.seed)
        return args.fn(args)
    except ObliviousnessViolation as err:
        print("obliviousness violation: %s" % err, file=sys.stderr)
        return 1
    except ObligeError as err:
        stage = getattr(err, "stage", None)
        where = " [stage %s]" % stage if stage else ""
        print("error%s: %s: %s" % (where, type(err).__name__, err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
