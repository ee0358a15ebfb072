"""CLI surface: generation, partitioning, runs, trace checks, benches."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oblige import kron as kron_module
from oblige.cli import main, parse_granularity, parse_size
from oblige.kron import (
    assign_parties,
    generate_kronecker,
    read_edge_list,
    read_party_file,
    split_parties,
    write_edge_list,
)
from oblige.omsim import ELEMENT


def test_parse_size():
    assert parse_size("4096") == 4096
    assert parse_size("64KiB") == 64 * 1024
    assert parse_size("1.25MiB") == int(1.25 * 1024 * 1024)
    assert parse_size("1GiB") == 1 << 30
    assert parse_granularity("element") is ELEMENT
    assert parse_granularity("64") == 64


def test_kron_determinism_and_bounds(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["gen-kron", "--scale", "10", "--edge-scale", "12",
                 "--seed", "3", "-o", str(a)]) == 0
    assert main(["gen-kron", "--scale", "10", "--edge-scale", "12",
                 "--seed", "3", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    src, dst = read_edge_list(a)
    assert len(src) == 4096
    assert int(max(src.max(), dst.max())) < 1024


def test_kron_heavy_tail():
    src, _ = generate_kronecker(14, 1 << 16, seed=0)
    deg = np.bincount(src.astype(np.int64), minlength=1 << 14)
    assert deg.max() >= 8 * deg.mean()


def test_partition_union_property(tmp_path):
    src, dst = generate_kronecker(8, 1 << 9, seed=1)
    for mode in ("random", "range"):
        owner = assign_parties(1 << 8, 3, mode, seed=2)
        parties = split_parties(src, dst, owner, 3)
        union = sorted(e for _, edges in parties for e in map(tuple, edges.tolist()))
        assert union == sorted(zip(src.tolist(), dst.tolist()))
        covered = set()
        for keys, _ in parties:
            covered.update(keys.tolist())
        assert covered == set(range(1 << 8))


def test_partition_single_party_is_input(tmp_path):
    path = tmp_path / "g.txt"
    src, dst = generate_kronecker(6, 1 << 7, seed=4)
    write_edge_list(path, src, dst)
    assert main(["partition", str(path), "-p", "1", "--seed", "0",
                 "--vertices", "64", "-o", str(tmp_path / "party")]) == 0
    keys, edges = read_party_file(tmp_path / "party.0.txt")
    assert keys.tolist() == list(range(64))
    assert sorted(map(tuple, edges.tolist())) == sorted(zip(src.tolist(), dst.tolist()))


def test_partition_reproducible(tmp_path):
    path = tmp_path / "g.txt"
    src, dst = generate_kronecker(6, 1 << 7, seed=4)
    write_edge_list(path, src, dst)
    for run in range(2):
        assert main(["partition", str(path), "-p", "2", "--seed", "9",
                     "--vertices", "64", "-o", str(tmp_path / ("r%d" % run))]) == 0
    assert (tmp_path / "r0.0.txt").read_bytes() == (tmp_path / "r1.0.txt").read_bytes()


@pytest.fixture
def party_files(tmp_path):
    graph = tmp_path / "g.txt"
    src, dst = generate_kronecker(7, 1 << 9, seed=5)
    write_edge_list(graph, src, dst)
    main(["partition", str(graph), "-p", "2", "--seed", "1",
          "--vertices", "128", "-o", str(tmp_path / "party")])
    return [str(tmp_path / "party.0.txt"), str(tmp_path / "party.1.txt")]


def test_run_engines_agree(party_files, tmp_path):
    outs = {}
    for engine in ("oblige", "sortscan", "reference"):
        outdir = tmp_path / engine
        code = main(["run", *party_files, "--app", "pr", "-t", "5",
                     "--om", "64KiB", "--engine", engine, "--seed", "3",
                     "--outdir", str(outdir)])
        assert code == 0
        values = {}
        for i in range(2):
            for line in (outdir / ("party%d.results.txt" % i)).read_text().splitlines():
                key, val = line.split()
                values[(i, key)] = float(val)
        outs[engine] = values
    for key in outs["reference"]:
        assert outs["oblige"][key] == pytest.approx(outs["reference"][key], rel=1e-9)
        assert outs["sortscan"][key] == pytest.approx(outs["reference"][key], rel=1e-9)


def test_run_reports_deterministic_digests(party_files, tmp_path):
    reports = []
    for i in range(2):
        outdir = tmp_path / ("rep%d" % i)
        assert main(["run", *party_files, "--app", "pr", "-t", "2",
                     "--om", "64KiB", "--seed", "3", "--outdir", str(outdir)]) == 0
        reports.append(json.loads((outdir / "report.json").read_text()))
    assert reports[0]["stage_digests"] == reports[1]["stage_digests"]
    assert reports[0]["params"] == reports[1]["params"]


def test_run_om_too_small_reported(party_files, tmp_path, capsys):
    code = main(["run", *party_files, "--app", "pr", "-t", "1",
                 "--om", "4096", "--outdir", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "OMTooSmall" in err


def test_trace_check_pass_and_leaky(capsys):
    assert main(["trace-check", "--stage", "pr", "--trials", "3",
                 "--seed", "5", "--vertices", "64", "--parties", "2",
                 "--edges", "32", "--om", "16KiB"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["trace-check", "--stage", "pr", "--trials", "3", "--leaky",
                 "--seed", "5", "--vertices", "64", "--parties", "2",
                 "--edges", "32", "--om", "16KiB"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "worker" in out


def test_trace_check_reports_every_stage(capsys):
    assert main(["trace-check", "--stage", "o_sort", "bfs", "merge_grids", "--trials", "2",
                 "--seed", "5", "--vertices", "64", "--parties", "2",
                 "--edges", "32", "--om", "16KiB"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["PASS o_sort", "PASS bfs",
                                                      "PASS merge_grids"]


def test_trace_check_rejects_single_trial(capsys):
    assert main(["trace-check", "--stage", "pr", "--trials", "1"]) == 2


def test_bench_bfs_cell_runs(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--app", "bfs", "--n-scales", "4", "--m-scales", "5",
                 "-t", "1", "-o", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 1
    assert all(math.isfinite(float(x)) for x in rows[0].split(","))


def test_bench_table_shape(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--n-scales", "6", "--m-scales", "6,8", "--om", "16KiB",
                 "-t", "1", "-o", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,m,om_bytes,oblige_sec_per_iter,sortscan_sec_per_iter,speedup"
    assert len(lines) == 3  # two (n, m) cells with n <= m
    for line in lines[1:]:
        n, m, om, tob, tss, speedup = line.split(",")
        assert float(speedup) == pytest.approx(float(tss) / float(tob), rel=1e-2)


def test_bench_om_sweep_shape(tmp_path):
    """One row per (n-scale, m-scale, OM) cell with n <= m, in that nesting order."""
    out = tmp_path / "bench.csv"
    code = main(["bench", "--n-scales", "5,6", "--m-scales", "6", "--om", "16KiB,64KiB",
                 "-t", "1", "-o", str(out)])
    assert code == 0
    cells = [tuple(int(x) for x in line.split(",")[:3])
             for line in out.read_text().strip().splitlines()[1:]]
    assert cells == [(32, 64, 16 << 10), (32, 64, 64 << 10),
                     (64, 64, 16 << 10), (64, 64, 64 << 10)]


@pytest.mark.parametrize("lines", [
    ["v -1", "v 2", "e 2 -1"],                # negative key
    ["v 1", "x 1"],                           # unknown record tag
    ["v 1", "v 2", "e 1 3"],                  # edge to an unlisted key
    ["v 1", "v"],                             # missing key field
    ["v 1", "v 2", "e 1"],                    # missing edge field
    ["v 1", "v two"],                         # non-integer key
    ["v 1", "v 2", "e 1 2.0"],                # non-integer endpoint
    ["v 1", "v %d" % (1 << 64)],              # key beyond 64 bits
    ["v 1", "v 2", "e 1 2 2"],                # extra field
    ["v 1", "v 000%d" % (1 << 64)],           # key beyond 64 bits, zero-padded
    ["v 1", "v +5"],                          # signed key
    ["v 1", "v 1_000"],                       # digit separator
    ["v 1", "e"],                             # lone tag
], ids=["negative-key", "bad-tag", "unlisted-endpoint", "missing-key",
        "missing-endpoint", "non-integer-key", "non-integer-endpoint", "wide-key",
        "extra-field", "zero-padded-wide-key", "signed-key", "underscore-key",
        "lone-tag"])
def test_run_malformed_party_file_exits_2(lines, tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("v 5\nv 6\ne 5 6\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    code = main(["run", str(good), str(bad), "--app", "pr", "-t", "1",
                 "--om", "64KiB", "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert "MalformedPartyFile" in capsys.readouterr().err


@pytest.mark.parametrize("inputs", [
    [([1, "1"], [])],                                   # mixed key types
    [([1, 2], [(1, "2")])],                             # endpoint of another type
    [([49], [(49, 49)]), ([b"1" + b"\0" * 7], [])],     # parties of two key types
], ids=["mixed-keys", "mixed-endpoint", "mixed-parties"])
def test_run_mixed_key_types_exit_2(inputs, monkeypatch, tmp_path, capsys):
    # Party files only hold integers; other key types reach `oblige run`
    # through the loader, which is replaced here.
    loaded = iter(inputs)
    monkeypatch.setattr(kron_module, "read_party_file", lambda path: next(loaded))
    files = [str(tmp_path / ("p%d.txt" % i)) for i in range(len(inputs))]
    code = main(["run", *files, "--app", "pr", "-t", "1", "--om", "64KiB",
                 "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert "MalformedPartyFile" in capsys.readouterr().err


@pytest.mark.parametrize("argv,error", [
    (["run", "{missing}", "--app", "pr", "--outdir", "{out}"], "InputNotFound"),
    (["run", "{party}", "--app", "pr", "--om", "12QB", "--outdir", "{out}"],
     "UsageError"),
    (["run", "{party}", "--app", "pr", "--granularity", "abc", "--outdir", "{out}"],
     "UsageError"),
    (["bench", "--n-scales", "x"], "UsageError"),
    (["run", "{party}", "--app", "pr", "--workers", "0", "--outdir", "{out}"],
     "UsageError"),
    (["bench", "--n-scales", "6", "--m-scales", "6", "--om", "16KiB", "-t", "1",
      "--workers", "0"], "UsageError"),
    (["trace-check", "--stage", "pr", "--trials", "2", "--workers", "0"],
     "UsageError"),
    (["trace-check", "--stage", "pr", "--trials", "2", "--om", "0"], "UsageError"),
    (["trace-check", "--stage", "pr", "--trials", "2", "--vertices", "255",
      "--parties", "4"], "UsageError"),
    (["trace-check", "--stage", "pr", "--trials", "2", "--parties", "0"],
     "UsageError"),
    (["trace-check", "--stage", "pr", "--trials", "2", "--vertices", "0"],
     "UsageError"),
    (["trace-check", "--stage", "pr", "--trials", "2", "--edges", "-1"],
     "UsageError"),
    (["partition", "{edges}", "-p", "0", "-o", "{out}"], "UsageError"),
    (["partition", "{edges}", "-p", "-2", "-o", "{out}"], "UsageError"),
    (["gen-kron", "--scale", "-1", "--edge-scale", "4", "-o", "{out}"], "UsageError"),
    (["gen-kron", "--scale", "4", "--edge-scale", "-1", "-o", "{out}"], "UsageError"),
    (["run", "{party}", "--app", "pr", "-t", "-3", "--outdir", "{out}"], "UsageError"),
    (["bench", "--n-scales", "6", "--m-scales", "6", "--om", "16KiB", "-t", "-1"],
     "UsageError"),
    (["partition", "{tagged}", "-p", "2", "-o", "{out}"], "MalformedEdgeList"),
    (["partition", "{wide}", "-p", "2", "-o", "{out}"], "MalformedEdgeList"),
    (["partition", "{word}", "-p", "2", "-o", "{out}"], "MalformedEdgeList"),
    (["run", "{party}", "--app", "bfs", "--source", "-1", "-t", "1", "--outdir", "{out}"],
     "UnknownSource"),
    (["run", "{party}", "--app", "bfs", "--source", "18446744073709551616", "-t", "1",
      "--outdir", "{out}"], "UnknownSource"),
    (["partition", "{edges}", "-p", "2", "--vertices", "2", "-o", "{out}"], "UsageError"),
    (["partition", "{edges}", "-p", "2", "--vertices", "0", "-o", "{out}"], "UsageError"),
    (["partition", "{far}", "-p", "2", "--vertices", "3", "-o", "{out}"], "UsageError"),
    (["gen-kron", "--scale", "65", "--edge-scale", "2", "-o", "{out}"], "UsageError"),
    (["run", "{party}", "--app", "pr", "--damping", "nan", "--outdir", "{out}"],
     "UsageError"),
    (["run", "{party}", "--app", "pr", "--damping", "2", "--outdir", "{out}"],
     "UsageError"),
    (["run", "{party}", "--app", "pr", "--damping", "-0.5", "--outdir", "{out}"],
     "UsageError"),
    (["bench", "--n-scales", "3", "--m-scales", "2"], "UsageError"),
    (["gen-kron", "--scale", "4", "--edge-scale", "4", "--seed", "-1", "-o", "{out}"],
     "UsageError"),
    (["partition", "{edges}", "-p", "2", "--seed", "-1", "-o", "{out}"], "UsageError"),
    (["trace-check", "--stage", "pr", "--trials", "2", "--seed", "-1"], "UsageError"),
    (["bench", "--n-scales", "6", "--m-scales", "6", "--om", "16KiB", "-t", "1",
      "--seed", "-1"], "UsageError"),
    (["run", "{party}", "--app", "pr", "--seed", "-1", "--outdir", "{out}"], "UsageError"),
    (["run", "{party}", "--app", "pr", "--seed", "18446744073709551616",
      "--outdir", "{out}"], "UsageError"),
    (["bench", "--n-scales", "-1", "--m-scales", "8"], "UsageError"),
    (["bench", "--n-scales", "4", "--m-scales", "5", "--om", "0", "-t", "1"],
     "OMTooSmall"),
    (["bench", "--om", "16KiB,nan"], "UsageError"),
    (["bench", "--om", "inf"], "UsageError"),
    (["bench", "--n-scales", "4", "--m-scales", "5", "--om", "99999999999999999999",
      "-t", "1"], "ParamMismatch"),
    (["gen-kron", "--scale", "4", "--edge-scale", "63", "-o", "{out}"],
     "UsageError: --scale and --edge-scale lie in [0, 40]"),
    (["bench", "--n-scales", "4", "--m-scales", "64"], "UsageError: bench scales lie in"),
    (["partition", "{edges}", "-p", "2", "--vertices", "9223372036854775807",
      "-o", "{out}"], "UsageError: the vertex count is 9223372036854775807, above"),
    (["partition", "{edges}", "-p", "2", "--mode", "range", "--vertices",
      "9223372036854775807", "-o", "{out}"], "UsageError: the vertex count is"),
    (["trace-check", "--vertices", "1152921504606846976", "--parties", "2"],
     "UsageError: --vertices is 1152921504606846976, above the limit of 2^40"),
    (["trace-check", "--edges", "4611686018427387904"],
     "UsageError: --edges is 4611686018427387904, above the limit of 2^40"),
    (["trace-check", "--stage", "pr", "--trials", "1"],
     "error: UsageError: a check compares at least 2 trials"),
], ids=["missing-party-file", "bad-om", "bad-granularity", "bad-n-scales",
        "zero-workers-run", "zero-workers-bench", "zero-workers-trace-check",
        "zero-om-trace-check", "uneven-parties-trace-check",
        "zero-parties-trace-check", "zero-vertices-trace-check",
        "negative-edges-trace-check", "zero-parties-partition",
        "negative-parties-partition", "negative-scale-gen-kron",
        "negative-edge-scale-gen-kron", "negative-rounds-run",
        "negative-rounds-bench", "tag-line-partition", "three-fields-partition",
        "non-integer-partition", "negative-source-run", "too-large-source-run",
        "destination-outside-universe-partition", "empty-universe-partition",
        "source-outside-universe-partition", "too-large-scale-gen-kron",
        "nan-damping-run", "above-one-damping-run", "negative-damping-run",
        "no-cells-bench", "negative-seed-gen-kron", "negative-seed-partition",
        "negative-seed-trace-check", "negative-seed-bench", "negative-seed-run",
        "too-large-seed-run", "negative-n-scale-bench", "zero-om-bench",
        "nan-om-bench", "inf-om-bench", "huge-om-bench", "huge-edge-scale-gen-kron",
        "huge-m-scale-bench", "huge-vertices-partition", "huge-vertices-range-partition",
        "huge-vertices-trace-check", "huge-edges-trace-check", "one-trial-trace-check"])
def test_cli_input_faults_exit_2(argv, error, tmp_path, capsys):
    party = tmp_path / "p.txt"
    party.write_text("v 5\nv 6\ne 5 6\n")
    edges = tmp_path / "g.txt"
    edges.write_text("0 1\n1 2\n")
    names = dict(missing=tmp_path / "missing.txt", party=party, edges=edges,
                 out=tmp_path / "out")
    for name, text in [("tagged", "0 1\nv 5\n"), ("wide", "0 1\n1 2 3\n"),
                       ("word", "0 1\n1 x\n"), ("far", "0 1\n5 2\n")]:
        names[name] = tmp_path / (name + ".txt")
        names[name].write_text(text)
    assert main([a.format(**names) for a in argv]) == 2
    assert error in capsys.readouterr().err


def test_run_error_names_its_stage(tmp_path, capsys):
    party = tmp_path / "p.txt"
    party.write_text("v 5\nv 6\ne 5 6\n")
    assert main(["run", str(party), "--app", "bfs", "--source", "7", "-t", "1",
                 "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "[stage compute]" in err and "UnknownSource" in err


# -- fuzz: every argument vector exits 0 or 2 ----------------------------------------

SEEDS = st.integers(0, (1 << 64) - 1)
SIZES = st.sampled_from(["16KiB", "64KiB", "1.25MiB", "1e3KiB"])
WORKERS = st.integers(1, 8)


def _scales(lo, hi):
    return st.lists(st.integers(lo, hi).map(str), min_size=1, max_size=2).map(",".join)


def _commands(files):
    """Per command, its options as (flag, valid values, may be left out).

    Every size is bounded, so no draw allocates much or runs long; only seeds
    reach huge values.  A flag of None is a positional argument.  The output
    paths, which are never mutated, are appended apart.
    """
    return {
        "gen-kron": [("--scale", st.integers(0, 10), False),
                     ("--edge-scale", st.integers(0, 12), False),
                     ("--seed", SEEDS, True)],
        "partition": [(None, st.just(files["edges"]), False), ("-p", st.integers(1, 4), False),
                      ("--mode", st.sampled_from(["random", "range"]), True),
                      ("--seed", SEEDS, True), ("--vertices", st.integers(32, 70), True)],
        "run": [(None, st.sampled_from([files["parties"][:1], files["parties"]]), False),
                ("--app", st.sampled_from(["pr", "bfs", "wcc"]), False),
                ("-t", st.integers(0, 3), False), ("--om", SIZES, True),
                ("--workers", WORKERS, True),
                ("--engine", st.sampled_from(["oblige", "sortscan", "reference"]), True),
                ("--granularity", st.sampled_from(["element", "8", "64"]), True),
                ("--no-trace", st.booleans(), True),
                ("--damping", st.sampled_from(["0", "0.85", "1"]), True),
                ("--source", st.sampled_from(files["keys"]), True),
                ("--seed", SEEDS, True)],
        "trace-check": [("--stage", st.sampled_from(["pr", "bfs", "o_sort", "sortscan",
                                                     "pipeline_wcc"]), True),
                        ("--trials", st.integers(2, 3), False), ("--seed", SEEDS, True),
                        ("--vertices", st.sampled_from([16, 32, 64]), False),
                        ("--parties", st.integers(1, 4), False),
                        ("--edges", st.integers(0, 64), False), ("--om", SIZES, True),
                        ("--workers", WORKERS, True), ("--leaky", st.booleans(), True)],
        "bench": [("--app", st.sampled_from(["pr", "bfs", "wcc"]), True),
                  ("--n-scales", _scales(2, 6), False), ("--m-scales", _scales(2, 8), False),
                  ("--om", st.lists(SIZES, min_size=1, max_size=2).map(",".join), True),
                  ("-t", st.integers(0, 3), False),
                  ("--seed", SEEDS, True), ("--workers", WORKERS, True)],
    }


@st.composite
def _argv(draw, files):
    """A valid argument vector with at most one option mutated.

    The mutation is a negative, zero, NaN or wrong-typed value (a seed may
    also be 2^64 or more), a repeat, or leaving out an option whose default
    is small.
    """
    name = draw(st.sampled_from(["gen-kron", "partition", "run", "trace-check", "bench"]))
    options = _commands(files)[name]
    target = draw(st.integers(-1, len(options) - 1))  # -1: no mutation
    argv = [name]
    for i, (flag, values, optional) in enumerate(options):
        value = draw(values)
        mutation = None
        if i == target:
            mutation = draw(st.sampled_from(["bad", "repeat"] + ["drop"] * optional))
        if mutation == "drop":
            continue
        if mutation == "bad":
            huge = [str(1 << 64), str(10 ** 30)] if flag == "--seed" else []
            value = draw(st.sampled_from(["-1", "0", "nan", "x", "1.5", ""] + huge))
        if flag is None:
            argv += value if isinstance(value, list) else [value]
        elif isinstance(value, bool):
            argv += [flag] * (value + (mutation == "repeat"))
        else:
            argv += [flag, str(value)] * (1 + (mutation == "repeat"))
    outputs = {"gen-kron": ["-o", files["out"]], "partition": ["-o", files["prefix"]],
               "run": ["--outdir", files["outdir"]], "bench": ["-o", files["csv"]]}
    return argv + outputs.get(name, [])


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    src, dst = generate_kronecker(5, 1 << 6, seed=8)
    write_edge_list(root / "g.txt", src, dst)
    assert main(["partition", str(root / "g.txt"), "-p", "2", "--vertices", "32",
                 "-o", str(root / "party")]) == 0
    parties = [str(root / ("party.%d.txt" % i)) for i in range(2)]
    keys = read_party_file(parties[0])[0][:2].tolist()
    return dict(root=root, edges=str(root / "g.txt"), parties=parties, keys=keys,
                out=str(root / "kron.txt"), prefix=str(root / "split"),
                csv=str(root / "bench.csv"))


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.data())
def test_cli_fuzz_exits_0_or_2(fuzz_files, data):
    """Mutated argument vectors exit 0 or 2 (1 only for --leaky), with no traceback."""
    outdir = Path(tempfile.mkdtemp(dir=fuzz_files["root"]))
    files = dict(fuzz_files, outdir=str(outdir))
    argv = data.draw(_argv(files))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exit:  # argparse refused the vector
            code = exit.code
    assert code in (0, 2) or (code == 1 and "--leaky" in argv), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0 and argv[0] == "run":
        results = list(outdir.glob("party*.results.txt"))
        assert results and all(math.isfinite(float(line.split()[1]))
                               for path in results
                               for line in path.read_text().splitlines()), argv
    if code == 0 and argv[0] == "bench":
        rows = Path(files["csv"]).read_text().splitlines()[1:]
        assert rows and all(math.isfinite(float(x)) for row in rows for x in row.split(","))
