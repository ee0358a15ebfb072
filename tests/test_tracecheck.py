"""The trace-equality harness: stage coverage, trace windows, planted leaks, negative control."""

import numpy as np
import pytest

from oblige import apps, oprims, pipeline, tracecheck
from oblige.errors import ObliviousnessViolation, UsageError
from oblige.omsim import READ, OMSim
from oblige.pipeline import run_end_to_end
from oblige.tracecheck import (
    CHECK_SALT, STAGES, CheckConfig, check_stage, check_stages, random_parties,
)

FAST_CFG = dict(n=64, p=2, overlap=8, edges_per_party=48, om_bytes=1 << 14,
                workers=2)


@pytest.mark.parametrize("stage", [
    "o_sort", "full_scan", "full_scan_rows", "vertex_mapping",
    "merge_grids", "post_process", "pr", "bfs", "wcc", "sortscan",
])
def test_stage_trace_purity(stage):
    report = check_stage(stage, trials=3, seed=17, cfg=CheckConfig(**FAST_CFG))
    assert report["trials"] == 3


@pytest.mark.parametrize("stage", ["pipeline_bfs", "pipeline_wcc"])
def test_whole_pipeline_trace_purity(stage):
    report = check_stage(stage, trials=3, seed=3, cfg=CheckConfig(**FAST_CFG))
    assert report["trials"] == 3 and report["digests"]


def test_leaky_kernel_detected_with_location():
    with pytest.raises(ObliviousnessViolation) as info:
        check_stage("pr_leaky", trials=3, seed=17, cfg=CheckConfig(**FAST_CFG))
    assert info.value.worker is not None
    assert info.value.event_index is not None
    assert info.value.window == "full_scan"


def test_trials_precondition():
    with pytest.raises(UsageError, match="at least 2 trials"):
        check_stage("pr", trials=1, seed=0)


def test_stages_of_one_app_and_engine_share_trials(monkeypatch):
    runs = []
    real = tracecheck._trial_trace
    monkeypatch.setattr(tracecheck, "_trial_trace",
                        lambda *args: runs.append(args[2:]) or real(*args))
    stages = ["o_sort", "bfs", "post_process", "o_sort"]
    reports = check_stages(stages, trials=3, seed=23, cfg=CheckConfig(**FAST_CFG))
    assert [report["stage"] for report in reports] == stages
    assert reports[1]["digests"] == check_stage("bfs", trials=2, seed=23,
                                                cfg=CheckConfig(**FAST_CFG))["digests"]
    assert runs[:6] == [("pr", "oblige")] * 3 + [("bfs", "oblige")] * 3


def test_leak_trial_0_misses_is_caught_after_a_clean_check(monkeypatch):
    """No check reuses another's trials: a leak planted after a clean check
    with the same seed and config is caught, though trial 0 never takes it,
    and a clean check after the leak is undone passes again."""
    cfg = CheckConfig(**FAST_CFG)
    check_stages(["o_sort", "post_process"], trials=3, seed=17, cfg=cfg)
    real, sums = pipeline.post_process, []

    def leaky(sim, res, *rest):
        sums.append(sum(res.data.tobytes()))
        if sums[-1] != sums[0]:  # an input trial 0 does not have
            sim.trace.register("leak.probe", PROBE, 8)
            sim.trace.points(0, "leak.probe", READ, [sums[-1] % PROBE])
        return real(sim, res, *rest)

    monkeypatch.setattr(pipeline, "post_process", leaky)
    with pytest.raises(ObliviousnessViolation) as info:
        check_stages(["o_sort", "post_process"], trials=3, seed=17, cfg=cfg)
    assert info.value.window == "post_process" and len(set(sums)) > 1
    monkeypatch.undo()
    check_stage("post_process", trials=3, seed=17, cfg=cfg)


def test_unknown_stage_rejected():
    with pytest.raises(ValueError):
        check_stage("nope", trials=2, seed=0)


def test_stage_registry_covers_required_surface():
    required = {"o_sort", "full_scan", "full_scan_rows", "vertex_mapping",
                "merge_grids", "post_process", "pr", "bfs", "wcc", "sortscan"}
    assert required <= set(STAGES)


@pytest.mark.parametrize("stage", sorted(set(STAGES) - {"pr_leaky"}))
def test_every_stage_is_pure(stage):
    report = check_stage(stage, trials=2, seed=5, cfg=CheckConfig(**FAST_CFG))
    assert len(next(iter(report["digests"].values()))) == 64


PROBE = 1 << 16


@pytest.mark.parametrize("stage,owner,name,secret", [
    ("o_sort", oprims, "_stable_order", lambda cols: int(cols[0][0])),
    ("full_scan", apps.APPS["pr"], "kernel", lambda src, dst, soff, doff: int(soff.sum())),
    ("post_process", pipeline, "post_process", lambda sim, res, *_: sum(res.data.tobytes())),
    # Also leaks in vertex_mapping, which comes first in the trace.
    ("post_process", oprims, "_stable_order", lambda cols: int(cols[0][0])),
], ids=["o_sort", "scan-kernel", "post_process", "o_sort-in-post_process"])
def test_planted_leak_caught_in_its_window(monkeypatch, stage, owner, name, secret):
    """A data-dependent access planted inside one step fails that step's window.

    The divergent event lies inside one of the trial's windows of that name.
    """
    sims = []

    def new_sim(*args, **kwargs):
        sims.append(OMSim(*args, **kwargs))
        sims[-1].trace.register("leak.probe", PROBE, 8)
        return sims[-1]

    real = getattr(owner, name)

    def leaky(*args):
        sims[-1].trace.points(0, "leak.probe", READ, [secret(*args) % PROBE])
        return real(*args)

    monkeypatch.setattr(pipeline, "OMSim", new_sim)
    monkeypatch.setattr(owner, name, leaky)
    with pytest.raises(ObliviousnessViolation) as info:
        check_stage(stage, trials=3, seed=17, cfg=CheckConfig(**FAST_CFG))
    assert info.value.window == stage
    assert "window %r" % stage in str(info.value)
    worker, index, trace = info.value.worker, info.value.event_index, sims[0].trace

    def events_before(mark):
        return trace._prefix_states(worker, 0, mark.get(worker, 0))[-1][0]

    assert any(events_before(start) <= index < events_before(end)
               for window, start, end in trace.windows if window == stage)


def test_pipeline_windows_cover_stages_and_scans():
    cfg = CheckConfig(**FAST_CFG)
    parties = random_parties(np.random.default_rng(4), cfg)
    _, report, sim = run_end_to_end(parties, "pr", 2, cfg.om_bytes, CHECK_SALT)
    windows = sim.trace.windows
    names = [name for name, _, _ in windows]
    assert names.count("full_scan") == 2 and names.count("full_scan_rows") == 1
    stages = {name: (start, end) for name, start, end in windows if name in report.stage_digests}
    assert set(stages) == set(report.stage_digests)
    # Every window digests after the run as its stage did at close, the
    # windows that close before some stream began (party_setup) included.
    assert not stages["party_setup"][1]
    later = {name: sim.trace.digest(*marks) for name, marks in stages.items()}
    assert later == report.stage_digests


def test_whole_pipeline_digests_are_pinned():
    """The whole-trace digests of `trace-check --stage pipeline_* --trials 3 --seed 5`."""
    stages = ["pipeline_pr", "pipeline_bfs", "pipeline_wcc", "pipeline_sortscan"]
    reports = check_stages(stages, 3, 5)
    assert {r["stage"]: next(iter(r["digests"].values())) for r in reports} == {
        "pipeline_pr": "cf50a159babc3ca9704a67dd7cfb1c5a6acc7afc0b2b6f637dc6de6f2c702382",
        "pipeline_bfs": "23a930a9fa20f56f8ab507955d725fb9373b3a7159769c0f6516c47923a8b3d0",
        "pipeline_wcc": "39cabb7b67e7b91ec4c8bcd3c543b0cd5cc39b3e92b470871cf8740338e31d5a",
        "pipeline_sortscan": "77906816b93536d3abd4baf83b4bd917169da72c7f9bd33fdff4036b10040ba7",
    }
