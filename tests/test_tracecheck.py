"""The trace-equality harness itself: stage coverage and the negative control."""

import pytest

from oblige.errors import ObliviousnessViolation
from oblige.tracecheck import STAGES, CheckConfig, check_stage

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


def test_trials_precondition():
    with pytest.raises(ValueError):
        check_stage("pr", trials=1, seed=0)


def test_unknown_stage_rejected():
    with pytest.raises(ValueError):
        check_stage("nope", trials=2, seed=0)


def test_stage_registry_covers_required_surface():
    required = {"o_sort", "full_scan", "full_scan_rows", "vertex_mapping",
                "merge_grids", "post_process", "pr", "bfs", "wcc", "sortscan"}
    assert required <= set(STAGES)
