"""Executable obliviousness checks: whole-pipeline trials on random secrets.

Each trial runs `run_end_to_end` on fresh `random_parties` under one fixed
public configuration.  A stage compares one named trace window across trials
(`AccessTrace.window`): a pipeline stage, a primitive or the whole trace; a
name that closes several windows (every o_sort, one scan per round) compares
the list of their per-worker digests.  If two trials differ, the stage leaks,
and the first divergent event is located inside the first window that
differs.  The stages of one app and engine checked in one `check_stages`
call share its trials; nothing is kept between calls.  The leaky PageRank
scan (`pr_leaky`), the one check outside the pipeline, is the negative
control: its kernel makes one data-dependent access to a non-OM probe
region.
"""

from dataclasses import dataclass

import numpy as np

from . import apps as apps_mod
from .errors import ObliviousnessViolation, UsageError
from .grid import PublicParams, build_grid
from .omsim import ELEMENT, READ, OMSim
from .pipeline import run_end_to_end
from .scan import full_scan

CHECK_SALT = b"tracecheck-salt!"  # every trial's parties share it


@dataclass
class CheckConfig:
    """Fixed public parameters for one family of trials."""

    p: int = 4
    n: int = 256
    overlap: int = 32
    edges_per_party: int = 512
    om_bytes: int = 1 << 15
    workers: int = 2


def random_parties(rng, cfg):
    """Random multi-party inputs with a fixed public shape.

    Party i owns a window of size n/p + overlap over a random permutation of
    n random raw keys, so {n_i}, N and the distinct count n never vary while
    every key value, overlap membership and edge is fresh per trial.
    """
    stride = cfg.n // cfg.p
    window = stride + cfg.overlap
    # Draw with headroom and dedupe; collisions in a 62-bit space are
    # negligible but would silently change the public n.
    draw = np.unique(rng.integers(0, 1 << 62, size=2 * cfg.n))
    assert len(draw) >= cfg.n
    keys = rng.permutation(draw)[:cfg.n]
    perm = rng.permutation(cfg.n)
    parties = []
    for i in range(cfg.p):
        idx = perm[(i * stride + np.arange(window)) % cfg.n]
        mine = keys[idx].astype(np.uint64)
        picks = rng.integers(0, window, size=(cfg.edges_per_party, 2))
        parties.append((mine, mine[picks]))
    return parties


def _trial_trace(rng, cfg, app, engine):
    """The trace of one trial; engine None is the leaky scan."""
    if engine is None:
        return _leaky_scan(rng, cfg).trace
    parties = random_parties(rng, cfg)
    program = apps_mod.APPS[app]
    override = [cfg.edges_per_party * (2 if program.symmetric else 1)] * cfg.p
    return run_end_to_end(  # one round of the app
        parties, app, 1, cfg.om_bytes, CHECK_SALT, workers=cfg.workers,
        engine=engine, granularity=ELEMENT, block_length_override=override,
        source_key=parties[0][0][0] if program.needs_source else None,
    )[2].trace


def _leaky_scan(rng, cfg):
    """A PR `full_scan` of a random grid whose kernel probes at vertex 0's secret weight."""
    program, probe_len = apps_mod.APPS["pr"], 1 << 16
    params = PublicParams.derive(p=1, n_i=[cfg.n], n=cfg.n, t=1, s=cfg.om_bytes,
                                 vwidth=program.vwidth, l_i=[cfg.edges_per_party])
    grid = build_grid(rng.integers(0, cfg.n, size=(cfg.edges_per_party, 2)), params)
    state = program.initial(cfg.n)
    state[program.field] = rng.random(cfg.n) + 0.25
    sim = OMSim(cfg.om_bytes)
    sim.trace.register("leak.probe", probe_len, 8)

    def kernel(src, dst, soff, doff):
        program.kernel(src, dst, soff, doff)
        secret = int(src[program.field][0] * 1e6) % probe_len
        sim.trace.points(0, "leak.probe", READ, [secret])

    buf = sim.buffer_from_rows(program.region, state)
    full_scan(grid, buf, buf, kernel, sim, workers=cfg.workers)
    return sim


STAGES = {  # name -> (app, engine, window); window None is the whole trace
    **{w: ("pr", "oblige", w) for w in ("o_sort", "full_scan", "full_scan_rows",
                                        "vertex_mapping", "merge_grids", "post_process")},
    **{app: (app, "oblige", "compute") for app in apps_mod.APPS},
    "sortscan": ("pr", "sortscan", "compute"),
    "pr_leaky": ("pr", None, "full_scan"),  # engine None: `_leaky_scan`, no pipeline
    **{"pipeline_" + app: (app, "oblige", None) for app in apps_mod.APPS},
    "pipeline_sortscan": ("pr", "sortscan", None),
}


def _spans(trace, window):
    """(start, end) marks of every window named `window`, in closing order."""
    return [(None, None)] if window is None else \
        [(s, e) for name, s, e in trace.windows if name == window]


def _window_digests(trace, spans):
    """{(i, worker): digest} of the i-th span."""
    return {(i, w): d for i, (s, e) in enumerate(spans)
            for w, d in trace.worker_digests(s, e).items()}


def check_stage(stage, trials, seed, cfg=None):
    """`check_stages` of one stage: its report."""
    return check_stages([stage], trials, seed, cfg)[0]


def check_stages(stages, trials, seed, cfg=None):
    """Run `trials` random-secret executions; all window digests must agree.

    The stages of one app and engine share trials 0..trials-1 of `seed`, so
    each such group runs `trials` executions, whatever its size.  Returns
    one report dict per stage, in order; raises
    :class:`ObliviousnessViolation` carrying the stage's window and the
    first divergent (worker, event index) otherwise, and
    :class:`UsageError` for a config no trial can run.
    """
    if trials < 2:
        raise UsageError("a check compares at least 2 trials, not %r" % (trials,))
    cfg = cfg or CheckConfig()
    if min(cfg.workers, cfg.p, cfg.n, cfg.om_bytes) < 1 or cfg.edges_per_party < 0:
        raise UsageError("a check needs at least one worker, party, vertex and OM byte, "
                         "and no negative edge count: %r" % (cfg,))
    if cfg.n % cfg.p:
        raise UsageError("%d vertices do not split evenly over %d parties" % (cfg.n, cfg.p))
    groups = {}  # (app, engine) -> {stage: window}, both in first-seen order
    for stage in stages:
        if stage not in STAGES:
            raise ValueError("unknown stage %r (choose from %s)"
                             % (stage, ", ".join(sorted(STAGES))))
        app, engine, window = STAGES[stage]
        groups.setdefault((app, engine), {})[stage] = window
    reports = {}
    for (app, engine), windows in groups.items():
        rng = np.random.default_rng(seed)
        base = _trial_trace(rng, cfg, app, engine)
        base_spans = {stage: _spans(base, window) for stage, window in windows.items()}
        for stage, window in windows.items():
            digests = _window_digests(base, base_spans[stage])
            if not digests:
                raise UsageError("stage %r closes no %r window at %r" % (stage, window, cfg))
            reports[stage] = {"stage": stage, "trials": trials, "digests": digests}
        for t in range(1, trials):
            trace = _trial_trace(rng, cfg, app, engine)
            for stage, window in windows.items():
                spans = _spans(trace, window)
                if _window_digests(trace, spans) == reports[stage]["digests"]:
                    continue
                where = next(filter(None, (base.first_divergence(trace, mine, theirs)
                                           for mine, theirs in zip(base_spans[stage], spans))),
                             None)
                worker, index = where[:2] if where else (None, None)
                raise ObliviousnessViolation(
                    "stage %r window %r diverged on trial %d at worker=%s event=%s"
                    % (stage, window or "whole trace", t, worker, index),
                    worker=worker, event_index=index, window=window)
    return [reports[stage] for stage in stages]
