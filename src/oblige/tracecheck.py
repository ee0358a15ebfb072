"""Executable obliviousness checks: run stages on random secrets, diff traces.

Each registered stage builds fresh random secret inputs under one fixed
public configuration and runs on a fresh simulator.  If the per-worker trace
digests of any two trials differ, the stage leaks, and the first divergent
event is located by expanding the two traces side by side.

The deliberately leaky PageRank kernel variant (`pr_leaky`) exists as a
negative control: it performs one data-dependent access to a registered
non-OM probe region, which a sound recorder must catch.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import apps as apps_mod
from . import baselines
from .errors import ObliviousnessViolation, UsageError
from .grid import PublicParams, build_grid
from .omsim import ELEMENT, READ, OMSim
from .oprims import o_sort
from .pipeline import obfuscate_ids, run_end_to_end, vertex_mapping
from .scan import full_scan


@dataclass
class CheckConfig:
    """Fixed public parameters for one family of trials."""

    p: int = 4
    n: int = 256
    overlap: int = 32
    edges_per_party: int = 512
    om_bytes: int = 1 << 15
    workers: int = 2
    t: int = 1

    def salt(self):
        return b"tracecheck-salt!"[:16]


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
        mine = keys[idx]
        picks = rng.integers(0, window, size=(cfg.edges_per_party, 2))
        edges = [(int(mine[a]), int(mine[b])) for a, b in picks]
        parties.append(([int(x) for x in mine], edges))
    return parties


def _fixture_grid(rng, cfg, vwidth, block_length):
    params = PublicParams.derive(
        p=1, n_i=[cfg.n], n=cfg.n, t=cfg.t, s=cfg.om_bytes, vwidth=vwidth,
        l_i=[block_length],
    )
    m = cfg.edges_per_party
    edges = rng.integers(0, cfg.n, size=(m, 2))
    return build_grid(edges, params)


def _leaky_pr_kernel(sim):
    """PR kernel that also probes a non-OM table at a secret-derived offset.

    The scan calls its kernel once, so a scan makes one probe, at an offset
    derived from vertex 0's secret weight.
    """
    probe_len = 1 << 16
    sim.trace.register("leak.probe", probe_len, 8)

    def kernel(src_chunk, dst_chunk, soff, doff):
        apps_mod.APPS["pr"].kernel(src_chunk, dst_chunk, soff, doff)
        secret = int(src_chunk["weight"][0] * 1e6) % probe_len
        sim.trace.points(0, "leak.probe", READ, [secret])

    return kernel


# -- stage runners: each returns (sim, per-worker digests of the stage) -------

def _staged(sim, fn):
    start = sim.trace.mark()
    fn()
    return sim, sim.trace.worker_digests(start=start)


def _stage_o_sort(rng, cfg):
    sim = OMSim(cfg.om_bytes)
    rows = np.zeros(cfg.n, dtype=[("k", "<u8")])
    rows["k"] = rng.integers(0, 1 << 62, size=cfg.n)
    buf = sim.buffer_from_rows("chk.arr", rows)
    return _staged(sim, lambda: o_sort(buf, lambda b: b["k"], sim.new_arena()))


def _app_fixture(rng, cfg, sim, program):
    """A random grid and a random state buffer of `program`."""
    grid = _fixture_grid(rng, cfg, program.vwidth, cfg.edges_per_party)
    grid.symmetrized = program.symmetric
    state = program.initial(cfg.n)
    if state[program.field].dtype.kind == "f":
        state[program.field] = rng.random(cfg.n) + 0.25
    else:
        state[program.field] = rng.integers(0, cfg.n, size=cfg.n)
    if program.needs_degrees:
        state["degree"] = np.maximum(
            np.bincount(grid.row_order[0], minlength=cfg.n), 1)
    return grid, sim.buffer_from_rows(program.region, state)


def _stage_full_scan(rng, cfg):
    sim = OMSim(cfg.om_bytes)
    grid, state = _app_fixture(rng, cfg, sim, apps_mod.APPS["pr"])
    return _staged(sim, lambda: full_scan(
        grid, state, state, apps_mod.APPS["pr"].kernel, sim, workers=cfg.workers,
        out_name="chk.out"))


def _stage_full_scan_rows(rng, cfg):
    sim = OMSim(cfg.om_bytes)
    grid = _fixture_grid(rng, cfg, apps_mod.DEGREE_STATE.itemsize,
                         cfg.edges_per_party)
    return _staged(sim, lambda: apps_mod.compute_out_degrees(
        sim, grid, workers=cfg.workers))


def _stage_vertex_mapping(rng, cfg):
    sim = OMSim(cfg.om_bytes)
    parties = random_parties(rng, cfg)
    ids = [obfuscate_ids(keys, cfg.salt()) for keys, _ in parties]
    return _staged(sim, lambda: vertex_mapping(sim, ids, cfg.n))


def _run_pipeline(rng, cfg, app, engine="oblige", leaky=False):
    parties = random_parties(rng, cfg)
    program = apps_mod.APPS[app]
    source = parties[0][0][0] if program.needs_source else None
    sym = 2 if program.symmetric else 1
    override = [cfg.edges_per_party * sym] * cfg.p
    return run_end_to_end(
        parties, app, cfg.t, cfg.om_bytes, cfg.salt(), workers=cfg.workers,
        engine=engine, granularity=ELEMENT, source_key=source,
        declared_n=cfg.n, block_length_override=override,
    )


def _stage_of_pipeline(stage):
    # The stage's digest is its slice of a PR pipeline run with t=0, so no
    # iteration contributes.
    def runner(rng, cfg):
        _, report, sim = _run_pipeline(rng, replace(cfg, t=0), "pr")
        return sim, {None: report.stage_digests[stage]}

    return runner


def _stage_app_iteration(app):
    program = apps_mod.APPS[app]

    def runner(rng, cfg):
        sim = OMSim(cfg.om_bytes)
        grid, state = _app_fixture(rng, cfg, sim, program)
        return _staged(sim, lambda: apps_mod.iteration(
            sim, grid, state, program, workers=cfg.workers))

    return runner


def _stage_sortscan_iteration(rng, cfg):
    sim = OMSim(cfg.om_bytes)
    m = cfg.edges_per_party
    pairs = np.zeros(m, dtype=[("src", "<u8"), ("dst", "<u8")])
    pairs["src"] = rng.integers(0, cfg.n, size=m)
    pairs["dst"] = rng.integers(0, cfg.n, size=m)
    edges = sim.buffer_from_rows("ss.edgein", pairs)
    seed = sim.buffer_from_rows("ss.init", np.ones(cfg.n, dtype=[("weight", "<f8")]))
    kernel = baselines.SortScanKernel(apps_mod.APPS["pr"])
    elems = baselines.build_elements(seed, edges, kernel)
    elems.data["degree"][elems.data["kind"] == baselines.VERTEX] = 1
    arena = sim.new_arena()
    return _staged(sim, lambda: baselines.sortscan_iteration(
        elems, kernel, arena, sim))


def _stage_pr_leaky(rng, cfg):
    sim = OMSim(cfg.om_bytes)
    grid, state = _app_fixture(rng, cfg, sim, apps_mod.APPS["pr"])
    kernel = _leaky_pr_kernel(sim)
    return _staged(sim, lambda: full_scan(
        grid, state, state, kernel, sim, workers=cfg.workers, out_name="chk.out"))


def _stage_whole_pipeline(app, engine="oblige"):
    def runner(rng, cfg):
        results, report, sim = _run_pipeline(rng, cfg, app, engine=engine)
        return sim, sim.trace.worker_digests()

    return runner


STAGES = {
    "o_sort": _stage_o_sort,
    "full_scan": _stage_full_scan,
    "full_scan_rows": _stage_full_scan_rows,
    "vertex_mapping": _stage_vertex_mapping,
    "merge_grids": _stage_of_pipeline("merge_grids"),
    "post_process": _stage_of_pipeline("post_process"),
    **{app: _stage_app_iteration(app) for app in apps_mod.APPS},
    "sortscan": _stage_sortscan_iteration,
    "pr_leaky": _stage_pr_leaky,
    **{"pipeline_" + app: _stage_whole_pipeline(app) for app in apps_mod.APPS},
    "pipeline_sortscan": _stage_whole_pipeline("pr", engine="sortscan"),
}


def check_stage(stage, trials, seed, cfg=None):
    """Run `trials` random-secret executions; all stage digests must agree.

    Returns a report dict; raises :class:`ObliviousnessViolation` carrying
    the first divergent (worker, event index) otherwise, and
    :class:`UsageError` for a config no trial can run.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials to compare traces")
    cfg = cfg or CheckConfig()
    if min(cfg.workers, cfg.p, cfg.n, cfg.om_bytes) < 1 or cfg.edges_per_party < 0:
        raise UsageError("a check needs at least one worker, party, vertex and OM byte, "
                         "and no negative edge count: %r" % (cfg,))
    if cfg.n % cfg.p:
        raise UsageError("%d vertices do not split evenly over %d parties" % (cfg.n, cfg.p))
    if stage not in STAGES:
        raise ValueError("unknown stage %r (choose from %s)"
                         % (stage, ", ".join(sorted(STAGES))))
    rng = np.random.default_rng(seed)
    runner = STAGES[stage]
    base_sim, base_digests = runner(rng, cfg)
    for trial in range(1, trials):
        sim, digests = runner(rng, cfg)
        if digests != base_digests:
            where = base_sim.trace.first_divergence(sim.trace)
            worker, index = (where[0], where[1]) if where else (None, None)
            raise ObliviousnessViolation(
                "stage %r trace diverged on trial %d at worker=%s event=%s"
                % (stage, trial, worker, index),
                worker=worker, event_index=index,
            )
    return {"stage": stage, "trials": trials, "digests": base_digests}
