"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.  The
performance criteria (5 and 6) time both engines with recording disabled on
the same machine, so the reported ratios are work ratios, not recorder
artifacts.
"""

import time

import numpy as np
import pytest

from oblige.apps import APPS, run_app
from oblige.baselines import reference_run, sortscan_on_grid
from oblige.cli import DEFAULT_OM, main
from oblige.grid import EDGE_DTYPE, RESERVE_BYTES, decode_block, encode_block
from oblige.kron import assign_parties, generate_kronecker, split_parties
from oblige.omsim import OMSim
from oblige.oprims import bitonic_cx_count, o_sort
from oblige.pipeline import (
    Party,
    ids_from_bytes,
    map_return_payload,
    merge_grids,
    obfuscate_ids,
    run_end_to_end,
    vertex_mapping,
)
from oblige.grid import PublicParams
from oblige.tracecheck import CheckConfig, check_stages

SALT = b"acceptance-salt!"[:16]


def criterion(number, name, ok, detail=""):
    print("ACCEPTANCE %2d %-24s %s  %s"
          % (number, name, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d (%s) failed: %s" % (number, name, detail)


# -- 1: obliviousness suite ----------------------------------------------------

def test_criterion_1_obliviousness_suite():
    cfg = CheckConfig(n=4096, p=4, overlap=64, edges_per_party=2048,
                      om_bytes=1 << 15, workers=2)
    stages = ["o_sort", "full_scan", "full_scan_rows", "vertex_mapping",
              "merge_grids", "post_process", "pr", "bfs", "wcc", "sortscan"]
    start = time.perf_counter()
    check_stages(stages, trials=20, seed=101, cfg=cfg)
    elapsed = time.perf_counter() - start
    criterion(1, "obliviousness-suite", elapsed < 120,
              "10 stages x 20 trials in %.1fs" % elapsed)


# -- 2: negative control ---------------------------------------------------------

def test_criterion_2_negative_control(capsys):
    code = main(["trace-check", "--stage", "pr", "--leaky", "--trials", "5",
                 "--seed", "7", "--vertices", "256", "--parties", "2",
                 "--edges", "256", "--om", "32KiB"])
    out = capsys.readouterr().out
    located = code == 1 and "FAIL" in out and "worker" in out and "event" in out
    with capsys.disabled():
        criterion(2, "negative-control", located, out.strip())


# -- 3: oracle equivalence --------------------------------------------------------

def _build_parties(n, src, dst, p, seed):
    owner = assign_parties(n, p, "random", seed)
    return [Party(i, keys, edges, SALT)
            for i, (keys, edges) in enumerate(split_parties(src, dst, owner, p))]


def _merged_grid(parties, n, app, om_bytes):
    spec = APPS[app]
    sim = OMSim(om_bytes, enabled=False)
    arrays = [ids_from_bytes(p.vertex_submit_payload()) for p in parties]
    global_map, maps = vertex_mapping(sim, arrays, n)
    for party, mbuf in zip(parties, maps):
        party.receive_mapping(map_return_payload(sim, mbuf))
    params = PublicParams.derive(
        p=len(parties), n_i=[p.n_vertices for p in parties], n=n, t=10,
        s=om_bytes, vwidth=spec.vwidth)
    lengths = [p.block_occupancy(params, symmetrize=spec.symmetric)
               for p in parties]
    full = params.with_block_lengths(lengths)
    payloads = [p.grid_submit_payload(full, full.l_i[p.index],
                                      symmetrize=spec.symmetric)
                for p in parties]
    grid = merge_grids(sim, payloads, full, symmetrized=spec.symmetric)
    return sim, grid, global_map


def _rank_of(parties):
    all_ids = np.concatenate([p.ids for p in parties])
    uniq = np.unique(all_ids)
    return {(int(r["h"]), int(r["l"])): i for i, r in enumerate(uniq)}


def test_criterion_3_oracle_equivalence():
    t = 10
    om = DEFAULT_OM
    checked = 0
    start = time.perf_counter()
    for idx in range(50):
        n_scale = 8 + idx % 5
        m_scale = min(n_scale + 2 * ((idx // 5) % 3), 14)
        n = 1 << n_scale
        src, dst = generate_kronecker(n_scale, 1 << m_scale, seed=1000 + idx)

        rank_ready = None
        refs = {}
        for split in range(5):
            p = (2, 3, 4, 5, 2)[split]
            parties = _build_parties(n, src, dst, p, seed=split * 31 + idx)
            if rank_ready is None:
                rank_ready = _rank_of(parties)
                msrc = np.array([rank_ready[(int(r["h"]), int(r["l"]))]
                                 for r in obfuscate_ids(src.tolist(), SALT)])
                mdst = np.array([rank_ready[(int(r["h"]), int(r["l"]))]
                                 for r in obfuscate_ids(dst.tolist(), SALT)])
                source = rank_ready[
                    (int(obfuscate_ids([0], SALT)[0]["h"]),
                     int(obfuscate_ids([0], SALT)[0]["l"]))]
                ssrc = np.concatenate([msrc, mdst])
                sdst = np.concatenate([mdst, msrc])
                refs["pr"] = reference_run(APPS["pr"], n, msrc, mdst, t)
                refs["bfs"] = reference_run(APPS["bfs"], n, msrc, mdst, t, source=source)
                refs["wcc"] = reference_run(APPS["wcc"], n, ssrc, sdst, t)

            for app in ("pr", "bfs", "wcc"):
                sim, grid, global_map = _merged_grid(parties, n, app, om)
                source_id = obfuscate_ids([0], SALT)[0] if app == "bfs" else None
                spec = APPS[app]
                state = run_app(sim, grid, global_map, spec, t,
                                source_id=source_id)
                got = state.data[spec.field]
                if app == "pr":
                    np.testing.assert_allclose(got, refs["pr"], rtol=1e-9)
                else:
                    assert (got == refs[app]).all(), (idx, split, app)

                bits = sortscan_on_grid(sim, grid, global_map, spec, t,
                                        source_id=source_id)
                vals = spec.bits_to_values(bits.data["result"])
                if app == "pr":
                    np.testing.assert_allclose(vals, refs["pr"], rtol=1e-9)
                else:
                    assert (vals == refs[app]).all(), (idx, split, app)
                checked += 1
    elapsed = time.perf_counter() - start
    criterion(3, "oracle-equivalence", checked == 50 * 5 * 3,
              "%d engine pairs checked in %.0fs" % (checked, elapsed))


# -- 4: OM budget ---------------------------------------------------------------

def test_criterion_4_om_budget():
    parties = [(list(range(0, 40)), [(i, (i * 7) % 40) for i in range(40)]),
               (list(range(20, 64)), [(i, 20 + (i * 3) % 44) for i in range(20, 64)])]
    _, _, sim = run_end_to_end(parties, "pr", 3, 1 << 16, SALT, workers=2)
    within = all(arena.peak <= arena.capacity for arena in sim.arenas)

    # exactness of the scan budget on a grid where every worker owns columns
    from oblige.grid import build_grid

    vwidth = APPS["pr"].vwidth
    k = 16
    params = PublicParams.derive(p=1, n_i=[64], n=64, t=1,
                                 s=2 * k * vwidth + RESERVE_BYTES,
                                 vwidth=vwidth, l_i=[96])
    rng = np.random.default_rng(3)
    grid = build_grid(rng.integers(0, 64, size=(96, 2)), params)
    sim2 = OMSim(params.s)
    run_app(sim2, grid, None, APPS["pr"], 1, workers=2)
    expect = 2 * k * vwidth + RESERVE_BYTES
    exact = sim2.last_scan_peaks == [expect, expect]
    within2 = all(arena.peak <= arena.capacity for arena in sim2.arenas)
    criterion(4, "om-budget", within and within2 and exact,
              "scan peaks %s == %d" % (sim2.last_scan_peaks, expect))


# -- 5 and 6: scaled performance --------------------------------------------------

@pytest.fixture(scope="module")
def om_sweep():
    from oblige.cli import _bench_once

    rows = {}
    for factor in (0.25, 0.5, 1.0, 2.0, 4.0):
        om = int(DEFAULT_OM * factor)
        tob = _bench_once("pr", 16, 18, om, 2, 0, 4, "oblige")
        tss = _bench_once("pr", 16, 18, om, 2, 0, 4, "sortscan")
        rows[factor] = (tob, tss)
    return rows


def test_criterion_5_speedup_floor(om_sweep):
    tob, tss = om_sweep[1.0]
    speedup = tss / tob
    criterion(5, "speedup-floor-5x", speedup >= 5.0,
              "n=2^16 m=2^18 om=1.25MiB: oblige %.4fs/iter, sortscan %.4fs/iter"
              " -> %.0fx" % (tob, tss, speedup))


def test_criterion_6_om_size_sweep(om_sweep):
    oblige_times = [om_sweep[f][0] for f in (0.25, 0.5, 1.0, 2.0, 4.0)]
    spread = max(oblige_times) / min(oblige_times)
    always_faster = all(om_sweep[f][0] < om_sweep[f][1]
                        for f in (0.25, 0.5, 1.0, 2.0, 4.0))
    criterion(6, "om-size-sweep", spread < 3.0 and always_faster,
              "oblige spread %.2fx, faster at all 5 points: %s"
              % (spread, always_faster))


# -- 7: wire format ---------------------------------------------------------------

def test_criterion_7_wire_format():
    block = np.zeros(2, dtype=EDGE_DTYPE)
    block[0] = (1, 0, 0)
    block[1] = (0, 0, 1)
    worked = encode_block(block, 2) == b"\xa1"

    rng = np.random.default_rng(77)
    ok = True
    for _ in range(10_000):
        k = int(rng.integers(1, 64))
        l = int(rng.integers(0, 10))
        r = int(rng.integers(0, 4))
        c = int(rng.integers(0, 4))
        blk = np.zeros(l, dtype=EDGE_DTYPE)
        nulls = rng.random(l) < 0.3
        blk["pad"] = nulls
        blk["src"] = np.where(nulls, 0, r * k + rng.integers(0, k, size=l))
        blk["dst"] = np.where(nulls, 0, c * k + rng.integers(0, k, size=l))
        blob = encode_block(blk, k)
        if not (decode_block(blob, k, l, r, c) == blk).all():
            ok = False
            break
    criterion(7, "wire-format", worked and ok,
              "worked example 0xa1: %s, 10^4 random blocks: %s" % (worked, ok))


# -- 8: sort complexity -----------------------------------------------------------

def test_criterion_8_sort_complexity():
    length, om_records = 1 << 14, 1 << 10
    rows = np.zeros(length, dtype=[("k", "<u8")])
    scratch_itemsize = 1 + 8 + 8 + rows.dtype.itemsize
    sim = OMSim(om_records * scratch_itemsize)
    rng = np.random.default_rng(5)
    rows["k"] = rng.integers(0, 1 << 62, size=length)
    buf = sim.buffer_from_rows("arr", rows)
    stats = o_sort(buf, lambda b: b["k"], sim.new_arena())
    analytic = bitonic_cx_count(length, om_records)
    ok = (stats["segment"] == om_records
          and stats["compare_exchanges"] == analytic
          and (buf.data["k"] == np.sort(rows["k"])).all())
    criterion(8, "sort-complexity", ok,
              "cx=%d analytic=%d segment=%d"
              % (stats["compare_exchanges"], analytic, stats["segment"]))


# -- 9: partition invariance -------------------------------------------------------

def test_criterion_9_partition_invariance():
    n_scale, m_scale, t = 10, 12, 10
    n = 1 << n_scale
    src, dst = generate_kronecker(n_scale, 1 << m_scale, seed=99)
    baselines_by_app = {}
    ok = True
    for app in ("pr", "bfs", "wcc"):
        for p in (1, 2, 3, 5):
            owner = assign_parties(n, p, "random", seed=p * 13)
            parties = split_parties(src, dst, owner, p)
            got, _, _ = run_end_to_end(
                parties, app, t, DEFAULT_OM, SALT, engine="oblige",
                record=False, source_key=0 if app == "bfs" else None)
            combined = {}
            for res in got.values():
                combined.update(res)
            if app not in baselines_by_app:
                baselines_by_app[app] = combined
                continue
            base = baselines_by_app[app]
            if set(base) != set(combined):
                ok = False
            for key in base:
                if app == "pr":
                    if abs(combined[key] - base[key]) > 1e-9 * abs(base[key]):
                        ok = False
                elif combined[key] != base[key]:
                    ok = False
    criterion(9, "partition-invariance", ok, "p in {1,2,3,5}, 3 apps, t=10")


# -- 10: fixed point ---------------------------------------------------------------

def test_criterion_10_pr_fixed_point():
    parties = [([0, 1], [(0, 1), (1, 0)])]
    got, _, _ = run_end_to_end(parties, "pr", 100, 1 << 16, SALT, record=False)
    drift = max(abs(got[0][0] - 1.0), abs(got[0][1] - 1.0))
    criterion(10, "pr-fixed-point", drift <= 1e-12,
              "t=100 drift %.3g" % drift)
