"""Acceptance gate: one test per shipped guarantee.

Each test prints one pass/fail line under pytest -v. Tolerances,
sample sizes, and runtime ceilings are stated inline; none of them are
tunable from outside this file.
"""
from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np
import pytest

from adclust.cli import main
from adclust.core import (REGION_ABNORMAL, REGION_NORMAL_CORE,
                          REGION_UNKNOWN, adclust, merge)
from adclust.dataset import Dataset, write_csv
from adclust.game import attacker_utility, build_tables, solve_follower, \
    solve_leader
from adclust.grid import build_grid, compute_density, compute_dt, compute_rt
from adclust.synthetic import game_preset, simulation_preset
from adclust.walls import (Wall, chi2_quantile, eta_of_alpha,
                           fit_euclidean_wall, fit_region_stats,
                           sample_gaussian, stats_from_moments)
from conftest import oracle_merge, oracle_thresholds


def test_criterion_01_grid_threshold_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for trial in range(50):
        n = int(rng.integers(10, 201))
        q = int(rng.integers(1, 4))
        scale = float(rng.uniform(0.5, 20.0))
        pts = rng.normal(size=(n, q)) * scale + rng.uniform(-5.0, 5.0)
        coef_rt = float(rng.choice([0.5, 1.0, 5.0, 20.0]))
        coef_dt = float(rng.choice([0.5, 0.95, 2.0]))

        grid = build_grid(pts, 0.075)
        rt, _, _ = compute_rt(grid, pts, coef_rt)
        n_p = compute_density(grid, pts, rt)
        dt, _ = compute_dt(grid, n_p, coef_dt)

        o_rt, _, _, o_np, o_dt, _ = oracle_thresholds(pts, coef_rt, coef_dt)
        assert rt == o_rt
        assert dt == o_dt
        np.testing.assert_array_equal(n_p, o_np)

        # all-pairs count under the documented distance convention
        diffs = pts[:, None, :] - pts[None, :, :]
        dmat = np.sqrt((diffs * diffs).sum(axis=-1))
        all_cnt = (dmat <= rt).sum(axis=1)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        m = min(max(1, math.floor(1.0 / 0.075)), n)
        sides = [(hi[j] - lo[j]) / m for j in range(q) if hi[j] > lo[j]]
        if sides and rt <= min(sides):
            np.testing.assert_array_equal(n_p, all_cnt)
        else:
            assert (n_p <= all_cnt).all()
    assert time.perf_counter() - start < 10.0


def test_criterion_02_merge_oracle_equivalence():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    for trial in range(100):
        n = int(rng.integers(2, 201))
        q = int(rng.integers(1, 4))
        pts = rng.normal(size=(300, q))
        point_ids = rng.choice(300, size=n, replace=False).astype(np.int64)
        stat = rng.uniform(0.0, 2.0, size=n)
        rt = float(rng.uniform(0.05, 1.5))
        expected, expected_un = oracle_merge(pts, point_ids, stat, 1.0, rt)
        expected = [c.tolist() for c in expected]
        for _ in range(10):
            perm = rng.permutation(n)
            clusters, un = merge(pts, point_ids[perm], stat[perm],
                                 dt=1.0, rt=rt)
            assert [c.tolist() for c in clusters] == expected
            assert un.tolist() == expected_un.tolist()
    assert time.perf_counter() - start < 30.0


def test_criterion_03_three_blob_layout_collapses_into_one_cluster():
    one_big = 0
    two_walls = 0
    purities = []
    for seed in range(20):
        dataset, truth, params = simulation_preset("sim2", seed=seed)
        result = adclust(dataset, params)
        sizes = [c.size for c in result.composition.clusters]
        dominant = [s for s in sizes if s >= 0.95 * dataset.n]
        if len(dominant) == 1:
            one_big += 1
        if len(result.walls) == 2:
            two_walls += 1
        inside = np.zeros(dataset.n, dtype=bool)
        for wall in result.walls:
            inside |= wall.contains(dataset.points)
        if inside.any():
            purities.append(float((truth[inside] == 1).mean()))
    assert one_big >= 18
    assert two_walls >= 18
    assert statistics.fmean(purities) >= 0.9


def test_criterion_04_remote_component_is_tagged_unknown():
    ok = 0
    for seed in range(20):
        dataset, truth, params = simulation_preset("sim3", seed=seed)
        result = adclust(dataset, params)
        region = result.composition.region[truth == 2]
        assert region.size == 100
        unknown = int((region == REGION_UNKNOWN).sum())
        mislabeled = int(((region == REGION_NORMAL_CORE) |
                          (region == REGION_ABNORMAL)).sum())
        if unknown >= 50 and mislabeled <= 5:
            ok += 1
    assert ok >= 18


def test_criterion_05_mixed_plus_outliers_shrink_with_weight():
    weights = (1.0, 10.0, 30.0, 50.0, 100.0)
    for seed in range(10):
        counts = []
        for k in weights:
            dataset, _, params = simulation_preset("sim1", seed=seed, k=k)
            result = adclust(dataset, params)
            c = result.composition.region_counts()
            counts.append(c["mixed_overlap"] + c["outlier"])
            slack = 0.02 * dataset.n
        rises = [(counts[i + 1] - counts[i])
                 for i in range(len(counts) - 1)
                 if counts[i + 1] > counts[i]]
        assert len(rises) <= 1
        assert all(r <= slack for r in rises)


def test_criterion_06_wall_coverage_and_closed_forms():
    base = stats_from_moments([1.0, -2.0], [[1.5, 0.4], [0.4, 1.0]])
    stats = fit_region_stats(sample_gaussian(base.mean, base.covariance,
                                             300, seed=61))
    fresh = sample_gaussian(stats.mean, stats.covariance, 10_000, seed=62)
    for alpha in (0.6, 0.8, 0.95):
        wall = fit_euclidean_wall(stats, alpha)
        assert abs(wall.contains(fresh).mean() - alpha) <= 0.02

    line = stats_from_moments([0.0], [[1.0]])
    for alpha in (0.6, 0.8, 0.95):
        eta = eta_of_alpha(line, alpha, seed=63)
        target = statistics.NormalDist().inv_cdf((1.0 + alpha) / 2.0)
        assert abs(eta - target) <= 0.05

    for alpha in np.arange(0.05, 0.995, 0.01):
        alpha = float(round(alpha, 3))
        assert abs(chi2_quantile(2, alpha) + 2.0 * math.log(1.0 - alpha)) \
            <= 1e-8


ONE_ADV_GAMES = [(f"one_adv_{family}", wall)
                 for family in ("log", "linear", "exp")
                 for wall in ("euclidean", "manhattan")]


def test_criterion_07_leader_is_more_conservative_than_follower():
    for name, wall_kind in ONE_ADV_GAMES:
        config = game_preset(name, wall_kind=wall_kind)
        start = time.perf_counter()
        tables = build_tables(config)
        leader = solve_leader(tables)
        follower = solve_follower(tables)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"{name}/{wall_kind} took {elapsed:.1f}s"
        assert leader.alpha <= follower.alpha, (name, wall_kind)
        assert leader.t[0] >= follower.t[0], (name, wall_kind)
        if name == "one_adv_log" and wall_kind == "euclidean":
            # regression band for the default draw, not ground truth
            assert 0.15 <= leader.alpha <= 0.45
            assert 0.85 <= follower.alpha <= 0.99


def test_criterion_08_tables_match_direct_evaluation_bitwise():
    rng = np.random.default_rng(808)
    for name in ("one_adv_log", "one_adv_linear", "one_adv_exp",
                 "three_adv_log", "three_adv_linear", "three_adv_exp"):
        config = game_preset(name, sample_size=2000)
        tables = build_tables(config)
        samples = [sample_gaussian(s.mean, s.cov, s.sample_size, s.seed)
                   for s in config.adversaries]
        m = len(samples)
        for probe in range(100):
            i = probe % m
            it = int(rng.integers(len(tables.ts)))
            ih = int(rng.integers(len(tables.alphas)))
            wall = Wall(kind=config.wall_kind, stats=tables.stats,
                        level=float(tables.alphas[ih]),
                        radius=float(tables.radii[ih]))
            direct = attacker_utility(config.utilities[i], samples[i],
                                      tables.mu_g, float(tables.ts[it]), wall)
            assert direct == tables.attacker[i][it, ih], (name, i, it, ih)


def _bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_criterion_09_reports_are_byte_deterministic(tmp_path):
    # cluster: three repeated runs on one simulated layout
    sim_csv = tmp_path / "sim1.csv"
    assert main(["simulate", "--preset", "sim1", "--seed", "0",
                 "--out", str(sim_csv)]) == 0
    cluster_args = ["cluster", "--input", str(sim_csv), "--k", "10",
                    "--alpha", "0.6", "--coef-rt", "0.9", "--coef-dt", "2.5",
                    "--bandwidth", "0.45", "--min-wall-size", "20",
                    "--seed", "0"]
    cluster_outs = []
    for run in range(3):
        out = tmp_path / f"cluster{run}"
        assert main([*cluster_args, "--out", str(out)]) == 0
        cluster_outs.append(out)
    for out in cluster_outs[1:]:
        assert _bytes(out / "report.json") == \
            _bytes(cluster_outs[0] / "report.json")
        assert _bytes(out / "regions.svg") == \
            _bytes(cluster_outs[0] / "regions.svg")

    # game: three repeated runs of one preset
    game_args = ["game", "--preset", "one_adv_log", "--orientation",
                 "leader", "--samples", "2000"]
    game_outs = []
    for run in range(3):
        out = tmp_path / f"game{run}"
        assert main([*game_args, "--out", str(out)]) == 0
        game_outs.append(out)
    for out in game_outs[1:]:
        assert _bytes(out / "report.json") == \
            _bytes(game_outs[0] / "report.json")
        assert _bytes(out / "landscape.csv") == \
            _bytes(game_outs[0] / "landscape.csv")

    # sweep: three single-worker runs plus a four-worker run; the
    # worker pool is the only threading knob the pipeline exposes
    rng = np.random.default_rng(9)
    pts = np.vstack([rng.normal((0.0, 0.0), 0.4, size=(60, 2)),
                     rng.normal((8.0, 0.0), 0.4, size=(60, 2))])
    labels = np.full(120, -1, dtype=np.int8)
    labels[:4] = 1
    labels[60:64] = 0
    blob_csv = tmp_path / "blobs.csv"
    write_csv(str(blob_csv), Dataset(pts, labels))
    config = tmp_path / "sweep.ini"
    config.write_text("[cluster]\ncoef_rt = 0.9\nbandwidth = 0.5\n"
                      "min_wall_size = 10\n")
    sweep_args = ["sweep", "--kind", "weight", "--input", str(blob_csv),
                  "--config", str(config), "--seed", "0"]
    sweep_outs = []
    for run, workers in enumerate((1, 1, 1, 4)):
        out = tmp_path / f"sweep{run}"
        assert main([*sweep_args, "--workers", str(workers),
                     "--out", str(out)]) == 0
        sweep_outs.append(out)
    names = sorted(p.name for p in sweep_outs[0].glob("report_*.json"))
    assert len(names) == 5
    for out in sweep_outs[1:]:
        assert _bytes(out / "aggregate.csv") == \
            _bytes(sweep_outs[0] / "aggregate.csv")
        assert sorted(p.name for p in out.glob("report_*.json")) == names
        for name in names:
            assert _bytes(out / name) == _bytes(sweep_outs[0] / name)

    # timing sidecars exist but are excluded from the determinism claim
    for out in (*cluster_outs, *game_outs, *sweep_outs):
        assert json.loads(_bytes(out / "timing.json"))["wall_seconds"] >= 0
