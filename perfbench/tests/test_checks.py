"""Every output check passes on real output and fails on a corrupted copy.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import copy
import csv
import dataclasses
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from adclust.core import AdclustParams, adclust  # noqa: E402
from adclust.game import solve_game  # noqa: E402
from adclust.synthetic import game_preset, simulation_preset  # noqa: E402


@pytest.fixture(scope="module")
def clustered():
    dataset, _, params = simulation_preset("sim3", seed=4)
    return dataset, params, adclust(dataset, params)


@pytest.fixture(scope="module")
def expected(clustered):
    dataset, params, _ = clustered
    return checks.recompute_thresholds(dataset.points, params.coef_rt, params.coef_dt,
                                       params.target_fraction, params.log_base)


def test_clustering_checks_pass_on_real_output(clustered):
    dataset, params, result = clustered
    verdicts = checks.clustering_checks(dataset, params, result)
    assert [v.name for v in verdicts if not v.passed] == []


def test_thresholds_fail_on_rt_one_ulp_off(clustered, expected):
    dataset, params, result = clustered
    bad = copy.deepcopy(result)
    bad.thresholds.rt = float(np.nextafter(bad.thresholds.rt, np.inf))
    assert checks.check_thresholds(bad, expected).passed is False


def test_thresholds_fail_on_one_density_off(clustered, expected):
    dataset, params, result = clustered
    bad = copy.deepcopy(result)
    bad.profile.density_point[7] += 1
    assert not checks.check_thresholds(bad, expected).passed


def test_thresholds_close_allows_an_ulp_and_nothing_more(clustered, expected):
    _, _, result = clustered
    assert checks.check_thresholds_close(result, expected).passed
    near = copy.deepcopy(result)
    near.thresholds.rt = float(np.nextafter(near.thresholds.rt, np.inf))
    near.profile.avg_dist_point[3] = np.nextafter(near.profile.avg_dist_point[3], 0)
    assert checks.check_thresholds_close(near, expected).passed
    far = copy.deepcopy(result)
    far.profile.avg_dist_point[3] *= 1 + 1e-12
    assert not checks.check_thresholds_close(far, expected).passed
    counts = copy.deepcopy(result)
    counts.profile.density_point[7] += 1
    assert not checks.check_thresholds_close(counts, expected).passed


def test_q8_known_fault_fails_every_operation_and_nothing_else():
    # distances of 8-d rows are summed pairwise by numpy, not in
    # dimension order, so the exact check fails on a(p) and only there
    wl = workloads.cluster_q8(0, "")
    wl.dataset = workloads.three_blobs(8, (180, 180, 40), 0)
    first = {0: wl.run(None)}
    verdicts, failed = worker.check_outputs(wl, first, [5])
    by_name = {name: (passed, fault) for name, passed, _, fault in verdicts}
    assert by_name.pop("thresholds[op0]") == (False, True)
    assert failed == 5
    assert all(passed and not fault for passed, fault in by_name.values())


def test_an_unknown_failure_is_not_counted_as_the_known_fault(clustered):
    dataset, params, result = clustered
    wl = workloads.Clustering(dataset, params, known_fault="thresholds")
    bad = copy.deepcopy(result)
    bad.composition.region[np.flatnonzero(bad.composition.region
                                          == checks.NORMAL_CORE)[0]] = checks.OUTLIER
    verdicts, failed = worker.check_outputs(wl, {0: bad}, [3])
    assert failed == 0
    assert ("region_partition[op0]", False) in [(n, p) for n, p, _, _ in verdicts]
    assert not any(fault for *_, fault in verdicts)


def test_global_clusters_fail_when_a_point_moves(clustered, expected):
    dataset, params, result = clustered
    graph = checks.rt_graph(dataset.points, expected.rt)
    assert checks.check_global_clusters(result, graph, expected.n_p, expected.dt).passed
    assert graph.ties == 0
    bad = copy.deepcopy(result)
    clusters = bad.composition.clusters
    assert len(clusters) >= 2
    moved = clusters[0][-1]
    clusters[0] = clusters[0][:-1]
    clusters[1] = np.sort(np.append(clusters[1], moved))
    assert not checks.check_global_clusters(bad, graph, expected.n_p, expected.dt).passed


@pytest.mark.parametrize("tag", [checks.MIXED, checks.OUTLIER, 7])
def test_partition_fails_on_one_retagged_point(clustered, tag):
    _, _, result = clustered
    bad = copy.deepcopy(result)
    region = bad.composition.region
    region[np.flatnonzero(region == checks.NORMAL_CORE)[0]] = tag
    assert not checks.check_partition(bad).passed


def test_anchor_fails_without_labels_of_the_class(clustered):
    dataset, _, result = clustered
    assert checks.check_anchors(dataset.labels, result).passed
    sub = next(sc for sc in result.composition.sub_clusters if sc.class_tag == "normal")
    labels = dataset.labels.copy()
    labels[sub.members] = -1
    assert not checks.check_anchors(labels, result).passed


def test_protected_fails_on_one_flipped_point(clustered):
    dataset, params, result = clustered
    bad = copy.deepcopy(result)
    bad.protected[np.flatnonzero(bad.protected)[0]] = False
    assert not checks.check_protected(dataset.points, params, bad).passed


def test_protected_follows_the_ridge_of_a_two_point_wall():
    # seed 209 gives a normal sub-cluster of two points in 7-d, whose
    # covariance is singular until ridged
    dataset = workloads.three_blobs(7, (900, 900, 200), 209)
    params = AdclustParams(coef_rt=0.1, seed=209)
    result = adclust(dataset, params)
    assert any(w.stats.ridged for w in result.walls)
    assert checks.check_protected(dataset.points, params, result).passed


def test_cluster_digest_changes_when_a_point_changes_region(clustered):
    dataset, params, result = clustered
    wl = workloads.Clustering.__new__(workloads.Clustering)
    bad = copy.deepcopy(result)
    bad.composition.region[0] = (bad.composition.region[0] + 1) % 5
    assert wl.digest(None, bad) != wl.digest(None, result)


@pytest.fixture(scope="module")
def game():
    config = game_preset("three_adv_log", sample_size=2000)
    out = {}
    for orientation in ("leader", "follower"):
        eq, tables = solve_game(config, orientation)
        out[orientation] = (eq, tables)
    return config, out


@pytest.mark.parametrize("orientation", ["leader", "follower"])
def test_equilibrium_fails_on_shifted_alpha_index(game, orientation):
    config, out = game
    eq, tables = out[orientation]
    assert checks.check_equilibrium(config, eq, tables).passed
    bad = dataclasses.replace(eq, alpha_index=eq.alpha_index - 1,
                              alpha=float(tables.alphas[eq.alpha_index - 1]))
    assert not checks.check_equilibrium(config, bad, tables).passed


def test_table_cells_fail_on_one_changed_cell(game):
    config, out = game
    _, tables = out["leader"]
    samples = [checks.draw_population(spec) for spec in config.adversaries]
    cells = checks.sampled_cells(tables, 8, seed=[0, 0])
    assert checks.check_tables(config, tables, samples, cells).passed
    bad = copy.deepcopy(tables)
    i, it, ih = cells[3]
    bad.attacker[i][it, ih] = np.nextafter(bad.attacker[i][it, ih], np.inf)
    assert not checks.check_tables(config, bad, samples, cells).passed


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    wl = workloads.Sweep(0, str(tmp_path_factory.mktemp("sweep")))
    op = next(op for op in wl.ops if op[0] == "weight")
    return wl, op, wl.run(op)


def _rewrite_aggregate(out, change):
    path = os.path.join(out, "aggregate.csv")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    change(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _copy_out(sweep, tmp_path):
    _, _, out = sweep
    dst = str(tmp_path / "out")
    shutil.copytree(out, dst)
    return dst


def test_sweep_checks_pass_on_real_output(sweep):
    wl, op, out = sweep
    assert [v.name for v in wl.check(0, op, out) if not v.passed] == []


def test_aggregate_fails_on_a_changed_row(sweep, tmp_path):
    out = _copy_out(sweep, tmp_path)

    def bump(rows):
        rows[2]["outlier_count"] = str(int(rows[2]["outlier_count"]) + 1)
    _rewrite_aggregate(out, bump)
    assert not checks.check_aggregate(out).passed


def test_weight_trend_fails_on_two_rises(sweep, tmp_path):
    out = _copy_out(sweep, tmp_path)

    def zigzag(rows):
        for row, count in zip(rows, (10, 12, 8, 11, 5)):
            row["mixed_plus_outliers"] = str(count)
    _rewrite_aggregate(out, zigzag)
    assert not checks.check_weight_trend(out).passed


def test_sweep_digest_changes_on_one_report_byte(sweep, tmp_path):
    wl, op, _ = sweep
    out = _copy_out(sweep, tmp_path)
    before = wl.digest(op, out)
    name = sorted(n for n in os.listdir(out) if n.startswith("report_"))[0]
    path = os.path.join(out, name)
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[len(data) // 2] ^= 1
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    assert wl.digest(op, out) != before
