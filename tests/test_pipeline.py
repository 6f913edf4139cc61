"""Three-pass composition: labeled passes, matching, and the full run."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from adclust.cli import WALL_ALPHA_GRID, WALL_K_GRID
from adclust.core import (REGION_ABNORMAL, REGION_MIXED, REGION_NORMAL_CORE,
                          REGION_OUTLIER, REGION_UNKNOWN, AdclustParams,
                          SubCluster, adclust, finish, match, pass1_labeled,
                          pass2_residual, prepare)
from adclust.dataset import Dataset
from adclust.errors import InsufficientLabelsError, ValidationError
from adclust.grid import rt_graph
from adclust.synthetic import simulation_preset
from conftest import oracle_distance


def col(values):
    return np.asarray(values, dtype=np.float64).reshape(-1, 1)


def members(sub_list):
    return [set(sc.members.tolist()) for sc in sub_list]


def test_pass1_each_sign_merges_separately():
    pts = col([0.0, 0.3, 5.0, 5.3, 10.0])
    labels = np.array([1, -1, 0, -1, -1], dtype=np.int8)
    rho = np.array([2.0, 1.5, -2.0, -1.5, 0.0])
    normal_subs, abnormal_subs, conflicted, remaining = pass1_labeled(
        pts, labels, rho, dt=1.0, rt=0.5, graph=rt_graph(pts, 0.5))
    assert members(normal_subs) == [{0, 1}]
    assert members(abnormal_subs) == [{2, 3}]
    assert all(sc.class_tag == "normal" for sc in normal_subs)
    assert all(sc.class_tag == "abnormal" for sc in abnormal_subs)
    assert all(sc.pass_origin == 1 for sc in normal_subs + abnormal_subs)
    assert remaining.tolist() == [4]
    assert conflicted.size == 0


def test_pass1_group_without_genuine_label_dissolves():
    pts = col([0.0, 0.3, 10.0, 10.3, 20.0, 20.3])
    labels = np.array([1, -1, -1, -1, 0, -1], dtype=np.int8)
    rho = np.array([2.0, 2.0, 2.0, 2.0, -2.0, -2.0])
    normal_subs, abnormal_subs, _, remaining = pass1_labeled(
        pts, labels, rho, dt=1.0, rt=0.5, graph=rt_graph(pts, 0.5))
    assert members(normal_subs) == [{0, 1}]
    assert members(abnormal_subs) == [{4, 5}]
    assert sorted(remaining.tolist()) == [2, 3]


def test_pass1_zero_weight_point_sits_out():
    pts = col([0.0, 0.1, 0.2])
    labels = np.array([1, -1, 0], dtype=np.int8)
    rho = np.array([2.0, 0.0, -2.0])
    normal_subs, abnormal_subs, _, remaining = pass1_labeled(
        pts, labels, rho, dt=1.0, rt=0.5, graph=rt_graph(pts, 0.5))
    assert members(normal_subs) == [{0}]
    assert members(abnormal_subs) == [{2}]
    assert remaining.tolist() == [1]


def test_pass1_conflicted_point_near_both_classes():
    pts = col([0.0, 1.0, 0.5])
    labels = np.array([1, 0, -1], dtype=np.int8)
    rho = np.array([2.0, -2.0, 0.0])
    _, _, conflicted, remaining = pass1_labeled(
        pts, labels, rho, dt=1.0, rt=0.6, graph=rt_graph(pts, 0.6))
    assert remaining.tolist() == [2]
    assert conflicted.tolist() == [2]
    # out of reach of the normal side: no conflict
    _, _, conflicted, _ = pass1_labeled(pts, labels, rho, dt=1.0, rt=0.4,
                                        graph=rt_graph(pts, 0.4))
    assert conflicted.size == 0
    # brute force on lattice points (multiples of 0.1), rt set to one
    # pair's documented distance so that exact ties occur
    rng = np.random.default_rng(23)
    for trial in range(200):
        q = int(rng.integers(2, 5))
        pts = rng.integers(-5, 6, size=(16, q)) * 0.1
        labels = rng.choice(np.array([1, 0, -1, -1], dtype=np.int8), 16)
        rho = rng.choice([2.0, -2.0, 0.0], 16)
        rho[labels == 1], rho[labels == 0] = 2.0, -2.0
        a, b = rng.choice(16, size=2, replace=False)
        rt = oracle_distance(pts[a], pts[b])
        if rt == 0.0:
            continue
        normal_subs, abnormal_subs, conflicted, remaining = pass1_labeled(
            pts, labels, rho, dt=1.0, rt=rt, graph=rt_graph(pts, rt))
        taken = set().union(*members(normal_subs + abnormal_subs))
        assert remaining.tolist() == sorted(set(range(16)) - taken)

        def near(p, subs):
            return any(oracle_distance(pts[p], pts[o]) <= rt
                       for sc in subs for o in sc.members)

        expected = [p for p in remaining.tolist()
                    if near(p, normal_subs) and near(p, abnormal_subs)]
        assert conflicted.tolist() == expected


def test_pass2_runs_on_leftovers_with_plain_density():
    pts = col([0.0, 0.1, 5.0])
    remaining = np.array([0, 1, 2], dtype=np.int64)
    n_p = np.array([3.0, 3.0, 1.0])
    subs, unassigned = pass2_residual(pts, remaining, n_p, dt=2.0, rt=0.5,
                                      graph=rt_graph(pts, 0.5))
    assert members(subs) == [{0, 1}]
    assert all(sc.class_tag == "unlabeled" and sc.pass_origin == 2
               for sc in subs)
    assert unassigned.tolist() == [2]


def sub(ids, tag, origin=1):
    return SubCluster(np.array(ids, dtype=np.int64), tag, origin)


def test_match_hand_layout():
    # C0 holds labeled subs; C1 holds only an unlabeled sub; 12 is loose
    clusters = [np.arange(8, dtype=np.int64),
                np.arange(8, 12, dtype=np.int64)]
    comp = match(13,
                 normal_subs=[sub([0, 1, 2], "normal")],
                 abnormal_subs=[sub([3, 4], "abnormal")],
                 unlabeled_subs=[sub([8, 9], "unlabeled", 2)],
                 clusters=clusters,
                 conflicted=np.empty(0, dtype=np.int64))
    expected = [REGION_NORMAL_CORE] * 3 + [REGION_ABNORMAL] * 2 + \
        [REGION_MIXED] * 3 + [REGION_UNKNOWN] * 2 + [REGION_MIXED] * 2 + \
        [REGION_OUTLIER]
    assert comp.region.tolist() == expected
    assert comp.cluster_of_point.tolist() == [0] * 8 + [1] * 4 + [-1]
    assert comp.sub_to_cluster == [0, 0, 1]
    assert comp.region_counts() == {"normal_core": 3, "abnormal_region": 2,
                                    "mixed_overlap": 5, "unknown_cluster": 2,
                                    "outlier": 1}


def test_match_rejects_sub_across_clusters():
    # a sub-cluster lies inside one pass-3 component, so one split across
    # two clusters, or half outside every cluster, is an internal fault
    clusters = [np.array([0, 1], dtype=np.int64),
                np.array([2, 3, 4], dtype=np.int64)]
    for ids in ([1, 2], [4, 5], [5, 0]):
        with pytest.raises(ValidationError, match="more than one"):
            match(6, [sub(ids, "normal")], [], [], clusters,
                  np.empty(0, dtype=np.int64))


def test_match_drops_sub_outside_every_cluster():
    clusters = [np.array([0, 1], dtype=np.int64)]
    comp = match(4, [sub([2, 3], "normal")], [], [], clusters,
                 np.empty(0, dtype=np.int64))
    assert comp.sub_clusters == []
    assert comp.region.tolist() == [REGION_MIXED, REGION_MIXED,
                                    REGION_OUTLIER, REGION_OUTLIER]


def test_match_unlabeled_sub_in_labeled_cluster_stays_mixed():
    clusters = [np.arange(4, dtype=np.int64)]
    comp = match(4, [sub([0, 1], "normal")], [],
                 [sub([2, 3], "unlabeled", 2)], clusters,
                 np.empty(0, dtype=np.int64))
    assert comp.region.tolist() == [REGION_NORMAL_CORE, REGION_NORMAL_CORE,
                                    REGION_MIXED, REGION_MIXED]


def two_blob_dataset(seed=5, n=80, gap=8.0):
    rng = np.random.default_rng(seed)
    normal = rng.normal((0.0, 0.0), 0.4, size=(n, 2))
    abnormal = rng.normal((gap, 0.0), 0.4, size=(n, 2))
    pts = np.vstack([normal, abnormal])
    labels = np.full(2 * n, -1, dtype=np.int8)
    labels[:4] = 1
    labels[n:n + 4] = 0
    return Dataset(pts, labels)


def test_full_run_separated_blobs_has_no_mixed_points():
    ds = two_blob_dataset()
    params = AdclustParams(k=10.0, alpha=0.6, coef_rt=0.9, bandwidth=0.5,
                           min_wall_size=10)
    res = adclust(ds, params)
    counts = res.composition.region_counts()
    assert counts["mixed_overlap"] == 0
    assert counts["normal_core"] > 0
    assert counts["abnormal_region"] > 0
    assert len(res.walls) == 1
    assert len(res.composition.clusters) == 2


def test_full_run_protected_is_walled_normal_core():
    ds = two_blob_dataset()
    params = AdclustParams(k=10.0, alpha=0.6, coef_rt=0.9, bandwidth=0.5,
                           min_wall_size=10)
    res = adclust(ds, params)
    inside = np.zeros(ds.n, dtype=bool)
    for wall in res.walls:
        inside |= wall.contains(ds.points)
    expected = inside & (res.composition.region == REGION_NORMAL_CORE)
    np.testing.assert_array_equal(res.protected, expected)
    assert res.protected.any()
    # protected points are never abnormal
    assert not (res.protected &
                (res.composition.region == REGION_ABNORMAL)).any()


def test_full_run_region_tags_partition_points():
    ds, _, params = simulation_preset("sim2", seed=0)
    res = adclust(ds, params)
    counts = res.composition.region_counts()
    assert sum(counts.values()) == ds.n
    assert res.composition.region.min() >= 0
    assert res.composition.region.max() <= 4


def test_overlapping_preset_example_at_seed_two():
    # two blobs one unit apart: one global cluster, both labeled regions,
    # a mixed band where they touch, and a single wall
    ds, _, params = simulation_preset("sim1", seed=2)
    res = adclust(ds, params)
    counts = res.composition.region_counts()
    assert len(res.composition.clusters) == 1
    assert counts["normal_core"] > 0
    assert counts["abnormal_region"] > 0
    assert counts["mixed_overlap"] > 0
    assert len(res.walls) == 1


def test_three_blob_preset_yields_two_normal_walls():
    ds, _, params = simulation_preset("sim2", seed=0)
    res = adclust(ds, params)
    assert len(res.walls) == 2
    for idx in res.wall_sub_ids:
        assert res.composition.sub_clusters[idx].class_tag == "normal"


def test_insufficient_labels_raises():
    pts = np.random.default_rng(0).normal(size=(30, 2))
    labels = np.full(30, -1, dtype=np.int8)
    labels[0] = 1
    with pytest.raises(InsufficientLabelsError):
        adclust(Dataset(pts, labels))


def test_coincident_points_raise():
    pts = np.zeros((10, 2))
    labels = np.full(10, -1, dtype=np.int8)
    labels[0] = 1
    labels[1] = 0
    with pytest.raises(ValidationError, match="coincident"):
        adclust(Dataset(pts, labels))


def test_params_validation():
    with pytest.raises(ValidationError):
        AdclustParams(k=0.0)
    with pytest.raises(ValidationError):
        AdclustParams(alpha=1.0)
    with pytest.raises(ValidationError):
        AdclustParams(wall_kind="round")
    with pytest.raises(ValidationError):
        AdclustParams(coef_rt=-1.0)
    with pytest.raises(ValidationError):
        AdclustParams(target_fraction=0.0)
    with pytest.raises(ValidationError):
        AdclustParams(min_wall_size=1)
    with pytest.raises(ValidationError):
        AdclustParams(bandwidth=0.0)
    for size in (1, 0, -5):
        with pytest.raises(ValidationError, match="eta_sample_size"):
            AdclustParams(eta_sample_size=size)
    for name in ("k", "coef_rt", "coef_dt", "bandwidth"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="finite"):
                AdclustParams(**{name: value})
    with pytest.raises(ValidationError, match="seed"):
        AdclustParams(seed=-1)


def test_adclust_builds_the_rt_graph_once(monkeypatch):
    import adclust.core as core_module
    import adclust.grid as grid_module
    calls = []

    def counted(points, rt):
        calls.append(rt)
        return rt_graph(points, rt)

    monkeypatch.setattr(core_module, "rt_graph", counted)
    monkeypatch.setattr(grid_module, "rt_graph", counted)
    ds, _, params = simulation_preset("sim1", seed=0)
    result = adclust(ds, params)
    assert calls == [result.thresholds.rt]


def sim2_wall_sweep():
    dataset, _, params = simulation_preset("sim2", seed=3,
                                           wall_kind="manhattan")
    return dataset, params, [(k, a) for a in WALL_ALPHA_GRID
                             for k in WALL_K_GRID]


def normal_regions_move_with_k():
    # a sparse normal blob (ids first) seeds regions only from k = 0.3 on,
    # so the wall at position 0 has other members at k = 0.1
    rng = np.random.default_rng(5)
    pts = np.vstack([rng.normal((0.0, 0.0), 0.8, size=(40, 2)),
                     rng.normal((6.0, 0.0), 0.3, size=(80, 2)),
                     rng.normal((3.0, 6.0), 0.4, size=(60, 2))])
    labels = np.full(180, -1, dtype=np.int8)
    labels[[0, 1, 40, 41]] = 1
    labels[120:124] = 0
    params = AdclustParams(wall_kind="manhattan", coef_rt=0.9, bandwidth=0.5)
    return Dataset(pts, labels), params, [(k, a) for a in (0.6, 0.9)
                                          for k in (0.1, 0.3, 1.0)]


@pytest.mark.parametrize("case", [sim2_wall_sweep, normal_regions_move_with_k])
def test_finish_in_any_order_equals_a_fresh_adclust(case):
    # one stage finished at its grid points shuffled and repeated: a wall
    # cached under a wrong (member ids, position, alpha) key shows
    dataset, params, grid = case()
    stage = prepare(dataset, params)
    fresh = {}
    walls_returned = 0
    order = np.random.default_rng(0).permutation(2 * len(grid)) % len(grid)
    for k, alpha in (grid[i] for i in order):
        got = finish(stage, k, alpha)
        walls_returned += len(got.walls)
        if (k, alpha) not in fresh:
            fresh[k, alpha] = adclust(dataset, replace(params, k=k,
                                                       alpha=alpha))
        want = fresh[k, alpha]
        for name in ("region", "cluster_of_point", "sub_cluster_of"):
            assert (getattr(got.composition, name).tobytes()
                    == getattr(want.composition, name).tobytes())
        assert got.protected.tobytes() == want.protected.tobytes()
        assert got.inside_walls.tobytes() == want.inside_walls.tobytes()
        assert len(got.walls) == len(want.walls) > 0
        for a, b in zip(got.walls, want.walls):
            assert (a.level, a.radius) == (b.level, b.radius)
            assert a.stats.mean.tobytes() == b.stats.mean.tobytes()
            assert a.stats.covariance.tobytes() == b.stats.covariance.tobytes()
    assert len(stage.walls) < walls_returned


def test_full_run_is_reproducible():
    ds, _, params = simulation_preset("sim1", seed=3)
    res1 = adclust(ds, params)
    res2 = adclust(ds, params)
    np.testing.assert_array_equal(res1.composition.region,
                                  res2.composition.region)
    assert len(res1.walls) == len(res2.walls)
    for w1, w2 in zip(res1.walls, res2.walls):
        assert w1.radius == w2.radius
        np.testing.assert_array_equal(w1.stats.mean, w2.stats.mean)
