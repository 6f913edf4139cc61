"""Density-seeded merging of points into radius-connected clusters."""
from __future__ import annotations

import numpy as np
import pytest

from adclust.core import merge
from adclust.errors import ValidationError
from adclust.grid import rt_graph
from conftest import oracle_distance, oracle_merge


def ids(n):
    return np.arange(n, dtype=np.int64)


def as_sets(clusters):
    return [set(c) for c in clusters]


def test_chain_merges_through_middle_point():
    pts = np.array([[0.0], [0.15], [0.3]])
    stat = np.array([5.0, 0.0, 5.0])
    clusters, unassigned = merge(pts, ids(3), stat, dt=1.0, rt=0.2)
    assert as_sets(clusters) == [{0, 1, 2}]
    assert unassigned.size == 0


def test_no_seed_leaves_all_unassigned():
    pts = np.array([[0.0], [0.1], [0.2]])
    stat = np.array([0.5, 0.5, 0.5])
    clusters, unassigned = merge(pts, ids(3), stat, dt=1.0, rt=0.5)
    assert clusters == []
    assert sorted(unassigned.tolist()) == [0, 1, 2]


def test_threshold_is_closed_at_dt_and_rt():
    pts = np.array([[0.0], [1.0]])
    stat = np.array([2.0, 0.0])
    clusters, _ = merge(pts, ids(2), stat, dt=2.0, rt=1.0)
    assert as_sets(clusters) == [{0, 1}]
    # shrink the radius by one ulp and the pair splits
    clusters, unassigned = merge(pts, ids(2), stat, dt=2.0,
                                 rt=np.nextafter(1.0, 0.0))
    assert as_sets(clusters) == [{0}]
    assert unassigned.tolist() == [1]


def test_non_seed_bridge_joins_two_seed_groups():
    # seeds at 0 and 1.0, sub-threshold point at 0.5 linking them
    pts = np.array([[0.0], [0.5], [1.0]])
    stat = np.array([3.0, 0.0, 3.0])
    clusters, _ = merge(pts, ids(3), stat, dt=1.0, rt=0.6)
    assert as_sets(clusters) == [{0, 1, 2}]


def test_separate_components_stay_separate():
    pts = np.array([[0.0], [0.1], [5.0], [5.1]])
    stat = np.array([2.0, 0.0, 2.0, 0.0])
    clusters, unassigned = merge(pts, ids(4), stat, dt=1.0, rt=0.2)
    assert as_sets(clusters) == [{0, 1}, {2, 3}]
    assert unassigned.size == 0


def test_clusters_ordered_by_smallest_member():
    # points is positional storage; ids select rows 7, 8, 2, 3
    pts = np.zeros((9, 1))
    pts[7], pts[8], pts[2], pts[3] = 10.0, 10.1, 0.0, 0.1
    point_ids = np.array([7, 8, 2, 3], dtype=np.int64)
    stat = np.array([2.0, 2.0, 2.0, 2.0])
    clusters, _ = merge(pts, point_ids, stat, dt=1.0, rt=0.2)
    assert as_sets(clusters) == [{2, 3}, {7, 8}]
    for c in clusters:
        assert list(c) == sorted(c)


def test_empty_input_passes_through():
    pts = np.empty((0, 2))
    clusters, unassigned = merge(pts, ids(0), np.empty(0), dt=1.0, rt=0.5)
    assert clusters == []
    assert unassigned.size == 0


def test_validation_errors():
    pts = np.array([[0.0], [1.0]])
    with pytest.raises(ValidationError):
        merge(pts, ids(2), np.array([1.0, 1.0]), dt=1.0, rt=0.0)
    with pytest.raises(ValidationError):
        merge(pts, ids(2), np.array([1.0]), dt=1.0, rt=0.5)
    with pytest.raises(ValidationError):
        merge(pts, np.array([4, 4], dtype=np.int64), np.array([1.0, 1.0]),
              dt=1.0, rt=0.5)
    # ids outside [0, N): -1 would wrap to the last point, 7 overruns
    four = np.array([[0.0], [1.0], [2.0], [3.0]])
    for bad in ([3, -1], [0, 7]):
        with pytest.raises(ValidationError, match="lie in"):
            merge(four, np.array(bad, dtype=np.int64), np.array([1.0, 1.0]),
                  dt=1.0, rt=1.5)
    huge = np.array([[1e200, 0.0], [-1e200, 0.0]])
    with pytest.raises(ValidationError, match="overflow"):
        merge(huge, ids(2), np.array([1.0, 1.0]), dt=1.0, rt=0.5)


def test_oracle_equivalence_seeded():
    rng = np.random.default_rng(31)
    for trial in range(40):
        n = int(rng.integers(2, 60))
        q = int(rng.integers(1, 4))
        pts = rng.normal(size=(200, q))
        point_ids = rng.choice(200, size=n, replace=False).astype(np.int64)
        dt = 1.0
        stat = rng.uniform(0.0, 2.0, size=n)
        rt = float(rng.uniform(0.05, 1.5))
        expected_clusters, expected_un = oracle_merge(
            pts, point_ids, stat, dt, rt)
        got_clusters, got_un = merge(pts, point_ids, stat, dt=dt, rt=rt)
        assert [c.tolist() for c in got_clusters] == \
            [c.tolist() for c in expected_clusters]
        assert got_un.tolist() == expected_un.tolist()
    # exact ties: 12 lattice points (multiples of 0.1) with rt set to
    # one pair's documented distance, which must connect; a strict subset
    # of ids merges over the graph of all 12 points
    for trial in range(400):
        q = int(rng.integers(2, 5))
        pts = rng.integers(-5, 6, size=(12, q)) * 0.1
        a, b = rng.choice(12, size=2, replace=False)
        rt = oracle_distance(pts[a], pts[b])
        if rt == 0.0:
            continue
        k = int(rng.integers(1, 12))
        point_ids = rng.choice(12, size=k, replace=False).astype(np.int64)
        stat = rng.uniform(0.0, 2.0, size=k)
        expected_clusters, expected_un = oracle_merge(
            pts, point_ids, stat, 1.0, rt)
        got_clusters, got_un = merge(pts, point_ids, stat, dt=1.0, rt=rt,
                                     graph=rt_graph(pts, rt))
        assert [c.tolist() for c in got_clusters] == \
            [c.tolist() for c in expected_clusters]
        assert got_un.tolist() == expected_un.tolist()


def test_input_order_does_not_change_result():
    rng = np.random.default_rng(77)
    for trial in range(10):
        n = int(rng.integers(5, 40))
        pts = rng.normal(size=(n, 2))
        point_ids = np.arange(n, dtype=np.int64)
        stat = rng.uniform(0.0, 2.0, size=n)
        rt = float(rng.uniform(0.1, 1.0))
        base_clusters, base_un = merge(pts, point_ids, stat, dt=1.0, rt=rt)
        base = ([list(c) for c in base_clusters], base_un.tolist())
        for _ in range(10):
            # permute the participant listing, not the point storage
            perm = rng.permutation(n)
            clusters, un = merge(pts, point_ids[perm], stat[perm],
                                 dt=1.0, rt=rt)
            assert ([list(c) for c in clusters], un.tolist()) == base


def test_component_cache_equals_uncached_merge():
    """A shared component dict changes no result: participant sets recur
    in permuted listings with fresh stat and dt, on Gaussian points and
    on the tie lattice (rt one pair's documented distance)."""
    rng = np.random.default_rng(53)
    for trial in range(80):
        q = int(rng.integers(2, 5))
        if trial % 2:
            pts = rng.integers(-5, 6, size=(12, q)) * 0.1
            a, b = rng.choice(12, size=2, replace=False)
            rt = oracle_distance(pts[a], pts[b])
            if rt == 0.0:
                continue
        else:
            pts = rng.normal(size=(40, q))
            rt = float(rng.uniform(0.2, 1.5))
        n = pts.shape[0]
        graph = rt_graph(pts, rt)
        sets = [rng.choice(n, size=int(rng.integers(1, n + 1)),
                           replace=False).astype(np.int64) for _ in range(3)]
        components: dict = {}
        used = set()
        for _ in range(12):
            chosen = sets[int(rng.integers(3))]
            used.add(np.sort(chosen).tobytes())
            point_ids = rng.permutation(chosen)
            stat = rng.uniform(0.0, 2.0, size=point_ids.size)
            dt = float(rng.uniform(0.2, 1.8))
            if rng.integers(2):
                dt = float(stat[0])  # the seed test is closed at dt
            want_clusters, want_un = merge(pts, point_ids, stat, dt, rt, graph)
            got_clusters, got_un = merge(pts, point_ids, stat, dt, rt, graph,
                                         components=components)
            assert [c.tolist() for c in got_clusters] == \
                [c.tolist() for c in want_clusters]
            assert got_un.tolist() == want_un.tolist()
        assert set(components) == used
