"""Kernel scoring of unlabeled points and the signed weight."""
from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import oracle_distance

from adclust.dataset import Dataset
from adclust.errors import InsufficientLabelsError, ValidationError
from adclust.kernel import (fit_kernel, median_pairwise_distance,
                            pipeline_scores, score, weight)


def make_dataset(points, labels):
    return Dataset(points=np.asarray(points, dtype=np.float64),
                   labels=np.asarray(labels, dtype=np.int8))


def test_median_pairwise_hand_values():
    assert median_pairwise_distance(np.array([[0.0], [4.0]])) == 4.0
    # pairwise distances {1, 3, 2}
    assert median_pairwise_distance(np.array([[0.0], [1.0], [3.0]])) == 2.0
    with pytest.raises(ValidationError):
        median_pairwise_distance(np.array([[1.0]]))


def test_default_bandwidth_is_labeled_median():
    ds = make_dataset([[0.0], [1.0], [3.0], [50.0]], [1, 0, 1, -1])
    clf = fit_kernel(ds)
    assert clf.bandwidth == median_pairwise_distance(ds.points[:3])


def test_midpoint_score_is_half():
    ds = make_dataset([[-1.0, 0.0], [1.0, 0.0]], [1, 0])
    clf = fit_kernel(ds, bandwidth=0.7)
    b, _ = score(clf, np.array([[0.0, 0.0]]))
    assert b[0] == pytest.approx(0.5, abs=1e-15)


def test_score_leans_toward_nearer_label():
    ds = make_dataset([[0.0], [10.0]], [1, 0])
    clf = fit_kernel(ds, bandwidth=3.0)
    b, _ = score(clf, np.array([[1.0], [9.0]]))
    assert b[0] > 0.5 > b[1]
    assert 0.0 <= b.min() and b.max() <= 1.0


def test_label_flip_antisymmetry():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(8, 2))
    labels = np.array([1, 1, 0, 1, 0, 0, 1, 0], dtype=np.int8)
    probes = rng.normal(size=(20, 2)) * 2.0
    clf = fit_kernel(make_dataset(pts, labels), bandwidth=0.9)
    flipped = fit_kernel(make_dataset(pts, 1 - labels), bandwidth=0.9)
    b, _ = score(clf, probes)
    b2, _ = score(flipped, probes)
    np.testing.assert_allclose(b + b2, 1.0, atol=1e-12)


def test_score_order_invariant_over_labels():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(12, 2))
    labels = np.array([1, 0] * 6, dtype=np.int8)
    probes = rng.normal(size=(15, 2))
    clf = fit_kernel(make_dataset(pts, labels), bandwidth=1.1)
    perm = rng.permutation(12)
    clf2 = fit_kernel(make_dataset(pts[perm], labels[perm]), bandwidth=1.1)
    np.testing.assert_array_equal(score(clf, probes)[0], score(clf2, probes)[0])


def test_underflow_gives_uninformative_half():
    ds = make_dataset([[0.0], [1.0]], [1, 0])
    clf = fit_kernel(ds, bandwidth=1e-3)
    b, flat = score(clf, np.array([[1e6]]))
    assert b[0] == 0.5
    assert flat[0]


def test_insufficient_labels():
    with pytest.raises(InsufficientLabelsError, match="insufficient labels"):
        fit_kernel(make_dataset([[0.0], [1.0]], [1, 1]))
    with pytest.raises(InsufficientLabelsError):
        fit_kernel(make_dataset([[0.0], [1.0]], [0, -1]))
    with pytest.raises(InsufficientLabelsError):
        fit_kernel(make_dataset([[0.0], [1.0]], [-1, -1]))


def test_bandwidth_validation_and_floor():
    # there is no floor: a given bandwidth is used as given, and one whose
    # 2 bandwidth^2 leaves the normal floats is rejected
    ds = make_dataset([[0.0], [1.0]], [1, 0])
    for bandwidth in (-1.0, 0.0, np.nan, np.inf, 1e-300, 1e300):
        with pytest.raises(ValidationError):
            fit_kernel(ds, bandwidth=bandwidth)
    assert fit_kernel(ds, bandwidth=1e-20).bandwidth == 1e-20
    # four of five labeled points coincide, so the median distance is 0
    # and the default falls back to the smallest positive one
    tied = make_dataset([[2.0], [2.0], [2.0], [2.0], [2.0 + 2.0 ** -51]],
                        [1, 0, 1, 0, 1])
    assert median_pairwise_distance(tied.points) == 0.0
    assert fit_kernel(tied).bandwidth == 2.0 ** -51
    coincident = make_dataset([[2.0], [2.0], [5.0]], [1, 0, -1])
    with pytest.raises(ValidationError, match="labelled points coincide"):
        fit_kernel(coincident)


def test_weight_formula_and_range():
    b = np.array([0.0, 0.25, 0.5, 1.0])
    w = weight(b, k=10.0)
    np.testing.assert_allclose(w, [-10.0, -5.0, 0.0, 10.0])
    for k in (0.0, np.nan, np.inf):
        with pytest.raises(ValidationError):
            weight(b, k=k)


def test_pipeline_scores_pin_labels():
    ds = make_dataset([[0.0], [1.0], [0.4]], [1, 0, -1])
    clf = fit_kernel(ds, bandwidth=0.5)
    b, _ = pipeline_scores(ds, clf)
    assert b[0] == 1.0
    assert b[1] == 0.0
    assert 0.0 < b[2] < 1.0
    direct, _ = score(clf, ds.points[2:])
    assert b[2] == direct[0]


def test_score_matches_hand_formula():
    ds = make_dataset([[0.0], [2.0]], [1, 0])
    h = 1.5
    clf = fit_kernel(ds, bandwidth=h)
    x = 0.5
    k0 = math.exp(-(x - 0.0) ** 2 / (2 * h * h))
    k1 = math.exp(-(x - 2.0) ** 2 / (2 * h * h))
    b, _ = score(clf, np.array([[x]]))
    assert b[0] == pytest.approx(k0 / (k0 + k1), rel=1e-15)


def oracle_score(clf, probe) -> float:
    """b(probe) with squared differences summed in dimension order by a
    pure-Python loop, numpy's exp on the kernel row and fsum means."""
    sq = []
    for x in clf.labeled_points.tolist():
        total = 0.0
        for u, v in zip(probe.tolist(), x):
            total += (u - v) * (u - v)
        sq.append(total)
    row = np.exp(-np.array(sq) / (2.0 * clf.bandwidth * clf.bandwidth))
    den = math.fsum(row.tolist())
    if den == 0.0:
        return 0.5
    return math.fsum((row * clf.labels01).tolist()) / den


@pytest.mark.parametrize("q", [2, 8, 9])
def test_score_matches_dimension_order_oracle_bitwise(q):
    # 16 and 129 labeled points; against 129 at q = 9 the 60 probes come
    # in blocks of 28
    rng = np.random.default_rng(q)
    scales = rng.uniform(0.1, 10.0, size=q)
    for n in (16, 129):
        pts = rng.normal(size=(n, q)) * scales
        labels = (np.arange(n) + 1) % 2
        probes = rng.normal(size=(60, q)) * scales
        clf = fit_kernel(make_dataset(pts, labels))
        b, _ = score(clf, probes)
        assert b.tolist() == [oracle_score(clf, p) for p in probes]


def test_median_pairwise_matches_oracle_distance_at_q9():
    rng = np.random.default_rng(19)
    pts = rng.normal(size=(31, 9)) * rng.uniform(0.1, 10.0, size=9)
    dists = [oracle_distance(pts[i], pts[j])
             for i in range(31) for j in range(i + 1, 31)]
    assert median_pairwise_distance(pts) == float(np.median(dists))
