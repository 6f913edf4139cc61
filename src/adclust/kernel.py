"""Gaussian kernel scoring of unlabeled points and the signed weight map.

The classifier is a Nadaraya-Watson regressor over the handful of
labeled points: b(p) = sum_i y_i K(p, x_i) / sum_i K(p, x_i) with
K(p, x) = exp(-||p - x||^2 / (2 bandwidth^2)) and y = 1 for normal,
0 for abnormal. Kernel sums use math.fsum, so scores do not depend on
the order of the labeled points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import LABEL_NONE, Dataset
from .errors import InsufficientLabelsError, ValidationError

BANDWIDTH_FLOOR = 1e-12
# Largest rows * labeled * q block of coordinate differences score
# builds at once, so its memory stays bounded.
_BLOCK_ELEMENTS = 1 << 15


@dataclass
class KernelClassifier:
    labeled_points: np.ndarray
    labels01: np.ndarray
    bandwidth: float


def median_pairwise_distance(points: np.ndarray) -> float:
    n = points.shape[0]
    if n < 2:
        raise ValidationError("need at least two points for a pairwise median")
    dists = []
    for i in range(n - 1):
        diffs = points[i + 1:] - points[i]
        dists.append(np.sqrt((diffs * diffs).sum(axis=1)))
    return float(np.median(np.concatenate(dists)))


def fit_kernel(dataset: Dataset, bandwidth: float | None = None) -> KernelClassifier:
    """Fit on the labeled subset.

    bandwidth defaults to the median pairwise distance among the labeled
    points, floored at a small epsilon so coincident labels stay usable.
    Requires at least one labeled point of each class.
    """
    ids = dataset.labeled_ids()
    y = dataset.labels[ids]
    if ids.size < 2 or (y == 1).sum() == 0 or (y == 0).sum() == 0:
        raise InsufficientLabelsError("insufficient labels")
    pts = dataset.points[ids]
    if bandwidth is None:
        bandwidth = median_pairwise_distance(pts)
    elif bandwidth <= 0:
        raise ValidationError("bandwidth must be positive")
    bandwidth = max(float(bandwidth), BANDWIDTH_FLOOR)
    return KernelClassifier(labeled_points=pts,
                            labels01=y.astype(np.float64),
                            bandwidth=bandwidth)


def score(clf: KernelClassifier, points: np.ndarray,
          return_flags: bool = False):
    """Class scores b in [0, 1]; 1 leans normal.

    Points whose kernel row underflows to zero against every labeled
    point get the uninformative score 0.5; return_flags=True also
    returns that mask.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    denom2 = 2.0 * clf.bandwidth * clf.bandwidth
    labeled = clf.labeled_points
    m = points.shape[0]
    b = np.empty(m)
    flat = np.zeros(m, dtype=bool)
    step = max(1, _BLOCK_ELEMENTS // max(labeled.size, 1))
    for lo in range(0, m, step):
        diffs = points[lo:lo + step, None, :] - labeled[None, :, :]
        k = np.exp(-(diffs * diffs).sum(axis=2) / denom2)
        for i, row in enumerate(k, start=lo):
            den = math.fsum(row.tolist())
            if den == 0.0:
                b[i] = 0.5
                flat[i] = True
            else:
                b[i] = math.fsum((row * clf.labels01).tolist()) / den
    if return_flags:
        return b, flat
    return b


def weight(b: np.ndarray, k: float) -> np.ndarray:
    """Signed confidence weight w = k (2b - 1), in [-k, k]."""
    if k <= 0:
        raise ValidationError("k must be positive")
    return k * (2.0 * np.asarray(b, dtype=np.float64) - 1.0)


def pipeline_scores(dataset: Dataset, clf: KernelClassifier,
                    return_flags: bool = False):
    """Scores for a whole dataset: labeled points keep their label as b.

    Only unlabeled points are pushed through the kernel; a labeled
    point's class is already known, so its score is pinned to 1 or 0.
    """
    b = np.empty(dataset.n)
    flags = np.zeros(dataset.n, dtype=bool)
    labeled = dataset.labels != LABEL_NONE
    b[labeled] = dataset.labels[labeled].astype(np.float64)
    unlabeled = np.flatnonzero(~labeled)
    if unlabeled.size:
        bu, fu = score(clf, dataset.points[unlabeled], return_flags=True)
        b[unlabeled] = bu
        flags[unlabeled] = fu
    if return_flags:
        return b, flags
    return b
