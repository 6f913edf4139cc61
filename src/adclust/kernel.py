"""Gaussian kernel scoring of unlabeled points and the signed weight map.

The classifier is a Nadaraya-Watson regressor over the handful of
labeled points: b(p) = sum_i y_i K(p, x_i) / sum_i K(p, x_i) with
K(p, x) = exp(-||p - x||^2 / (2 bandwidth^2)) and y = 1 for normal,
0 for abnormal. ||p - x|| and the default bandwidth follow exact.py's
distance convention (squared differences summed in dimension order).
Kernel sums are correctly rounded (exact.row_sums: one exact split of
each row at a power of two, certified by an error bound, with an fsum
fallback; after Rump, Ogita & Oishi's ExtractVector/AccSum, 2008), so
scores do not depend on the order of the labeled points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import LABEL_NONE, Dataset
from .errors import InsufficientLabelsError, ValidationError
from .exact import row_sums, sq_distance_blocks

BANDWIDTH_FLOOR = 1e-12


@dataclass
class KernelClassifier:
    labeled_points: np.ndarray
    labels01: np.ndarray
    bandwidth: float


def median_pairwise_distance(points: np.ndarray) -> float:
    n = points.shape[0]
    if n < 2:
        raise ValidationError("need at least two points for a pairwise median")
    ids = np.arange(n)
    dists = [np.sqrt(sq[ids > ids[lo:lo + sq.shape[0], None]])
             for lo, sq in sq_distance_blocks(points.T, points.T)]
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
    elif not 0.0 < bandwidth < math.inf:
        raise ValidationError("bandwidth must be positive and finite")
    bandwidth = max(float(bandwidth), BANDWIDTH_FLOOR)
    return KernelClassifier(labeled_points=pts,
                            labels01=y.astype(np.float64),
                            bandwidth=bandwidth)


def score(clf: KernelClassifier,
          points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class scores b in [0, 1] (1 leans normal) and the uninformative mask.

    Points whose kernel row underflows to zero against every labeled
    point get the uninformative score 0.5 and a True flag.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    denom2 = 2.0 * clf.bandwidth * clf.bandwidth
    m = points.shape[0]
    b = np.empty(m)
    flat = np.zeros(m, dtype=bool)
    for lo, sq in sq_distance_blocks(points.T, clf.labeled_points.T):
        rows = slice(lo, lo + sq.shape[0])
        k = np.exp(-sq / denom2)
        den = row_sums(k)
        flat[rows] = den == 0.0
        b[rows] = np.divide(row_sums(k * clf.labels01), den,
                            out=np.full(den.size, 0.5), where=~flat[rows])
    return b, flat


def weight(b: np.ndarray, k: float) -> np.ndarray:
    """Signed confidence weight w = k (2b - 1), in [-k, k]."""
    if not 0.0 < k < math.inf:
        raise ValidationError("k must be positive and finite")
    return k * (2.0 * np.asarray(b, dtype=np.float64) - 1.0)


def pipeline_scores(dataset: Dataset,
                    clf: KernelClassifier) -> tuple[np.ndarray, np.ndarray]:
    """Scores and uninformative flags for a whole dataset: labeled points
    keep their label as b and are never flagged.

    Only unlabeled points are pushed through the kernel; a labeled
    point's class is already known, so its score is pinned to 1 or 0.
    """
    b = np.empty(dataset.n)
    flags = np.zeros(dataset.n, dtype=bool)
    labeled = dataset.labels != LABEL_NONE
    b[labeled] = dataset.labels[labeled].astype(np.float64)
    unlabeled = np.flatnonzero(~labeled)
    if unlabeled.size:
        b[unlabeled], flags[unlabeled] = score(clf, dataset.points[unlabeled])
    return b, flags
