"""Defensive walls: ellipsoids at a chi-square level and scaled-L1 diamonds.

A Euclidean wall contains x when the squared Mahalanobis distance to the
region mean is at most the chi-square quantile of the target level. A
Manhattan wall contains x when sum_i |x_i - mean_i| / std_i is at most
eta(alpha), a level calibrated by Monte Carlo so a Gaussian fitted to
the region puts probability alpha inside the diamond. Containment is
closed (boundary points count as inside).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky
from scipy.special import gammaincinv

from .errors import DegenerateRegionError, ValidationError

RIDGE_SCALE = 1e-9
ABS_RIDGE = 1e-12


@dataclass
class RegionStats:
    """Sample mean and covariance of a region (denominator n - 1).

    Near-singular covariances get a diagonal ridge of
    RIDGE_SCALE * trace / q (an absolute floor when the trace is zero);
    the stored covariance and stddevs are post-ridge.
    """

    mean: np.ndarray
    covariance: np.ndarray
    stddevs: np.ndarray
    member_count: int
    ridged: bool = False


def fit_region_stats(points: np.ndarray) -> RegionStats:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2:
        raise DegenerateRegionError("degenerate region")
    n = points.shape[0]
    mean = points.mean(axis=0)
    diffs = points - mean
    # einsum keeps the reduction single-threaded and deterministic
    cov = np.einsum("ij,ik->jk", diffs, diffs, optimize=False) / (n - 1)
    return stats_from_moments(mean, cov, n)


def stats_from_moments(mean, covariance, member_count: int = 0) -> RegionStats:
    """RegionStats from explicit moments, same ridge policy as a fit."""
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(covariance, dtype=np.float64)
    if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
        raise ValidationError("covariance shape must match the mean")
    cov = 0.5 * (cov + cov.T)
    q = mean.size
    trace = float(np.trace(cov))
    eps = RIDGE_SCALE * trace / q if trace > 0 else ABS_RIDGE
    ridged = False
    if float(np.linalg.eigvalsh(cov).min()) < eps:
        cov = cov + eps * np.eye(q)
        ridged = True
    return RegionStats(mean=mean, covariance=cov,
                       stddevs=np.sqrt(np.diag(cov)),
                       member_count=member_count, ridged=ridged)


def chi2_quantile(dof: int, alpha: float) -> float:
    """Chi-square quantile via inversion of the regularized lower
    incomplete gamma function."""
    if not isinstance(dof, (int, np.integer)) or dof < 1:
        raise ValidationError("dof must be a positive integer")
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must be in (0, 1)")
    return float(2.0 * gammaincinv(dof / 2.0, alpha))


@dataclass
class Wall:
    """A fitted containment region around a region mean.

    radius is the chi-square quantile for kind="euclidean" and
    eta(alpha) for kind="manhattan".
    """

    kind: str
    stats: RegionStats
    level: float
    radius: float
    _cho: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("euclidean", "manhattan"):
            raise ValidationError(f"unknown wall kind {self.kind!r}")
        if not 0.0 < self.level < 1.0:
            raise ValidationError("level must be in (0, 1)")
        if self.radius <= 0:
            raise ValidationError("radius must be positive")
        if self.kind == "euclidean" and self._cho is None:
            self._cho = cho_factor(self.stats.covariance, lower=True)

    def mahalanobis_sq(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        diffs = (points - self.stats.mean).T
        solved = cho_solve(self._cho, diffs)
        return np.einsum("ij,ij->j", diffs, solved, optimize=False)

    def scaled_l1(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return (np.abs(points - self.stats.mean) / self.stats.stddevs).sum(axis=1)

    def score(self, points: np.ndarray) -> np.ndarray:
        """The statistic compared against radius, by wall kind."""
        if self.kind == "euclidean":
            return self.mahalanobis_sq(points)
        return self.scaled_l1(points)

    def contains(self, points: np.ndarray) -> np.ndarray:
        return self.score(points) <= self.radius


def sample_gaussian(stats: RegionStats, size: int, seed) -> np.ndarray:
    """Cholesky draws from N(mean, covariance)."""
    rng = np.random.default_rng(seed)
    ell = cholesky(stats.covariance, lower=True)
    z = rng.standard_normal((size, stats.mean.size))
    return stats.mean + z @ ell.T


def eta_of_alpha(stats: RegionStats, alpha: float,
                 sample_size: int = 100_000, seed=0) -> float:
    """Manhattan level eta(alpha): the empirical alpha-quantile of
    s(x) = sum_i |x_i - mean_i| / std_i over Gaussian draws."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must be in (0, 1)")
    if sample_size < 2:
        raise ValidationError("sample_size must be at least 2")
    draws = sample_gaussian(stats, sample_size, seed)
    s = (np.abs(draws - stats.mean) / stats.stddevs).sum(axis=1)
    return float(np.quantile(s, alpha))


def fit_euclidean_wall(stats: RegionStats, alpha: float) -> Wall:
    radius = chi2_quantile(stats.mean.size, alpha)
    return Wall(kind="euclidean", stats=stats, level=alpha, radius=radius)


def fit_manhattan_wall(stats: RegionStats, alpha: float,
                       sample_size: int = 100_000, seed=0) -> Wall:
    radius = eta_of_alpha(stats, alpha, sample_size=sample_size, seed=seed)
    return Wall(kind="manhattan", stats=stats, level=alpha, radius=radius)
