"""Defensive walls: ellipsoids at a chi-square level and scaled-L1 diamonds.

A Euclidean wall contains x when the squared Mahalanobis distance to the
region mean is at most the chi-square quantile of the target level. A
Manhattan wall contains x when its scaled-L1 score sum_i |x_i - mean_i|
/ std_i (scaled_l1_score) is at most eta(alpha), a level calibrated by
Monte Carlo so a Gaussian fitted to the region puts probability alpha
inside the diamond. Containment is closed (boundary points count as
inside).

Both scores work on dimension-major (q, n) deviations, taken once per
call as one C-ordered subtraction, and sum their q per-dimension terms
in dimension order (exact.dimension_sum, the convention of
exact.sq_distances): Mahalanobis sum_i d_i * (Sigma^-1 d)_i with
Sigma^-1 d from the Cholesky factor, scaled L1 sum_i |d_i| / std_i.
Every step runs along the n points, and a score does not depend on the
memory layout of its input.

sample_gaussian, default_rng(seed) normals times the Cholesky factor
plus the mean, is the package's only Gaussian sampler: it draws the
Manhattan calibration, the game's populations and synthetic mixtures.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import gammaincinv

from .errors import DegenerateRegionError, ValidationError
from .exact import dimension_sum

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
    """RegionStats from explicit moments, same ridge policy as a fit;
    non-finite moments or a covariance indefinite past the ridge raise."""
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(covariance, dtype=np.float64)
    if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
        raise ValidationError("covariance shape must match the mean")
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise ValidationError("mean and covariance must be finite")
    cov = 0.5 * (cov + cov.T)
    q = mean.size
    trace = float(np.trace(cov))
    eps = RIDGE_SCALE * trace / q if trace > 0 else ABS_RIDGE
    ridged = False
    lowest = float(np.linalg.eigvalsh(cov).min())
    if lowest + eps <= 0.0:
        raise ValidationError("covariance is indefinite beyond the ridge")
    if lowest < eps:
        cov = cov + eps * np.eye(q)
        ridged = True
    return RegionStats(mean=mean, covariance=cov,
                       stddevs=np.sqrt(np.diag(cov)),
                       member_count=member_count, ridged=ridged)


def _deviations(mean: np.ndarray, points) -> np.ndarray:
    """(q, n) C-ordered x - mean over the rows x of points."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return np.subtract(points.T, mean[:, None], order="C")


def scaled_l1_score(stats: RegionStats, points: np.ndarray) -> np.ndarray:
    """Per-row sum_i |x_i - mean_i| / std_i, the Manhattan wall's score."""
    terms = _deviations(stats.mean, points)
    np.abs(terms, out=terms)
    terms /= stats.stddevs[:, None]
    return dimension_sum(terms)


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
        if not 0.0 < self.radius < np.inf:
            raise ValidationError("radius must be positive and finite")
        if self.kind == "euclidean" and self._cho is None:
            self._cho = cho_factor(self.stats.covariance, lower=True)

    def mahalanobis_sq(self, points: np.ndarray) -> np.ndarray:
        diffs = _deviations(self.stats.mean, points)
        diffs *= cho_solve(self._cho, diffs)
        return dimension_sum(diffs)

    def scaled_l1(self, points: np.ndarray) -> np.ndarray:
        return scaled_l1_score(self.stats, points)

    def score(self, points: np.ndarray) -> np.ndarray:
        """The statistic compared against radius, by wall kind."""
        if self.kind == "euclidean":
            return self.mahalanobis_sq(points)
        return self.scaled_l1(points)

    def contains(self, points: np.ndarray) -> np.ndarray:
        return self.score(points) <= self.radius


def sample_gaussian(mean, cov, size: int, seed) -> np.ndarray:
    """size draws from N(mean, cov): default_rng(seed) standard normals
    times the lower Cholesky factor of cov, plus mean."""
    mean = np.asarray(mean, dtype=np.float64)
    ell = np.linalg.cholesky(np.asarray(cov, dtype=np.float64))
    z = np.random.default_rng(seed).standard_normal((size, mean.size))
    return mean + z @ ell.T


def eta_of_alpha(stats: RegionStats, alpha, sample_size: int = 100_000,
                 seed=0):
    """Manhattan level eta(alpha): the empirical alpha-quantile of
    s(x) = sum_i |x_i - mean_i| / std_i over one Gaussian draw. alpha may
    be an array of levels (an array back) or one level (a float back)."""
    levels = np.asarray(alpha, dtype=np.float64)
    if not ((levels > 0.0) & (levels < 1.0)).all():
        raise ValidationError("alpha must be in (0, 1)")
    if sample_size < 2:
        raise ValidationError("sample_size must be at least 2")
    draws = sample_gaussian(stats.mean, stats.covariance, sample_size, seed)
    eta = np.quantile(scaled_l1_score(stats, draws), alpha)
    return float(eta) if np.ndim(alpha) == 0 else eta


def fit_euclidean_wall(stats: RegionStats, alpha: float) -> Wall:
    radius = chi2_quantile(stats.mean.size, alpha)
    return Wall(kind="euclidean", stats=stats, level=alpha, radius=radius)


def fit_manhattan_wall(stats: RegionStats, alpha: float,
                       sample_size: int = 100_000, seed=0) -> Wall:
    radius = eta_of_alpha(stats, alpha, sample_size=sample_size, seed=seed)
    return Wall(kind="manhattan", stats=stats, level=alpha, radius=radius)
