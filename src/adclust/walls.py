"""Defensive walls: ellipsoids at a chi-square level and scaled-L1 diamonds.

A Euclidean wall contains x when the squared Mahalanobis distance to the
region mean is at most the chi-square quantile of the target level. A
Manhattan wall contains x when its scaled-L1 score sum_i |x_i - mean_i|
/ std_i (scaled_l1_score) is at most eta(alpha), a level calibrated by
Monte Carlo so a Gaussian fitted to the region puts probability alpha
inside the diamond. calibration_scores draws and scores that sample,
and eta_of_alpha takes its quantiles, so a region calibrated once gets
every further level from one np.quantile. Containment is closed
(boundary points count as inside).

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
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.special import gammaincinv

from .errors import DegenerateRegionError, ValidationError
from .exact import dimension_sum

RIDGE_SCALE = 1e-9
ABS_RIDGE = 1e-12

# Unit roundoff, and the guards and underflow allowance of
# contraction_counts (see its proof).
_U = 2.0 ** -53
_TINY = 2.0 ** -800
_SCALE = 2.0 ** 100
_REACH = 2.0 ** 500


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


def contraction_counts(wall: Wall, points: np.ndarray, top: float,
                       factors) -> tuple[np.ndarray, np.ndarray]:
    """(order, counts): the rows of points in reference order, and for
    each factor c how many of them, in that order, can score at most top
    once contracted by c toward the wall's mean.

    The reference score R of a row x is the wall's own kind score of x
    (mahalanobis_sq or scaled_l1), and order is its stable argsort.
    Contracting x by a float c in [0, 1] gives y = fl(m + fl(c fl(x -
    m))), m the wall mean. counts[j] is the number of rows with R at
    most a limit L(c_j), and every row with R > L(c) has a computed kind
    score of y above top, so the rows that can score at most top are a
    prefix of order. L is inf (the count is every row) where c = 0 and
    where the guards below fail.

    Proof. u = 2^-53. Every rounding is fl(a o b) = (a o b)(1 + e) + h
    with |e| <= u, |h| <= 2^-1075 for a product or quotient and h = 0
    for a sum or difference; gamma_k = k u / (1 - k u). With d = fl(x -
    m), e' = fl(c d) and y = fl(m + e'), the deviation the score takes is

        d' = fl(y - m) = c d (1 + e1)(1 + e2)(1 + e3) + e2 m (1 + e3) + h',
        |d'_i - c d_i| <= gamma_3 c |d_i| + u (1 + u) |m_i| + 2^-1074.

    q < 2^20 (the q x q covariance is held), and the guards are: every R
    finite and at most 2^500; for Manhattan every std >= 2^-100; for
    Euclidean the lower Cholesky factor F of the wall has entries at most
    2^100 and the bounds N, g below satisfy N <= 2^100, g <= 2^-20.
    Under them every underflow term h below adds less than 2^-830 in
    total, so _TINY = 2^-800 covers them; and a row with R > L(c) has
    R <= 2^500 and u |m_i| / s_i < c R (Manhattan) or u ||m|| < c
    sqrt(R) / N (Euclidean), so no step of its moved score overflows.

    Manhattan (s the stds, S = sum of |d_i| / s_i in dimension order).
    Terms are >= 0, so a dimension-order sum of q of them is within
    (1 +- u)^(q - 1) of the exact sum, and each term within 1 +- u of
    |d_i| / s_i. With M = sum_i |m_i| / s_i, the moved score is

        S(y) >= c R (1 - u)^(q + 3) (1 + u)^-q - u (1 + u) M - _TINY,

    which exceeds top where R > (top + u (1 + u) M + _TINY)
    (1 + u)^q (1 - u)^-(q + 3) / c. L(c) = (1 + 4 (q + 2) u) (top + 2 u M
    + _TINY) / c, as computed, is at least that: its factor covers the
    (1 + u)^q (1 - u)^-(q + 3) above and the five roundings of the
    formula, and 2 u M (M summed in float) covers u (1 + u) M.

    Euclidean (F the factor, P = F^-1, Q(v) = ||P v||^2). Each of the two
    triangular solves of cho_solve (LAPACK potrs) returns x with (T +
    D) x = b + h, |D| <= gamma_(q + 1) |T|, whatever the order of its
    inner products and whether it divides by the diagonal or multiplies
    by its rounded reciprocal (Higham, "Accuracy and Stability of
    Numerical Algorithms", 2nd ed., Thm 8.5), and the signed dot product
    of the score errs by at most gamma_q |v|^T |z| (Higham, sec. 3.1).
    X, P computed by the same kind of solve, has F X = I + E with
    ||E||_F <= gamma_(q + 1) ||F||_F ||X||_F <= g, so ||P||_F <= ||X||_F
    / (1 - ||E||_F) <= N = 1.001 ||X||_F (as computed: the 1.001 covers
    that divisor and the q^2 roundings of the norm). With K = 1.001
    ||F||_F N >= ||F||_F ||P||_F, || |P| |F| ||_2 <= K and g = 1.001
    (q + 3) u K >= gamma_(q + 3) K. Writing v = F w, the two solves make z =
    P^T (I + G2)^-1 (I + G1)^-1 w with ||Gi||_2 <= g, so v^T z is
    within ((1 - g)^-2 - 1) Q(v) of Q(v), and |v|^T |z| <= K Q(v) /
    (1 - g)^2: the computed score of v is within 4 g Q(v) of Q(v).
    From the deviation above, ||P (d' - c d)|| <= gamma_3 c K sqrt(Q(d))
    + a with a = N (u (1 + u) ||m|| + sqrt(q) 2^-1074), so sqrt(Q(d'))
    >= c (1 - g) sqrt(Q(d)) - a. Chaining R <= (1 + 4g) Q(d), S(y) >=
    (1 - 4g) Q(d') and the underflow terms, S(y) > top wherever

        R > _TINY + (1 + 11 g) ((sqrt(top + _TINY) + D) / c)^2,

    with D = u (1 + u) N ||m|| plus the underflow terms (below _TINY).
    L(c) = _TINY + (1 + 16 g) ((sqrt(top + _TINY) + D') / c)^2, D' = 2 u
    N ||m|| + _TINY, as computed, is at least that: 5 g >= 20 u covers
    its nine roundings.
    """
    q = wall.stats.mean.size
    if wall.kind == "euclidean":
        ref = wall.mahalanobis_sq(points)
    else:
        ref = wall.scaled_l1(points)
    order = np.argsort(ref, kind="stable")
    ref = ref[order]
    c = np.asarray(factors, dtype=np.float64)
    limits = np.full(c.shape, np.inf)
    live = (c > 0.0) & (np.abs(ref) <= _REACH).all()
    with np.errstate(over="ignore"):
        if wall.kind == "manhattan":
            stds = wall.stats.stddevs
            spread = (np.abs(wall.stats.mean) / stds).sum()
            if stds.min() >= 1.0 / _SCALE:
                limits[live] = (1.0 + 4 * (q + 2) * _U) * (
                    top + 2.0 * _U * spread + _TINY) / c[live]
        else:
            factor = np.tril(wall._cho[0])
            inverse = solve_triangular(factor, np.eye(q), lower=True)
            norm_inv = 1.001 * np.sqrt((inverse * inverse).sum())
            cond = 1.001 * np.sqrt((factor * factor).sum()) * norm_inv
            g = 1.001 * (q + 3) * _U * cond
            if (np.abs(factor).max() <= _SCALE and norm_inv <= _SCALE
                    and g <= 2.0 ** -20):
                mean = wall.stats.mean
                shift = 2.0 * _U * norm_inv * np.sqrt((mean * mean).sum())
                root = np.sqrt(top + _TINY) + shift + _TINY
                limits[live] = _TINY + (1.0 + 16.0 * g) * (
                    root / c[live]) ** 2
    counts = np.full(c.shape, ref.size)
    certified = np.isfinite(limits)
    counts[certified] = np.searchsorted(ref, limits[certified], side="right")
    return order, counts


def sample_gaussian(mean, cov, size: int, seed) -> np.ndarray:
    """size draws from N(mean, cov): default_rng(seed) standard normals
    times the lower Cholesky factor of cov, plus mean."""
    mean = np.asarray(mean, dtype=np.float64)
    ell = np.linalg.cholesky(np.asarray(cov, dtype=np.float64))
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((size, mean.size)) @ ell.T
    draws += mean  # in place: at most two (size, q) arrays at once
    return draws


def calibration_scores(stats: RegionStats, sample_size: int = 100_000,
                       seed=0) -> np.ndarray:
    """The Manhattan calibration: scaled_l1_score of sample_size draws
    of N(mean, covariance) from seed (sample_gaussian)."""
    if sample_size < 2:
        raise ValidationError("sample_size must be at least 2")
    draws = sample_gaussian(stats.mean, stats.covariance, sample_size, seed)
    return scaled_l1_score(stats, draws)


def eta_of_alpha(stats: RegionStats, alpha, sample_size: int = 100_000,
                 seed=0, *, scores: np.ndarray | None = None):
    """Manhattan level eta(alpha): the empirical alpha-quantile of the
    calibration scores, calibration_scores(stats, sample_size, seed)
    unless scores already holds them. alpha may be an array of levels
    (an array back) or one level (a float back)."""
    levels = np.asarray(alpha, dtype=np.float64)
    if not ((levels > 0.0) & (levels < 1.0)).all():
        raise ValidationError("alpha must be in (0, 1)")
    if scores is None:
        scores = calibration_scores(stats, sample_size, seed)
    eta = np.quantile(scores, alpha)
    return float(eta) if np.ndim(alpha) == 0 else eta


def fit_euclidean_wall(stats: RegionStats, alpha: float) -> Wall:
    radius = chi2_quantile(stats.mean.size, alpha)
    return Wall(kind="euclidean", stats=stats, level=alpha, radius=radius)


def fit_manhattan_wall(stats: RegionStats, alpha: float,
                       sample_size: int = 100_000, seed=0, *,
                       scores: np.ndarray | None = None) -> Wall:
    """The wall at eta(alpha); scores, when given, are the calibration
    scores of (stats, sample_size, seed), so a new level costs one
    quantile."""
    radius = eta_of_alpha(stats, alpha, sample_size=sample_size, seed=seed,
                          scores=scores)
    return Wall(kind="manhattan", stats=stats, level=alpha, radius=radius)
