"""Defensive walls: ellipsoids at a chi-square level and scaled-L1 diamonds.

A Euclidean wall contains x when the squared Mahalanobis distance to the
region mean is at most the chi-square quantile of the target level. A
Manhattan wall contains x when its scaled-L1 score sum_i |x_i - mean_i|
/ std_i (scaled_l1_score) is at most eta(alpha), a level calibrated by
Monte Carlo so a Gaussian fitted to the region puts probability alpha
inside the diamond. calibration_scores draws and scores that sample,
sorted, and eta_of_alpha takes its quantiles, so a region calibrated
once gets every further level from one np.quantile. Containment is
closed (boundary points count as inside).

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


def contraction_counts(wall: Wall, points: np.ndarray, radii, factors
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, reach, sure): the rows of points in reference order and,
    for each factor c and radius r, how many of them in that order can
    score at most r once contracted by c toward the wall's mean (reach)
    and how many surely do (sure). Both counts have the shape
    factors.shape + radii.shape.

    The reference score R of a row x is wall.score(x), and order is its
    argsort, in any order among ties: no count depends on it (see
    below). Contracting x by a float c in [0, 1] gives y = fl(m +
    fl(c fl(x - m))), m the wall mean, as game.apply_attack does, and
    S(y) is the computed score of y. Two limits per (c, r) bound S(y)
    through R:

    - every row with R > L(c, r) has S(y) > r; reach counts the rows
      with R <= L, so the rows that can pass r are a prefix of order;
    - every row with R < Lambda(c, r) has S(y) <= r; sure counts them.

    So sure <= reach, and only the rows between them can go either way.
    Where a guard below fails, L = inf and Lambda = -inf: reach is every
    row and sure is none. At c = 0, L = inf, and Lambda = inf wherever
    every R is finite and r >= 0.

    Ties. sure and reach are searchsorted counts on the sorted R, so
    each counts all of the rows of one R value or none of them: the
    first sure rows, the rows up to reach and the rows between are the
    same sets whatever the order among ties. game.build_tables passes a
    cell's first sure rows where no cell of its t row has a band (reach
    > sure). Where one does, it scores the row's first w rows, w the
    row's largest reach (a set, by the same argument), sorts them by
    moved score and passes, at each radius, those whose moved score is
    at most it: rows of equal moved score pass together. So no pass
    set, and no table entry, depends on the order among ties.

    c = 0. A finite R means a finite d = fl(x - m) (an infinite
    coordinate makes the score inf or nan), so fl(0 d) = +-0, y = fl(m
    +- 0) equals m, and fl(y - m) = +0 in every coordinate. Its scaled-L1
    terms are +0; the two triangular solves of a zero right-hand side
    return zeros, so every term of its Mahalanobis sum is a signed zero.
    S(y) = +-0 <= r: every row passes every radius r >= 0.

    Proof of the limits. u = 2^-53. Every rounding is fl(a o b) = (a o
    b)(1 + e) + h with |e| <= u, |h| <= 2^-1075 for a product or quotient
    and h = 0 for a sum or difference; gamma_k = k u / (1 - k u). With d
    = fl(x - m), e' = fl(c d) and y = fl(m + e'), the deviation the score
    takes is

        d' = fl(y - m) = c d (1 + e1)(1 + e2)(1 + e3) + e2 m (1 + e3) + h',
        |d'_i - c d_i| <= gamma_3 c |d_i| + u (1 + u) |m_i| + 2^-1074.

    q < 2^20 (the q x q covariance is held), and the guards are: every R
    finite and at most 2^500; for Manhattan every std >= 2^-100; for
    Euclidean the lower Cholesky factor F of the wall has entries at most
    2^100 and the bounds N, g below satisfy N <= 2^100, g <= 2^-20; for
    Lambda also every |m_i| and r at most 2^500. Under them every
    underflow term h below adds less than 2^-830 in total, so _TINY =
    2^-800 covers them, and no step of the moved score of a row that a
    limit decides overflows: a row with R > L(c, r) has R <= 2^500 and u
    |m_i| / s_i < c R (Manhattan) or u ||m|| < c sqrt(R) / N
    (Euclidean), and a row with R < Lambda(c, r) has |y_i| <= |m_i| +
    |d_i| < 2^1014 and S(y) <= r <= 2^500.

    Manhattan (s the stds, S = sum of |d_i| / s_i in dimension order).
    Terms are >= 0, so a dimension-order sum of q of them is within
    (1 +- u)^(q - 1) of the exact sum, and each term within 1 +- u of
    |d_i| / s_i. With M = sum_i |m_i| / s_i, the moved score satisfies

        S(y) >= c R (1 - u)^(q + 3) (1 + u)^-q - u (1 + u) M - _TINY,
        S(y) <= c R (1 + u)^(q + 3) (1 - u)^-q + u (1 + u)^(q + 1) M
                + _TINY,

    so S(y) > r where R > (r + u (1 + u) M + _TINY) (1 + u)^q (1 -
    u)^-(q + 3) / c, and S(y) <= r where R < (r - u (1 + u)^(q + 1) M -
    _TINY) (1 - u)^q (1 + u)^-(q + 3) / c. L(c, r) = (1 + 4 (q + 2) u)
    (r + 2 u M + _TINY) / c and Lambda(c, r) = (1 - 4 (q + 2) u) (r - 2
    u M - _TINY) / c, as computed, are at least and at most these: their
    factors cover the powers of 1 +- u above and the five roundings of
    each formula, and 2 u M (M summed in float) covers u (1 + u)^(q + 1)
    M.

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
    + a with a = N (u (1 + u) ||m|| + sqrt(q) 2^-1074), so

        c (1 - g) sqrt(Q(d)) - a <= sqrt(Q(d')) <= c (1 + g) sqrt(Q(d)) + a.

    Chaining R <= (1 + 4g) Q(d), S(y) >= (1 - 4g) Q(d') and the underflow
    terms, S(y) > r wherever

        R > _TINY + (1 + 11 g) ((sqrt(r + _TINY) + D) / c)^2,

    with D = u (1 + u) N ||m|| plus the underflow terms (below _TINY);
    chaining R >= (1 - 4g) Q(d), S(y) <= (1 + 4g) Q(d') the same way,
    S(y) <= r wherever

        R < (1 - 10 g) ((sqrt(r - _TINY) - 1.0001 D) / c)^2 - _TINY,

    the bracket being >= 0. L(c, r) = _TINY + (1 + 16 g) ((sqrt(r +
    _TINY) + D') / c)^2 and Lambda(c, r) = (1 - 16 g) (max(0, (1 - 4 u)
    sqrt(r - _TINY) - D') / c)^2 - _TINY, D' = 2 u N ||m|| + _TINY, as
    computed, are at least and at most these: 1 - 4u keeps the rounded
    root below sqrt(r - _TINY), and 5 g >= 20 u covers the nine
    roundings after it (and the nine of L).
    """
    q = wall.stats.mean.size
    ref = wall.score(points)
    order = np.argsort(ref)
    ref = ref[order]
    r = np.asarray(radii, dtype=np.float64)
    c = np.asarray(factors, dtype=np.float64)
    c = c.reshape(c.shape + (1,) * r.ndim)
    shape = np.broadcast_shapes(c.shape, r.shape)
    upper, lower = np.full(shape, np.inf), np.full(shape, -np.inf)
    # (over)flows at c = 0 and past the guards land only where masked;
    # each limit is computed in place, as it is the largest array here
    live = (c > 0.0) & (np.abs(ref) <= _REACH).all()
    bounded = live & (np.abs(wall.stats.mean) <= _REACH).all() & \
        (r <= _REACH)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if wall.kind == "manhattan":
            stds = wall.stats.stddevs
            spread = 2.0 * _U * (np.abs(wall.stats.mean) / stds).sum()
            if stds.min() >= 1.0 / _SCALE:
                widen = 4 * (q + 2) * _U
                np.divide((1.0 + widen) * (r + spread + _TINY), c, out=upper)
                np.divide((1.0 - widen) * (r - spread - _TINY), c, out=lower)
                np.copyto(upper, np.inf, where=~live)
                np.copyto(lower, -np.inf, where=~bounded)
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
                np.divide(np.sqrt(r + _TINY) + shift + _TINY, c, out=upper)
                upper *= upper
                upper *= 1.0 + 16.0 * g
                upper += _TINY
                np.copyto(upper, np.inf, where=~live)
                root = np.sqrt(np.maximum(r - _TINY, 0.0)) * (
                    1.0 - 4.0 * _U) - shift - _TINY
                np.divide(np.maximum(root, 0.0), c, out=lower)
                lower *= lower
                lower *= 1.0 - 16.0 * g
                lower -= _TINY
                np.copyto(lower, -np.inf, where=~bounded)
    if np.isfinite(ref).all():
        np.copyto(lower, np.inf, where=(c == 0.0) & (r >= 0.0))
    reach = np.where(np.isfinite(upper),
                     np.searchsorted(ref, upper, side="right"), ref.size)
    return order, reach, np.searchsorted(ref, lower, side="left")


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
    of N(mean, covariance) from seed (sample_gaussian), sorted. A
    quantile reads only order statistics, so sorting leaves every eta
    bitwise and lets each np.quantile of them select on sorted data."""
    if sample_size < 2:
        raise ValidationError("sample_size must be at least 2")
    draws = sample_gaussian(stats.mean, stats.covariance, sample_size, seed)
    return np.sort(scaled_l1_score(stats, draws))


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
