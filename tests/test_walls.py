"""Region statistics, quantiles, and the two wall shapes."""
from __future__ import annotations

import math
import statistics

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from adclust.errors import DegenerateRegionError, ValidationError
from adclust.walls import (RegionStats, Wall, chi2_quantile, eta_of_alpha,
                           fit_euclidean_wall, fit_manhattan_wall,
                           fit_region_stats, sample_gaussian,
                           stats_from_moments)
from conftest import oracle_chi2_quantile


def test_chi2_two_dof_closed_form():
    for alpha in (0.5, 0.6, 0.8, 0.9, 0.95, 0.99):
        assert chi2_quantile(2, alpha) == pytest.approx(
            -2.0 * math.log(1.0 - alpha), abs=1e-12)


def test_chi2_general_dof_against_oracle():
    for dof in (1, 2, 3, 5, 10):
        for alpha in (0.1, 0.5, 0.9, 0.95, 0.99):
            assert chi2_quantile(dof, alpha) == pytest.approx(
                oracle_chi2_quantile(dof, alpha), abs=1e-8)


def test_chi2_validation():
    with pytest.raises(ValidationError):
        chi2_quantile(0, 0.5)
    with pytest.raises(ValidationError):
        chi2_quantile(2, 0.0)
    with pytest.raises(ValidationError):
        chi2_quantile(2, 1.0)


def test_fit_region_stats_hand_values():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    stats = fit_region_stats(pts)
    np.testing.assert_allclose(stats.mean, [1.0, 1.0])
    # n - 1 denominator: var = 4/3 per axis, no cross term
    np.testing.assert_allclose(stats.covariance,
                               [[4.0 / 3.0, 0.0], [0.0, 4.0 / 3.0]])
    assert not stats.ridged


def test_collinear_region_gets_ridged():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    stats = fit_region_stats(pts)
    assert stats.ridged
    assert np.linalg.eigvalsh(stats.covariance).min() > 0
    # the ridge is tiny relative to the informative axis
    assert stats.covariance[0, 0] == pytest.approx(2.0, rel=1e-6)
    assert stats.covariance[1, 1] == pytest.approx(1e-9, rel=1.0)


def test_fit_region_stats_requires_two_points():
    with pytest.raises(DegenerateRegionError, match="degenerate region"):
        fit_region_stats(np.array([[1.0, 2.0]]))


def test_stats_from_moments_matches_fit_policy():
    direct = stats_from_moments([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
    assert not direct.ridged
    np.testing.assert_array_equal(direct.stddevs, [1.0, 1.0])
    flat = stats_from_moments([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])
    assert flat.ridged


def test_euclidean_wall_contains_mean_and_boundary_is_closed():
    stats = stats_from_moments([1.0, -1.0], [[2.0, 0.3], [0.3, 1.0]])
    wall = fit_euclidean_wall(stats, 0.9)
    assert wall.contains(stats.mean[None, :])[0]
    # a point scaled to sit exactly on the boundary passes the closed test
    direction = np.array([1.0, 0.5])
    m = wall.mahalanobis_sq((stats.mean + direction)[None, :])[0]
    boundary = stats.mean + direction * math.sqrt(wall.radius / m)
    assert wall.contains(boundary[None, :])[0]


def test_euclidean_wall_is_affine_equivariant():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(60, 2))
    probes = rng.normal(size=(200, 2)) * 2.0
    transform = np.array([[2.0, 0.7], [0.0, 0.5]])
    shift = np.array([3.0, -4.0])
    wall = fit_euclidean_wall(fit_region_stats(pts), 0.8)
    wall_t = fit_euclidean_wall(fit_region_stats(pts @ transform.T + shift),
                                0.8)
    np.testing.assert_array_equal(wall.contains(probes),
                                  wall_t.contains(probes @ transform.T + shift))


def test_euclidean_coverage_matches_level():
    rng = np.random.default_rng(3)
    stats = stats_from_moments([0.0, 0.0], [[1.0, 0.4], [0.4, 2.0]])
    draws = sample_gaussian(stats.mean, stats.covariance, 60_000,
                            seed=rng.integers(1 << 31))
    for alpha in (0.6, 0.9):
        wall = fit_euclidean_wall(stats, alpha)
        assert wall.contains(draws).mean() == pytest.approx(alpha, abs=0.02)


def test_manhattan_coverage_matches_level():
    stats = stats_from_moments([1.0, 2.0], [[1.0, 0.0], [0.0, 3.0]])
    wall = fit_manhattan_wall(stats, 0.8, sample_size=100_000, seed=5)
    draws = sample_gaussian(stats.mean, stats.covariance, 60_000, seed=17)
    assert wall.contains(draws).mean() == pytest.approx(0.8, abs=0.02)


def test_eta_matches_folded_normal_in_one_dimension():
    stats = stats_from_moments([0.0], [[4.0]])
    for alpha in (0.6, 0.8, 0.95):
        eta = eta_of_alpha(stats, alpha, sample_size=200_000, seed=2)
        expected = statistics.NormalDist().inv_cdf((1.0 + alpha) / 2.0)
        assert eta == pytest.approx(expected, abs=0.05)


def test_eta_is_monotone_in_alpha():
    stats = stats_from_moments([0.0, 0.0], [[1.0, 0.2], [0.2, 1.5]])
    etas = [eta_of_alpha(stats, a, sample_size=50_000, seed=9)
            for a in (0.5, 0.7, 0.9, 0.99)]
    assert etas == sorted(etas)
    assert etas[0] < etas[-1]


def test_eta_ignores_diagonal_scale():
    # the statistic is standardized per axis, so pure rescaling of a
    # diagonal covariance cannot change eta
    base = stats_from_moments([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
    scaled = stats_from_moments([5.0, -3.0], [[16.0, 0.0], [0.0, 0.25]])
    assert eta_of_alpha(base, 0.8, sample_size=40_000, seed=4) == \
        eta_of_alpha(scaled, 0.8, sample_size=40_000, seed=4)


def test_eta_is_seed_deterministic():
    stats = stats_from_moments([0.0, 0.0], [[1.0, 0.3], [0.3, 2.0]])
    first = eta_of_alpha(stats, 0.9, sample_size=30_000, seed=[7, 1])
    second = eta_of_alpha(stats, 0.9, sample_size=30_000, seed=[7, 1])
    assert first == second
    other = eta_of_alpha(stats, 0.9, sample_size=30_000, seed=[7, 2])
    assert first != other


def test_manhattan_diamond_vertices_sit_on_boundary():
    stats = stats_from_moments([1.0, -2.0], [[4.0, 0.0], [0.0, 9.0]])
    wall = fit_manhattan_wall(stats, 0.85, sample_size=50_000, seed=3)
    r = wall.radius
    vertices = np.array([
        [1.0 + r * 2.0, -2.0],
        [1.0 - r * 2.0, -2.0],
        [1.0, -2.0 + r * 3.0],
        [1.0, -2.0 - r * 3.0],
    ])
    np.testing.assert_allclose(wall.scaled_l1(vertices), r, rtol=1e-12)
    assert wall.contains(vertices).all()
    outside = vertices * 1.0
    outside[:, 0] += 1e-6
    outside[0, 0] += 1e-3
    assert not wall.contains(outside[:1]).any()


def test_wall_validation():
    stats = stats_from_moments([0.0], [[1.0]])
    with pytest.raises(ValidationError):
        Wall(kind="square", stats=stats, level=0.5, radius=1.0)
    with pytest.raises(ValidationError):
        Wall(kind="euclidean", stats=stats, level=1.5, radius=1.0)
    for radius in (0.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            Wall(kind="euclidean", stats=stats, level=0.5, radius=radius)


def test_sample_gaussian_moments():
    stats = stats_from_moments([2.0, -1.0], [[1.0, 0.5], [0.5, 2.0]])
    draws = sample_gaussian(stats.mean, stats.covariance, 200_000, seed=12)
    np.testing.assert_allclose(draws.mean(axis=0), stats.mean, atol=0.02)
    np.testing.assert_allclose(np.cov(draws.T), stats.covariance, atol=0.03)


def test_sample_gaussian_is_seed_deterministic():
    stats = stats_from_moments([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(
        sample_gaussian(stats.mean, stats.covariance, 100, seed=8),
        sample_gaussian(stats.mean, stats.covariance, 100, seed=8))


@pytest.mark.parametrize("q", range(1, 9))
def test_sample_gaussian_is_the_documented_cholesky_draw(q):
    # AR(1) covariance: at q = 5 and 6 scipy's Cholesky factor differs
    # from numpy's in the last bit, and so would the draws
    cov = 0.9 ** np.abs(np.subtract.outer(np.arange(q), np.arange(q)))
    mean = np.arange(q, dtype=np.float64)
    want = mean + np.random.default_rng(4).standard_normal((500, q)) \
        @ np.linalg.cholesky(cov).T
    assert sample_gaussian(mean, cov, 500, seed=4).tobytes() == want.tobytes()


def test_eta_of_alpha_takes_an_array_of_levels():
    stats = stats_from_moments([1.0, 2.0], [[1.0, 0.2], [0.2, 3.0]])
    levels = np.array([0.1, 0.5, 0.9])
    etas = eta_of_alpha(stats, levels, sample_size=5000, seed=2)
    assert etas.shape == (3,)
    for level, eta in zip(levels, etas):
        single = eta_of_alpha(stats, float(level), sample_size=5000, seed=2)
        assert type(single) is float and single == eta
    with pytest.raises(ValidationError):
        eta_of_alpha(stats, np.array([0.5, 1.0]), sample_size=5000)


def dimension_order_scores(wall, points):
    """Each row's score as plain float terms summed in dimension order,
    one point at a time."""
    cho = cho_factor(wall.stats.covariance, lower=True)
    scores = []
    for x in points.tolist():
        d = [xi - mi for xi, mi in zip(x, wall.stats.mean.tolist())]
        if wall.kind == "euclidean":
            solved = cho_solve(cho, np.array(d)).tolist()
            terms = [di * si for di, si in zip(d, solved)]
        else:
            terms = [abs(di) / sd for di, sd
                     in zip(d, wall.stats.stddevs.tolist())]
        total = 0.0
        for term in terms:
            total += term
        scores.append(total)
    return np.array(scores)


@pytest.mark.parametrize("kind", ["euclidean", "manhattan"])
@pytest.mark.parametrize("q", [3, 8, 9])
def test_scores_are_dimension_order_sums_in_any_layout(q, kind):
    rng = np.random.default_rng(q)
    a = rng.standard_normal((q, q))
    stats = stats_from_moments(rng.standard_normal(q), a @ a.T + np.eye(q))
    wall = Wall(kind=kind, stats=stats, level=0.5, radius=1.0)
    points = 3.0 * rng.standard_normal((2000, q))
    want = dimension_order_scores(wall, points).tobytes()
    assert wall.score(points).tobytes() == want
    assert wall.score(np.asfortranarray(points)).tobytes() == want


@pytest.mark.parametrize("kind", ["euclidean", "manhattan"])
@pytest.mark.parametrize("q", [2, 3, 8])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_scores_of_slices_and_subsets_are_the_full_scores(q, kind, layout):
    # each point's score is computed on its own: the game scores contiguous
    # prefixes of a sample and relies on this
    rng = np.random.default_rng(q)
    a = rng.standard_normal((q, q))
    stats = stats_from_moments(rng.standard_normal(q), a @ a.T + np.eye(q))
    wall = Wall(kind=kind, stats=stats, level=0.5, radius=1.0)
    points = np.asarray(3.0 * rng.standard_normal((1001, q)), order=layout)
    full = wall.score(points)
    for lo, hi in [(0, 0), (500, 500), (0, 1), (700, 701), (0, 333),
                   (13, 346), (1, 1001), (0, 1001)]:
        assert wall.score(points[lo:hi]).tobytes() == full[lo:hi].tobytes()
    rows = rng.permutation(1001)[:517]
    assert wall.score(points[rows]).tobytes() == full[rows].tobytes()
