"""Contraction game: payoffs, attack moves, tables, and both solvers."""
from __future__ import annotations

import dataclasses
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from adclust import game
from adclust.errors import GridBudgetError, ValidationError
from adclust.game import (Equilibrium, GameConfig,
                          PopulationSpec, UtilitySpec, apply_attack,
                          attacker_utility, build_tables, defender_utility,
                          movement_cost, solve_follower, solve_game,
                          solve_leader)
from adclust.synthetic import game_preset
from adclust.walls import (RegionStats, Wall, contraction_counts,
                           eta_of_alpha, sample_gaussian)


def draw(spec: PopulationSpec) -> np.ndarray:
    return sample_gaussian(spec.mean, spec.cov, spec.sample_size, spec.seed)


def small_config(family="log", a=4.0, k_max=7.0, cost_c=20.0,
                 sample_size=400, wall_kind="euclidean", seed=0, **kw):
    normal = PopulationSpec(mean=(0.0, 0.0), cov=((1.0, 0.0), (0.0, 2.0)),
                            sample_size=sample_size, seed=[seed, 0])
    adversary = PopulationSpec(mean=(6.0, 6.0), cov=((1.0, 1.0), (1.0, 2.0)),
                               sample_size=sample_size, seed=[seed, 1])
    return GameConfig(normal=normal, adversaries=[adversary],
                      utilities=[UtilitySpec(family, a=a, k_max=k_max)],
                      cost_c=cost_c, wall_kind=wall_kind, seed=seed, **kw)


def wall_at(config, tables, ih):
    return Wall(kind=config.wall_kind, stats=tables.stats,
                level=float(tables.alphas[ih]), radius=float(tables.radii[ih]))


def test_defender_utility_hand_value():
    assert defender_utility(0.1, 0.05, 20.0) == pytest.approx(-110.0,
                                                              rel=1e-12)
    assert defender_utility(0.0, 0.0, 20.0) == 0.0
    assert defender_utility(0.125, 0.03125, 20.0) == -75.0


def test_payoff_hand_values():
    # full contraction from distance 6 halfway in costs 3
    log_util = UtilitySpec("log", a=4.0, k_max=7.0)
    assert log_util.payoff(np.array([3.0]))[0] == pytest.approx(
        7.0 - 4.0 * math.log(4.0), rel=1e-12)
    linear_util = UtilitySpec("linear", a=1.5, k_max=7.0)
    assert linear_util.payoff(np.array([3.0]))[0] == pytest.approx(2.5)
    exp_util = UtilitySpec("exp", a=0.75, k_max=7.0)
    # exp(0.75 * 3) ~ 9.49 > 7: clamped to zero
    assert exp_util.payoff(np.array([3.0]))[0] == 0.0
    assert exp_util.payoff(np.array([0.0]))[0] == pytest.approx(6.0)


def test_payoff_never_negative_and_zero_cost_is_free():
    for family, a in (("log", 4.0), ("linear", 1.5)):
        util = UtilitySpec(family, a=a, k_max=7.0)
        costs = np.linspace(0.0, 50.0, 200)
        pay = util.payoff(costs)
        assert (pay >= 0.0).all()
        assert pay[0] == 7.0


def test_utility_spec_validation():
    with pytest.raises(ValidationError):
        UtilitySpec("cubic", a=1.0)
    with pytest.raises(ValidationError):
        UtilitySpec("log", a=0.0)
    with pytest.raises(ValidationError):
        UtilitySpec("log", a=1.0, k_max=0.0)


def test_apply_attack_endpoints_and_validation():
    pts = np.array([[2.0, 4.0], [-1.0, 0.0]])
    mu = np.array([1.0, 1.0])
    np.testing.assert_array_equal(apply_attack(pts, mu, 0.0), pts)
    moved = apply_attack(pts, mu, 1.0)
    np.testing.assert_array_equal(moved, np.tile(mu, (2, 1)))
    half = apply_attack(pts, mu, 0.5)
    np.testing.assert_allclose(half, [[1.5, 2.5], [0.0, 0.5]])
    with pytest.raises(ValidationError):
        apply_attack(pts, mu, -0.1)
    with pytest.raises(ValidationError):
        apply_attack(pts, mu, 1.1)


def test_apply_attack_moments():
    # contraction scales the deviation: mean (1-t) mu_b + t mu_g,
    # covariance (1-t)^2 Sigma_b
    spec = PopulationSpec(mean=(6.0, 6.0), cov=((1.0, 1.0), (1.0, 2.0)),
                          sample_size=200_000, seed=3)
    sample = draw(spec)
    mu_g = np.array([0.0, 0.0])
    t = 0.3
    moved = apply_attack(sample, mu_g, t)
    np.testing.assert_allclose(moved.mean(axis=0), (1 - t) * np.array([6.0, 6.0]),
                               atol=0.02)
    np.testing.assert_allclose(np.cov(moved.T),
                               (1 - t) ** 2 * np.array([[1.0, 1.0], [1.0, 2.0]]),
                               atol=0.03)


@pytest.mark.parametrize("wall_kind", ["euclidean", "manhattan"])
def test_attack_and_utility_do_not_depend_on_layout(wall_kind):
    """C-ordered, Fortran-ordered and strided samples give the bits of
    fl(m + fl(c fl(x - m))), and attacker_utility their table entries."""
    config = small_config(sample_size=300, wall_kind=wall_kind)
    tables = build_tables(config)
    rows = draw(config.adversaries[0])
    layouts = [rows, np.asfortranarray(rows), rows[::3], rows[::-2],
               np.asfortranarray(rows)[5:250]]
    for it in (0, 17, 50, 83, len(tables.ts) - 1):
        t = float(tables.ts[it])
        for sample in layouts:
            moved = apply_attack(sample, tables.mu_g, t)
            want = tables.mu_g + (1.0 - t) * (np.ascontiguousarray(sample)
                                              - tables.mu_g)
            assert moved.tobytes() == want.tobytes()
        for ih in (0, 44, len(tables.alphas) - 1):
            wall = wall_at(config, tables, ih)
            util = [attacker_utility(config.utilities[0], sample,
                                     tables.mu_g, t, wall)
                    for sample in layouts[:2]]
            assert util[0] == util[1] == tables.attacker[0][it, ih]


def test_movement_cost_is_row_euclidean():
    a = np.array([[0.0, 0.0], [1.0, 1.0]])
    b = np.array([[3.0, 4.0], [1.0, 1.0]])
    np.testing.assert_allclose(movement_cost(a, b), [5.0, 0.0])


def test_attacker_utility_direct_matches_tables_bitwise():
    config = small_config(sample_size=300)
    tables = build_tables(config)
    sample = draw(config.adversaries[0])
    rng = np.random.default_rng(6)
    for _ in range(25):
        it = int(rng.integers(len(tables.ts)))
        ih = int(rng.integers(len(tables.alphas)))
        direct = attacker_utility(config.utilities[0], sample, tables.mu_g,
                                  float(tables.ts[it]),
                                  wall_at(config, tables, ih))
        assert direct == tables.attacker[0][it, ih]


def masked_payoffs(config, tables, it):
    """Adversary 0's payoffs at ts[it] and its pass mask at every radius,
    (alphas, sample)."""
    sample = draw(config.adversaries[0])
    moved = apply_attack(sample, tables.mu_g, float(tables.ts[it]))
    pay = config.utilities[0].payoff(movement_cost(sample, moved))
    s = wall_at(config, tables, 0).score(moved)
    return np.where(s <= tables.radii[:, None], pay, 0.0)


def test_table_cells_are_correctly_rounded_means():
    config = small_config(sample_size=300)
    tables = build_tables(config)
    pairwise_differs = 0
    for it in range(len(tables.ts)):
        masked = masked_payoffs(config, tables, it)
        exact = np.array([math.fsum(row) for row in masked.tolist()]) / 300
        np.testing.assert_array_equal(tables.attacker[0][it], exact)
        pairwise_differs += (masked.mean(axis=1) != exact).sum()
    # numpy's pairwise mean misses the correct rounding on this input
    assert pairwise_differs > 0


def test_attacker_utility_ignores_sample_order():
    # 2000 draws, summed by exact.row_sums as one row of 2000
    config = small_config(sample_size=2000)
    tables = build_tables(config)
    sample = draw(config.adversaries[0])
    shuffled = sample[np.random.default_rng(3).permutation(len(sample))]
    util = config.utilities[0]
    for it in range(0, len(tables.ts), 5):
        t = float(tables.ts[it])
        for ih in range(0, len(tables.alphas), 7):
            wall = wall_at(config, tables, ih)
            direct = attacker_utility(util, sample, tables.mu_g, t, wall)
            assert same_bits(direct, attacker_utility(util, shuffled,
                                                      tables.mu_g, t, wall))
            assert same_bits(direct, tables.attacker[0][it, ih])


def same_bits(a, b) -> bool:
    """Float equality that also tells 0.0 from -0.0."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def assert_tables_match_direct_evaluation(config, tables):
    """Every cell of every adversary's tables equals attacker_utility and
    the pass rate evaluated directly, bitwise."""
    for i, (spec, util) in enumerate(zip(config.adversaries,
                                         config.utilities)):
        sample = draw(spec)
        for ih in range(len(tables.alphas)):
            wall = wall_at(config, tables, ih)
            for it, t in enumerate(tables.ts.tolist()):
                s = wall.score(apply_attack(sample, tables.mu_g, t))
                direct = attacker_utility(util, sample, tables.mu_g, t, wall)
                assert same_bits(direct, tables.attacker[i][it, ih]), \
                    (i, it, ih)
                assert same_bits((s <= wall.radius).mean(),
                                 tables.adv_error[i][it, ih]), (i, it, ih)


@pytest.mark.parametrize("wall_kind", ["euclidean", "manhattan"])
def test_every_table_cell_matches_direct_evaluation_bitwise(wall_kind):
    config = small_config(sample_size=1000, wall_kind=wall_kind,
                          alpha_step=0.05, t_step=0.05)
    assert_tables_match_direct_evaluation(config, build_tables(config))


@pytest.mark.parametrize("wall_kind", ["euclidean", "manhattan"])
def test_every_three_adversary_cell_matches_direct_evaluation_bitwise(
        wall_kind):
    config = dataclasses.replace(
        game_preset("three_adv_log", wall_kind=wall_kind, sample_size=200),
        alpha_step=0.02, t_step=0.1, joint_t_step=0.1)
    tables = build_tables(config)
    # each adversary has cells where nothing, part and everything passes,
    # all three in one row
    for err in tables.adv_error:
        none, part, full = err == 0.0, (err > 0.0) & (err < 1.0), err == 1.0
        assert none.any() and part.any() and full.any()
        assert (none.any(axis=1) & part.any(axis=1) & full.any(axis=1)).any()
    assert_tables_match_direct_evaluation(config, tables)


@pytest.mark.parametrize("k_max", [1e300, 1e306])
def test_huge_payoff_cells_match_direct_evaluation_bitwise(k_max):
    # payoffs of about 0.9 k_max to k_max, as the costs stay below 10. At
    # 1e306 the split would need a sigma past 2^1023, so every sum goes to
    # fsum, and the sums that pass most of the 300 draws overflow to inf
    config = small_config(family="linear", a=k_max / 100.0, k_max=k_max,
                          sample_size=300, alpha_step=0.05, t_step=0.05)
    tables = build_tables(config)
    assert (tables.attacker[0] > k_max / 2.0).any()
    assert (tables.attacker[0] == math.inf).any() == (k_max > 1e305)
    assert_tables_match_direct_evaluation(config, tables)


def test_cells_hold_when_contraction_reorders_the_scores(monkeypatch):
    # build_tables picks each t row's candidates by the wall's own kind
    # score, which contraction scales, and sorts them by Wall.score. A
    # score that only grows keeps every blocked sample blocked but
    # reorders the sample from row to row; the cells must not care.
    score = Wall.score

    def scrambled(self, points):
        wobble = np.sin(1e3 * np.asarray(points)[:, 0]) ** 2
        return score(self, points) * (1.0 + wobble)

    monkeypatch.setattr(Wall, "score", scrambled)
    config = small_config(sample_size=300, alpha_step=0.05, t_step=0.05)
    tables = build_tables(config)
    sample = draw(config.adversaries[0])
    wall = wall_at(config, tables, 0)
    orders = [np.argsort(wall.score(apply_attack(sample, tables.mu_g, t)),
                         kind="stable") for t in tables.ts.tolist()]
    assert all((a != b).any() for a, b in zip(orders, orders[1:-1]))
    assert_tables_match_direct_evaluation(config, tables)


def row_counts(config, tables):
    """Adversary 0's candidate count per t row, as build_tables takes it."""
    return contraction_counts(wall_at(config, tables, 0),
                              draw(config.adversaries[0]),
                              float(tables.radii.max()), 1.0 - tables.ts)[1]


@pytest.mark.parametrize("wall_kind", ["euclidean", "manhattan"])
def test_rows_with_no_candidates_hold_zero_entries(wall_kind):
    config = small_config(sample_size=300, wall_kind=wall_kind,
                          alpha_step=0.05, t_step=0.05)
    tables = build_tables(config)
    empty = row_counts(config, tables) == 0
    assert empty.any() and not empty.all()
    for tab in (tables.attacker[0], tables.adv_error[0]):
        assert all(same_bits(v, 0.0) for v in tab[empty].ravel())
    assert_tables_match_direct_evaluation(config, tables)


def scaled_config(center, scale, wall_kind, **kw):
    """small_config's populations scaled by scale about center."""
    config = small_config(sample_size=600, wall_kind=wall_kind,
                          alpha_step=0.05, t_step=0.05, **kw)
    center = np.asarray(center)

    def moved(spec):
        return dataclasses.replace(
            spec, mean=tuple(center + scale * np.asarray(spec.mean)),
            cov=tuple(map(tuple, scale ** 2 * np.asarray(spec.cov))))

    return dataclasses.replace(config, normal=moved(config.normal),
                               adversaries=[moved(config.adversaries[0])])


@pytest.mark.parametrize("wall_kind", ["euclidean", "manhattan"])
def test_cells_hold_with_a_mean_far_from_the_origin(wall_kind):
    # at (1e6, -1e6) a float step is about a tenth of a standard
    # deviation of 1e-9, so adding and removing the mean moves a score by
    # up to about 0.1: far more than the relative roundings, and covered
    # only by the limit's absolute term
    config = scaled_config((1e6, -1e6), 1e-9, wall_kind)
    tables = build_tables(config)
    err = tables.adv_error[0]
    assert ((err > 0.0) & (err < 1.0)).any()
    counts = row_counts(config, tables)
    assert ((counts > 0) & (counts < 600)).sum() >= 5
    assert_tables_match_direct_evaluation(config, tables)


@pytest.mark.parametrize("wall_kind", ["euclidean", "manhattan"])
def test_cells_hold_on_the_widest_wall(wall_kind):
    # one adversary in a tight clump (standard deviation 1e-15) exactly
    # on the widest wall at t = 0.3, so about half of it passes there with
    # scores within a few roundings of that radius, where only the
    # limit's relative widening keeps the passing ones in the prefix
    config = small_config(sample_size=1000, wall_kind=wall_kind,
                          alpha_step=0.05, t_step=0.1)
    tables = build_tables(config)
    top, c = float(tables.radii.max()), 1.0 - 0.3
    direction = np.array([1.0, 0.5])
    wall = wall_at(config, tables, 0)
    # the score scales as c^2 (Mahalanobis) or c (scaled L1)
    power = 2 if wall_kind == "euclidean" else 1
    unit = float(wall.score(tables.mu_g + direction)[0])
    reach = (top / unit) ** (1 / power) / c
    clump = dataclasses.replace(
        config.adversaries[0], mean=tuple(tables.mu_g + reach * direction),
        cov=((1e-30, 0.0), (0.0, 1e-30)))
    config = dataclasses.replace(config, adversaries=[clump])
    tables = build_tables(config)
    assert 0.0 < tables.adv_error[0][3, -1] < 1.0
    assert_tables_match_direct_evaluation(config, tables)


def test_ill_conditioned_walls_score_every_sample(monkeypatch):
    # an unridged covariance of condition 1e24 (fit_region_stats would
    # ridge it) leaves the Cholesky solves no certified bound, so every
    # row takes every sample
    def unridged(points):
        cov = np.cov(points.T)
        return RegionStats(mean=points.mean(axis=0), covariance=cov,
                           stddevs=np.sqrt(np.diag(cov)),
                           member_count=len(points))

    config = scaled_config((0.0, 0.0), 1.0, "euclidean")
    thin = ((1.0, 0.0), (0.0, 1e-24))
    config = dataclasses.replace(
        config,
        normal=dataclasses.replace(config.normal, cov=thin),
        adversaries=[dataclasses.replace(config.adversaries[0],
                                         mean=(3.0, 3e-12), cov=thin)])
    assert (row_counts(config, build_tables(config)) < 600).any()
    monkeypatch.setattr(game, "fit_region_stats", unridged)
    tables = build_tables(config)
    err = tables.adv_error[0]
    assert ((err > 0.0) & (err < 1.0)).any()
    assert (row_counts(config, tables) == 600).all()
    assert_tables_match_direct_evaluation(config, tables)


@pytest.mark.parametrize("wall_kind", ["euclidean", "manhattan"])
def test_rows_take_no_some_or_every_sample(wall_kind):
    # an adversary at (12, 12) passes no wall until well into the
    # contraction, and at t = 1 every sample is a candidate
    config = scaled_config((0.0, 0.0), 1.0, wall_kind)
    far = dataclasses.replace(config.adversaries[0], mean=(12.0, 12.0))
    config = dataclasses.replace(config, adversaries=[far])
    tables = build_tables(config)
    counts = row_counts(config, tables)
    assert counts[0] == 0 and counts[-1] == 600
    assert ((counts > 0) & (counts < 600)).any()
    assert_tables_match_direct_evaluation(config, tables)


def config_in(q, sample_size=150, **kw):
    """One adversary against a normal population in q dimensions, both
    with AR(1) covariances."""
    cov = tuple(map(tuple, 0.5 ** np.abs(np.subtract.outer(np.arange(q),
                                                           np.arange(q)))))
    normal = PopulationSpec(mean=(0.0,) * q, cov=cov, sample_size=sample_size,
                            seed=[q, 0])
    adversary = PopulationSpec(mean=(2.5,) * q, cov=cov,
                               sample_size=sample_size, seed=[q, 1])
    return GameConfig(normal=normal, adversaries=[adversary],
                      utilities=[UtilitySpec("linear", a=1.0)], cost_c=20.0,
                      alpha_step=0.05, t_step=0.1, **kw)


@pytest.mark.parametrize("wall_kind", ["euclidean", "manhattan"])
@pytest.mark.parametrize("q", [3, 8])
def test_higher_dimensional_cells_match_direct_evaluation_bitwise(q,
                                                                  wall_kind):
    # build_tables scores a dimension-major sample, the direct evaluation
    # a row-major one
    config = config_in(q, wall_kind=wall_kind)
    tables = build_tables(config)
    err = tables.adv_error[0]
    assert ((err > 0.0) & (err < 1.0)).any()
    assert_tables_match_direct_evaluation(config, tables)


@pytest.mark.parametrize("wall_kind", ["euclidean", "manhattan"])
def test_clamped_payoff_cells_match_direct_evaluation_bitwise(wall_kind):
    # exp(0.75 cost) passes k_max = 7 beyond a cost of about 2.6, so the
    # masked means take zero payoffs both inside and outside the wall
    config = small_config(family="exp", a=0.75, sample_size=300,
                          wall_kind=wall_kind, alpha_step=0.05, t_step=0.05)
    tables = build_tables(config)
    sample = draw(config.adversaries[0])
    clamped = [(config.utilities[0].payoff(movement_cost(
        sample, apply_attack(sample, tables.mu_g, t))) == 0.0).mean()
               for t in tables.ts.tolist()]
    err = tables.adv_error[0]
    partial = ((err > 0.0) & (err < 1.0)).any(axis=1)
    assert any(0.0 < c < 1.0 and p for c, p in zip(clamped, partial))
    assert_tables_match_direct_evaluation(config, tables)


def test_pass_rate_never_decreases_with_contraction():
    # moving toward the wall center can only bring objects inside
    config = small_config(sample_size=500)
    tables = build_tables(config)
    for ih in (10, 50, 90):
        col = tables.adv_error[0][:, ih]
        assert (np.diff(col) >= 0.0).all()
    assert tables.adv_error[0][-1, :].min() == 1.0


def test_radii_increase_with_alpha():
    config = small_config(sample_size=300)
    tables = build_tables(config)
    assert (np.diff(tables.radii) > 0).all()
    config = small_config(sample_size=300, wall_kind="manhattan")
    tables = build_tables(config)
    assert (np.diff(tables.radii) >= 0).all()


def test_tables_are_reproducible():
    config = small_config(sample_size=300)
    t1 = build_tables(config)
    t2 = build_tables(config)
    np.testing.assert_array_equal(t1.attacker[0], t2.attacker[0])
    np.testing.assert_array_equal(t1.normal_error, t2.normal_error)
    np.testing.assert_array_equal(t1.radii, t2.radii)


def test_tiny_payoff_ceiling_freezes_attackers():
    # when even a small move erases the payoff, staying put dominates
    config = small_config(family="exp", a=5.0, k_max=1.05, sample_size=400)
    eq, tables = solve_game(config, "leader")
    assert eq.t == (0.0,)
    # and the defender can be checked against a hand argmax over alpha
    pay = tables.attacker[0][0]
    err = tables.adv_error[0][0]
    d = -100.0 * (tables.normal_error + config.cost_c * err)
    assert eq.alpha_index == int(d.argmax())
    assert eq.attacker_utilities == (float(pay[eq.alpha_index]),)


def test_free_adversaries_push_alpha_to_the_top():
    # cost_c = 0: only the normal error matters, smallest wall wins,
    # meaning the largest alpha keeps normal mass in
    config = small_config(cost_c=0.0, sample_size=400)
    eq, _ = solve_game(config, "leader")
    assert eq.alpha == 0.99


def test_equilibrium_is_self_consistent():
    config = small_config(sample_size=400)
    for orientation in ("leader", "follower"):
        eq, tables = solve_game(config, orientation)
        assert isinstance(eq, Equilibrium)
        ih = eq.alpha_index
        assert float(tables.alphas[ih]) == eq.alpha
        assert float(tables.radii[ih]) == eq.radius
        for i, it in enumerate(eq.t_indices):
            assert float(tables.ts[it]) == eq.t[i]
            assert float(tables.attacker[i][it, ih]) == eq.attacker_utilities[i]
        pooled = float(tables.adv_error[0][eq.t_indices[0], ih])
        d = defender_utility(float(tables.normal_error[ih]), pooled,
                             config.cost_c)
        assert d == eq.defender_utility


def test_leader_attackers_best_respond():
    config = small_config(sample_size=400)
    eq, tables = solve_game(config, "leader")
    col = tables.attacker[0][:, eq.alpha_index]
    assert eq.attacker_utilities[0] == col.max()


def test_follower_profile_maximizes_attacker_sum():
    config = small_config(sample_size=300)
    eq, tables = solve_game(config, "follower")
    # re-enumerate by hand over the same stride-1 lattice
    best = -np.inf
    for it in range(len(tables.ts)):
        err = tables.adv_error[0][it]
        d_row = -100.0 * (tables.normal_error + config.cost_c * err)
        ih = int(d_row.argmax())
        best = max(best, float(tables.attacker[0][it, ih]))
    assert math.isclose(eq.attacker_utilities[0], best, rel_tol=0, abs_tol=0)


def brute_force_follower(tables):
    """The follower equilibrium by plain enumeration of the joint t
    lattice under the full tie key, and the set of attacker-sum scores."""
    config = tables.config
    stride = round(config.joint_t_step / config.t_step)
    t_indices = list(range(0, len(tables.ts), stride))
    assert tables.ts[t_indices[-1]] == 1.0
    sizes = [float(spec.sample_size) for spec in config.adversaries]
    best, scores = None, set()
    for combo in product(t_indices, repeat=len(sizes)):
        weighted = [w * tab[j] for w, tab, j
                    in zip(sizes, tables.adv_error, combo)]
        pooled = weighted[0]
        for row in weighted[1:]:
            pooled = pooled + row
        pooled = pooled / sum(sizes)
        d_row = -100.0 * (tables.normal_error + config.cost_c * pooled)
        ih = max(range(len(d_row)), key=lambda h: (d_row[h], -h))
        score = math.fsum(tab[j, ih] for tab, j in zip(tables.attacker, combo))
        scores.add(score)
        key = (score, -math.fsum(tables.ts[j] for j in combo), -ih,
               tuple(-j for j in combo))
        if best is None or key > best[0]:
            best = (key, combo, ih, d_row[ih])
    _, combo, ih, d_val = best
    return Equilibrium(
        orientation="follower", wall_kind=config.wall_kind,
        alpha=float(tables.alphas[ih]), radius=float(tables.radii[ih]),
        t=tuple(float(tables.ts[j]) for j in combo),
        defender_utility=float(d_val),
        attacker_utilities=tuple(float(tab[j, ih]) for tab, j
                                 in zip(tables.attacker, combo)),
        alpha_index=ih, t_indices=combo), scores


@pytest.mark.parametrize("frozen", [False, True], ids=["ordinary", "frozen"])
def test_three_adversary_follower_matches_brute_force(frozen):
    # 50 normal draws leave ties between adjacent radii in the defender's
    # rows, so the first-argmax rule shapes the result as well
    config = game_preset("three_adv_log", wall_kind="manhattan",
                         sample_size=50)
    if frozen:
        # k_max = 1 caps every exp payoff at 1 - exp(a cost) <= 0
        config = dataclasses.replace(
            config, utilities=[UtilitySpec("exp", a=1.0, k_max=1.0)] * 3)
    tables = build_tables(config)
    expected, scores = brute_force_follower(tables)
    assert (scores == {0.0}) == frozen
    assert solve_follower(tables) == expected


def test_follower_breaks_float_ties_by_exact_sums():
    # with every pass rate zero the defender answers every profile with
    # the same alpha; the planted payoffs make the float sums of (0, 0, 0)
    # and (0, 5, 5) both 1.0, while (0, 5, 5) sums exactly to 1 + 2^-52
    tables = build_tables(game_preset("three_adv_log", sample_size=50))
    attacker = [np.zeros_like(tab) for tab in tables.attacker]
    attacker[0][[0, 5]] = 1.0
    attacker[1][5] = attacker[2][5] = 2.0 ** -53
    tables = dataclasses.replace(
        tables, attacker=attacker,
        adv_error=[np.zeros_like(tab) for tab in tables.adv_error])
    ih = int(tables.normal_error.argmin())
    pays = np.array([[tab[j, ih] for tab, j in zip(attacker, combo)]
                     for combo in ((0, 0, 0), (0, 5, 5))])
    assert pays.sum(axis=1).tolist() == [1.0, 1.0]
    assert math.fsum(pays[1]) == 1.0 + 2.0 ** -52
    expected, _ = brute_force_follower(tables)
    assert expected.t_indices == (0, 5, 5)
    assert solve_follower(tables) == expected


def test_follower_keeps_rows_whose_float_sum_ranks_lower():
    # the defender answers with alpha index 1 when adversary 2 plays t
    # index 10 and with 0 otherwise; in one chunk, (0, 5, 5) has the
    # larger float sum and (0, 5, 10) the larger fsum
    tables = build_tables(game_preset("three_adv_log", sample_size=50))
    adv_error = [np.zeros_like(tab) for tab in tables.adv_error]
    adv_error[2][10, 0] = 1.0
    ulp = 2.0 ** -52
    attacker = [np.zeros_like(tab) for tab in tables.attacker]
    attacker[0][0, :2] = 1.0
    attacker[1][5, :2] = 0.625 * ulp, 0.125 * ulp
    attacker[2][5, 0] = 0.5 * ulp
    attacker[2][10, 1] = 1.375 * ulp
    tables = dataclasses.replace(
        tables, attacker=attacker, adv_error=adv_error,
        normal_error=np.zeros_like(tables.normal_error))
    pays = np.array([[1.0, 0.625 * ulp, 0.5 * ulp],
                     [1.0, 0.125 * ulp, 1.375 * ulp]])
    assert pays.sum(axis=1).tolist() == [1.0 + 2 * ulp, 1.0 + ulp]
    assert [math.fsum(row) for row in pays] == [1.0 + ulp, 1.0 + 2 * ulp]
    expected, _ = brute_force_follower(tables)
    assert (expected.t_indices, expected.alpha_index) == ((0, 5, 10), 1)
    assert solve_follower(tables) == expected


def test_follower_memory_stays_below_one_profile_table():
    # 21^3 = 9261 joint profiles x 99 radii: one float64 array over the
    # whole lattice would take 7.3 MB
    tables = build_tables(game_preset("three_adv_log", sample_size=50))
    n_profiles = 21 ** len(tables.attacker)
    full = n_profiles * len(tables.alphas) * 8
    tracemalloc.start()
    try:
        solve_follower(tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full / 2, (peak, full)


def test_grid_budget_guard():
    config = game_preset("three_adv_log", sample_size=50)
    config.joint_budget = 10
    with pytest.raises(GridBudgetError, match="grid budget"):
        solve_follower(build_tables(config))


def test_joint_step_must_align():
    # 0.02 and 0.05 are both valid grid steps but 0.05 / 0.02 = 2.5
    config = game_preset("three_adv_log", sample_size=50)
    config.t_step = 0.02
    with pytest.raises(ValidationError, match="multiple"):
        solve_follower(build_tables(config))


def test_config_validation():
    normal = PopulationSpec(mean=(0.0,), cov=((1.0,),), sample_size=10)
    adv = PopulationSpec(mean=(5.0,), cov=((1.0,),), sample_size=10)
    util = UtilitySpec("log", a=1.0)
    with pytest.raises(ValidationError):
        GameConfig(normal=normal, adversaries=[], utilities=[], cost_c=1.0)
    with pytest.raises(ValidationError):
        GameConfig(normal=normal, adversaries=[adv], utilities=[util, util],
                   cost_c=1.0)
    with pytest.raises(ValidationError):
        GameConfig(normal=normal, adversaries=[adv], utilities=[util],
                   cost_c=-1.0)
    with pytest.raises(ValidationError):
        GameConfig(normal=normal, adversaries=[adv], utilities=[util],
                   cost_c=1.0, alpha_step=0.03)
    for step in (0.0, -0.5, 2.0):
        with pytest.raises(ValidationError, match="grid step"):
            GameConfig(normal=normal, adversaries=[adv], utilities=[util],
                       cost_c=1.0, t_step=step)
    for size in (1, 0, -5):
        with pytest.raises(ValidationError, match="eta_sample_size"):
            GameConfig(normal=normal, adversaries=[adv], utilities=[util],
                       cost_c=1.0, eta_sample_size=size)
    for value in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="cost_c"):
            GameConfig(normal=normal, adversaries=[adv], utilities=[util],
                       cost_c=value)
        with pytest.raises(ValidationError, match="finite"):
            UtilitySpec("log", a=value)
        with pytest.raises(ValidationError, match="finite"):
            UtilitySpec("linear", a=1.0, k_max=value)
    with pytest.raises(ValidationError, match="seed"):
        GameConfig(normal=normal, adversaries=[adv], utilities=[util],
                   cost_c=1.0, seed=-1)
    with pytest.raises(ValidationError):
        PopulationSpec(mean=(0.0,), cov=((1.0,),), sample_size=1)
    with pytest.raises(ValidationError):
        solve_game(small_config(sample_size=50), "middle")


def test_config_checks_its_lattice():
    config = game_preset("three_adv_log", sample_size=50)
    with pytest.raises(ValidationError, match="multiple of t_step"):
        dataclasses.replace(config, t_step=0.05, joint_t_step=0.02)
    for budget in (0, -1):
        with pytest.raises(ValidationError, match="joint_budget"):
            dataclasses.replace(config, joint_budget=budget)
    # one adversary never walks the joint lattice
    single = game_preset("one_adv_log", sample_size=50)
    dataclasses.replace(single, t_step=0.05, joint_t_step=0.02)


def test_config_checks_its_populations():
    normal = PopulationSpec(mean=(0.0, 0.0), cov=((1.0, 0.0), (0.0, 2.0)),
                            sample_size=10)
    util = UtilitySpec("log", a=1.0)
    eye3 = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    cases = [
        # another dimension than the normal population
        ((1.0, 2.0, 3.0), eye3, "dimension"),
        # a cov whose shape does not match the mean
        ((1.0, 2.0), ((1.0,),), "q x q"),
        ((1.0, 2.0), eye3, "q x q"),
        # indefinite
        ((1.0, 2.0), ((1.0, 2.0), (2.0, 1.0)), "positive definite"),
        # not finite
        ((math.nan, 2.0), ((1.0, 0.0), (0.0, 1.0)), "finite vector"),
        ((1.0, 2.0), ((1.0, 0.0), (0.0, math.inf)), "finite q x q"),
        (((1.0, 2.0),), ((1.0, 0.0), (0.0, 1.0)), "finite vector"),
        (("one", 2.0), ((1.0, 0.0), (0.0, 1.0)), "numeric"),
    ]
    for mean, cov, match in cases:
        bad = PopulationSpec(mean=mean, cov=cov, sample_size=10)
        with pytest.raises(ValidationError, match=match):
            GameConfig(normal=normal, adversaries=[bad], utilities=[util],
                       cost_c=1.0)
        if match != "dimension":
            with pytest.raises(ValidationError, match=match):
                GameConfig(normal=bad, adversaries=[normal],
                           utilities=[util], cost_c=1.0)


def test_solver_reuses_supplied_tables():
    config = small_config(sample_size=300)
    tables = build_tables(config)
    eq1, t_out = solve_game(config, "leader", tables=tables)
    assert t_out is tables
    eq2 = solve_leader(tables)
    assert eq1 == eq2


@pytest.mark.parametrize("name", ["one_adv_log", "three_adv_log"])
def test_manhattan_radii_are_eta_of_alpha(name):
    config = game_preset(name, wall_kind="manhattan", sample_size=500)
    tables = build_tables(config)
    for alpha, radius in zip(tables.alphas, tables.radii):
        eta = eta_of_alpha(tables.stats, float(alpha), config.eta_sample_size,
                           seed=[config.seed, 99])
        assert eta == radius, alpha
