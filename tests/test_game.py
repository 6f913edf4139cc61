"""Contraction game: payoffs, attack moves, tables, and both solvers."""
from __future__ import annotations

import math

import numpy as np
import pytest

from adclust.errors import GridBudgetError, ValidationError
from adclust.game import (Equilibrium, GameConfig, PopulationSpec,
                          UtilitySpec, apply_attack, attacker_utility,
                          build_tables, defender_utility, movement_cost,
                          sample_population, solve_follower, solve_game,
                          solve_leader)
from adclust.synthetic import game_preset
from adclust.walls import Wall


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
    sample = sample_population(spec)
    mu_g = np.array([0.0, 0.0])
    t = 0.3
    moved = apply_attack(sample, mu_g, t)
    np.testing.assert_allclose(moved.mean(axis=0), (1 - t) * np.array([6.0, 6.0]),
                               atol=0.02)
    np.testing.assert_allclose(np.cov(moved.T),
                               (1 - t) ** 2 * np.array([[1.0, 1.0], [1.0, 2.0]]),
                               atol=0.03)


def test_movement_cost_is_row_euclidean():
    a = np.array([[0.0, 0.0], [1.0, 1.0]])
    b = np.array([[3.0, 4.0], [1.0, 1.0]])
    np.testing.assert_allclose(movement_cost(a, b), [5.0, 0.0])


def test_attacker_utility_direct_matches_tables_bitwise():
    config = small_config(sample_size=300)
    tables = build_tables(config)
    sample = sample_population(config.adversaries[0])
    rng = np.random.default_rng(6)
    for _ in range(25):
        it = int(rng.integers(len(tables.ts)))
        ih = int(rng.integers(len(tables.alphas)))
        direct = attacker_utility(config.utilities[0], sample, tables.mu_g,
                                  float(tables.ts[it]),
                                  wall_at(config, tables, ih))
        assert direct == tables.attacker[0][it, ih]


@pytest.mark.parametrize("wall_kind", ["euclidean", "manhattan"])
def test_every_table_cell_matches_direct_evaluation_bitwise(wall_kind):
    # 19 radii: one full alpha chunk and a partial one
    config = small_config(sample_size=1000, wall_kind=wall_kind,
                          alpha_step=0.05, t_step=0.05)
    tables = build_tables(config)
    sample = sample_population(config.adversaries[0])
    for ih in range(len(tables.alphas)):
        wall = wall_at(config, tables, ih)
        for it, t in enumerate(tables.ts.tolist()):
            s = wall.score(apply_attack(sample, tables.mu_g, t))
            direct = attacker_utility(config.utilities[0], sample,
                                      tables.mu_g, t, wall)
            assert direct == tables.attacker[0][it, ih]
            assert (s <= wall.radius).mean() == tables.adv_error[0][it, ih]


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
    with pytest.raises(ValidationError):
        PopulationSpec(mean=(0.0,), cov=((1.0,),), sample_size=1)
    with pytest.raises(ValidationError):
        solve_game(small_config(sample_size=50), "middle")


def test_solver_reuses_supplied_tables():
    config = small_config(sample_size=300)
    tables = build_tables(config)
    eq1, t_out = solve_game(config, "leader", tables=tables)
    assert t_out is tables
    eq2 = solve_leader(tables)
    assert eq1 == eq2
