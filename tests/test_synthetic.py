"""Mixture generation and the bundled simulation and game presets."""
from __future__ import annotations

import numpy as np
import pytest

from adclust.dataset import (LABEL_ABNORMAL, LABEL_NONE, LABEL_NORMAL,
                             TRUTH_UNKNOWN)
from adclust.errors import ValidationError
from adclust.synthetic import (Component, MixtureSpec, game_names,
                               game_preset, generate, simulation_names,
                               simulation_preset)

COV = ((0.4, 0.0), (0.0, 0.4))


def two_class_spec(**kw):
    comps = [Component((0.0, -1.0), COV, 300, "normal"),
             Component((1.0, -1.0), COV, 300, "abnormal")]
    return MixtureSpec(components=comps, **kw)


def test_generation_is_seed_deterministic():
    ds1, truth1 = generate(two_class_spec(seed=7))
    ds2, truth2 = generate(two_class_spec(seed=7))
    np.testing.assert_array_equal(ds1.points, ds2.points)
    np.testing.assert_array_equal(ds1.labels, ds2.labels)
    np.testing.assert_array_equal(truth1, truth2)
    ds3, _ = generate(two_class_spec(seed=8))
    assert not np.array_equal(ds1.points, ds3.points)


def test_uniform_two_percent_labels_twelve_of_six_hundred():
    ds, truth = generate(two_class_spec(label_fraction=0.02, seed=0))
    assert ds.n == 600
    assert truth.shape == (600,)
    assert int((ds.labels != LABEL_NONE).sum()) == 12
    assert int((ds.labels == LABEL_NORMAL).sum()) == 6
    assert int((ds.labels == LABEL_ABNORMAL).sum()) == 6


def test_per_class_fractions_balance_label_counts():
    spec = two_class_spec(label_fraction={"normal": 0.02, "abnormal": 0.04},
                          seed=0)
    ds, _ = generate(spec)
    assert int((ds.labels == LABEL_NORMAL).sum()) == 6
    assert int((ds.labels == LABEL_ABNORMAL).sum()) == 12


def test_labels_sit_on_their_own_class():
    ds, truth = generate(two_class_spec(label_fraction=0.05, seed=3))
    labeled = ds.labels != LABEL_NONE
    np.testing.assert_array_equal(ds.labels[labeled], truth[labeled])


def test_unknown_component_is_never_labeled():
    comps = [Component((0.0, 0.0), COV, 50, "normal"),
             Component((5.0, 5.0), COV, 50, "abnormal"),
             Component((9.0, 9.0), COV, 50, "unknown")]
    ds, truth = generate(MixtureSpec(components=comps, label_fraction=1.0,
                                     seed=1))
    unknown = truth == TRUTH_UNKNOWN
    assert unknown.sum() == 50
    assert (ds.labels[unknown] == LABEL_NONE).all()
    assert (ds.labels[~unknown] != LABEL_NONE).all()


def test_zero_fraction_means_no_labels():
    ds, _ = generate(two_class_spec(label_fraction=0.0, seed=2))
    assert (ds.labels == LABEL_NONE).all()


def test_tiny_positive_fraction_keeps_one_label_per_class():
    ds, _ = generate(two_class_spec(label_fraction=1e-6, seed=4))
    assert int((ds.labels == LABEL_NORMAL).sum()) == 1
    assert int((ds.labels == LABEL_ABNORMAL).sum()) == 1


def test_component_moments():
    comps = [Component((2.0, -3.0), ((1.0, 0.5), (0.5, 2.0)), 100_000,
                       "normal")]
    ds, _ = generate(MixtureSpec(components=comps, label_fraction=0.0,
                                 seed=5))
    np.testing.assert_allclose(ds.points.mean(axis=0), [2.0, -3.0], atol=0.02)
    np.testing.assert_allclose(np.cov(ds.points.T),
                               [[1.0, 0.5], [0.5, 2.0]], atol=0.03)


def test_spec_validation():
    with pytest.raises(ValidationError):
        MixtureSpec(components=[])
    with pytest.raises(ValidationError, match="seed"):
        two_class_spec(seed=-1)
    with pytest.raises(ValidationError):
        two_class_spec(label_fraction=1.5)
    with pytest.raises(ValidationError):
        two_class_spec(label_fraction={"normal": 0.1, "weird": 0.1})
    with pytest.raises(ValidationError):
        Component((0.0,), ((1.0,),), 0, "normal")
    with pytest.raises(ValidationError):
        Component((0.0,), ((1.0,),), 5, "strange")


def test_non_spd_covariance_raises():
    comps = [Component((0.0, 0.0), ((1.0, 2.0), (2.0, 1.0)), 10, "normal")]
    with pytest.raises(np.linalg.LinAlgError):
        generate(MixtureSpec(components=comps, label_fraction=0.0))


def test_simulation_names_and_unknown_preset():
    assert simulation_names() == ("sim1", "sim2", "sim3")
    with pytest.raises(ValidationError):
        simulation_preset("sim9")


def test_simulation_presets_shape_and_labels():
    ds, truth, params = simulation_preset("sim1", seed=0)
    assert ds.n == 600
    # balanced label counts: 2% of normals, 4% of abnormals
    assert int((ds.labels == LABEL_NORMAL).sum()) == 6
    assert int((ds.labels == LABEL_ABNORMAL).sum()) == 12
    assert params.k == 10.0
    assert params.alpha == 0.6
    assert params.coef_rt == 0.9
    assert params.bandwidth == 0.45
    assert params.min_wall_size == 20

    ds2, truth2, _ = simulation_preset("sim2", seed=0)
    assert ds2.n == 900
    assert not (truth2 == TRUTH_UNKNOWN).any()

    ds3, truth3, params3 = simulation_preset("sim3", seed=0)
    assert ds3.n == 1000
    assert int((truth3 == TRUTH_UNKNOWN).sum()) == 100
    assert params3.coef_rt == 1.6


def test_simulation_preset_passes_through_knobs():
    _, _, params = simulation_preset("sim2", seed=9, k=50.0, alpha=0.9,
                                     wall_kind="manhattan")
    assert params.k == 50.0
    assert params.alpha == 0.9
    assert params.wall_kind == "manhattan"
    assert params.seed == 9


def test_game_names_and_unknown_preset():
    assert game_names() == ("one_adv_log", "one_adv_linear", "one_adv_exp",
                            "three_adv_log", "three_adv_linear",
                            "three_adv_exp")
    with pytest.raises(ValidationError):
        game_preset("two_adv_log")
    with pytest.raises(ValidationError):
        game_preset("one_adv_cubic")


def test_one_adversary_preset_parameters():
    config = game_preset("one_adv_log", sample_size=500)
    assert config.cost_c == 20.0
    assert config.normal.mean == (0.0, 0.0)
    assert config.normal.cov == ((1.0, 0.0), (0.0, 2.0))
    assert config.normal.sample_size == 500
    assert len(config.adversaries) == 1
    adv = config.adversaries[0]
    assert adv.mean == (6.0, 6.0)
    assert adv.cov == ((1.0, 1.0), (1.0, 2.0))
    util = config.utilities[0]
    assert (util.family, util.a, util.k_max) == ("log", 4.0, 7.0)
    assert game_preset("one_adv_linear").utilities[0].a == 1.5
    assert game_preset("one_adv_exp").utilities[0].a == 0.75


def test_three_adversary_preset_parameters():
    config = game_preset("three_adv_linear")
    assert config.cost_c == 10.0
    assert [a.mean for a in config.adversaries] == \
        [(6.0, 6.0), (-7.0, -7.0), (-6.0, 6.0)]
    assert config.adversaries[1].cov == ((1.0, -0.5), (-0.5, 1.0))
    assert tuple(u.a for u in config.utilities) == (0.5, 0.25, 0.5)
    assert all(u.k_max == 7.0 for u in config.utilities)
    assert tuple(u.a for u in game_preset("three_adv_log").utilities) == \
        (1.75, 1.25, 1.25)
    assert tuple(u.a for u in game_preset("three_adv_exp").utilities) == \
        (4.5, 4.0, 4.5)


def test_game_preset_wall_kind_and_seed_passthrough():
    config = game_preset("one_adv_log", wall_kind="manhattan", seed=3)
    assert config.wall_kind == "manhattan"
    assert config.seed == 3
    # population draws are seeded off the game seed
    assert config.normal.seed == [3, 0]
    assert config.adversaries[0].seed == [3, 1]
