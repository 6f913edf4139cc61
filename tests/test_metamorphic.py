"""Power-of-two scaling: multiplying every coordinate and the bandwidth
by 2^e is exact in floating point, and every documented step is
homogeneous, so the results on the scaled points, unscaled, are bitwise
the results on the points."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from adclust.core import adclust
from adclust.synthetic import simulation_preset

EXPONENTS = [-300, -40, 1, 300]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def run(name, wall_kind, e):
    dataset, _, params = simulation_preset(name, seed=3, wall_kind=wall_kind)
    dataset = replace(dataset, points=np.ldexp(dataset.points, e))
    params = replace(params, bandwidth=float(np.ldexp(params.bandwidth, e)))
    return adclust(dataset, params)


def assert_equal_unscaled(base, scaled, e):
    """Lengths of scaled, times 2^-e, and everything else as is, equal
    base's bitwise."""
    def unscaled(x, power=1):
        return np.ldexp(np.asarray(x, dtype=np.float64), -power * e)

    assert same_bits(unscaled(scaled.thresholds.rt), base.thresholds.rt)
    assert same_bits(unscaled(scaled.bandwidth), base.bandwidth)
    assert same_bits(unscaled(scaled.profile.avg_dist_point),
                     base.profile.avg_dist_point)
    assert same_bits(scaled.thresholds.dt, base.thresholds.dt)
    assert np.array_equal(scaled.profile.density_point,
                          base.profile.density_point)
    got, want = scaled.composition, base.composition
    for field in ("region", "cluster_of_point", "sub_cluster_of",
                  "conflicted"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    assert [c.tolist() for c in got.clusters] == \
        [c.tolist() for c in want.clusters]
    assert [(s.members.tolist(), s.class_tag, s.pass_origin)
            for s in got.sub_clusters] == \
        [(s.members.tolist(), s.class_tag, s.pass_origin)
         for s in want.sub_clusters]
    assert got.sub_to_cluster == want.sub_to_cluster
    assert scaled.wall_sub_ids == base.wall_sub_ids
    assert scaled.uninformative_scores == base.uninformative_scores
    assert np.array_equal(scaled.inside_walls, base.inside_walls)
    assert np.array_equal(scaled.protected, base.protected)
    assert len(scaled.walls) == len(base.walls) > 0
    for wall, ref in zip(scaled.walls, base.walls):
        assert (wall.kind, wall.level) == (ref.kind, ref.level)
        assert same_bits(wall.radius, ref.radius)
        assert wall.stats.ridged == ref.stats.ridged
        assert same_bits(unscaled(wall.stats.mean), ref.stats.mean)
        assert same_bits(unscaled(wall.stats.stddevs), ref.stats.stddevs)
        assert same_bits(unscaled(wall.stats.covariance, 2),
                         ref.stats.covariance)


@pytest.mark.parametrize("wall_kind", ["euclidean", "manhattan"])
@pytest.mark.parametrize("name", ["sim1", "sim2", "sim3"])
def test_results_commute_with_power_of_two_scaling(name, wall_kind):
    base = run(name, wall_kind, 0)
    for e in EXPONENTS:
        assert_equal_unscaled(base, run(name, wall_kind, e), e)
