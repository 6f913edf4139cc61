"""Grid sectioning and threshold computation, and the edge cases of
exact.py's certified sums (test_exact_*, test_segment_sums_*)."""
from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import oracle_distance, oracle_grid_cells, oracle_thresholds

from adclust import exact
from adclust import grid as grid_module
from adclust.errors import DegenerateGeometryError, ValidationError
from adclust.exact import prefix_sums, row_sums, segment_sums
from adclust.grid import (_SPLIT_ELEMENTS, Grid, _near_cells, build_grid,
                          compute_density, compute_dt, compute_rt, rt_graph)
from adclust.synthetic import Component, MixtureSpec, generate
from adclust.walls import sample_gaussian

G = _SPLIT_ELEMENTS
W = 64  # width of the hand-built test rows


def lattice_q3():
    """0.1-lattice on [0, 0.7]^3: 512 points with many exactly equal
    distances."""
    axis = np.arange(8) / 10.0
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                    axis=-1).reshape(-1, 3)


def duplicate_heavy():
    """200 Gaussian rows and 300 copies of one point among them."""
    rng = np.random.default_rng(12)
    return np.vstack([rng.normal(size=(200, 2)), np.full((300, 2), 0.25)])


def neighborhoods(grid):
    """Per cell, the point ids of its occupied neighbor cells, in cell
    order."""
    members = list(grid.cells.values())
    near, bounds = _near_cells(grid)
    return [np.concatenate([members[c] for c in near[a:b]])
            for a, b in zip(bounds, bounds[1:])]


def assert_cell_means(grid, d_c, n_c, o_dc, o_nc):
    """d(c) and n(c) equal the oracle's per-key values in grid.cells
    order, d(c) NaN exactly where the oracle has none."""
    keys = list(grid.cells)
    assert set(o_dc) <= set(keys) and sorted(o_nc) == keys
    assert_bitwise(d_c, np.array([o_dc.get(k, np.nan) for k in keys]))
    assert_bitwise(n_c, np.array([o_nc[k] for k in keys]))


def test_rt_two_points_1d():
    pts = np.array([[0.0], [1.0]])
    grid = build_grid(pts)
    rt, a_p, d_c = compute_rt(grid, pts, coef_rt=20.0)
    # a(p) = 1 for both, d(c) = 1 per cell, rt = 1 / (1 * 20)
    assert rt == 0.05
    assert a_p.tolist() == [1.0, 1.0]


def test_rt_two_points_2d():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    grid = build_grid(pts)
    rt, a_p, _ = compute_rt(grid, pts, coef_rt=20.0)
    assert rt == 5.0 / (2 * 20.0)
    assert a_p.tolist() == [5.0, 5.0]


def test_dt_hand_chain():
    pts = np.array([[0.0], [0.5], [1.0]])
    grid = build_grid(pts)
    rt, _, _ = compute_rt(grid, pts, coef_rt=20.0)
    n_p = compute_density(grid, pts, rt)
    # rt = 0.025 isolates every point, so n(p) = 1 everywhere
    assert n_p.tolist() == [1, 1, 1]
    dt, n_c = compute_dt(grid, n_p, coef_dt=0.95)
    assert dt == pytest.approx(0.95 / math.log(3), rel=1e-15)
    assert n_c.tolist() == [1.0, 1.0, 1.0]


def test_dt_log_base_variant():
    pts = np.array([[0.0], [0.5], [1.0]])
    grid = build_grid(pts)
    n_p = np.array([1, 1, 1])
    dt_e, _ = compute_dt(grid, n_p, coef_dt=1.0)
    dt_10, _ = compute_dt(grid, n_p, coef_dt=1.0, log_base=10.0)
    assert dt_10 == pytest.approx(dt_e * math.log(10), rel=1e-12)


def test_oracle_equivalence_seeded():
    rng = np.random.default_rng(7)
    for trial in range(34):
        if trial < 30:
            n = int(rng.integers(5, 120))
            q = int(rng.integers(1, 4))
            pts = rng.normal(size=(n, q)) * rng.uniform(0.5, 3.0)
        else:
            # q >= 8, where numpy's row sums are pairwise, not in
            # dimension order; tight blobs keep neighborhoods occupied
            n = 60
            q = 8 + trial % 2
            centers = rng.normal(size=(3, q)) * 5.0
            pts = centers[rng.integers(0, 3, size=n)] + \
                rng.normal(size=(n, q)) * rng.uniform(0.05, 0.3)
        coef_rt = float(rng.choice([0.5, 1.0, 5.0, 20.0]))
        coef_dt = float(rng.choice([0.5, 0.95, 2.0]))
        grid = build_grid(pts)
        rt, a_p, d_c = compute_rt(grid, pts, coef_rt)
        n_p = compute_density(grid, pts, rt)
        dt, n_c = compute_dt(grid, n_p, coef_dt)
        o_rt, o_ap, o_dc, o_np, o_dt, o_nc = oracle_thresholds(
            pts, coef_rt, coef_dt)
        assert rt == o_rt
        assert dt == o_dt
        np.testing.assert_array_equal(n_p, o_np)
        both_nan = np.isnan(a_p) & np.isnan(o_ap)
        assert np.array_equal(a_p[~both_nan], o_ap[~both_nan])
        assert_cell_means(grid, d_c, n_c, o_dc, o_nc)


def assert_permutation_invariant(pts, rng):
    grid = build_grid(pts)
    rt, a_p, _ = compute_rt(grid, pts, coef_rt=1.0)
    n_p = compute_density(grid, pts, rt)
    dt, _ = compute_dt(grid, n_p)
    perm = rng.permutation(len(pts))
    shuffled = pts[perm]
    grid2 = build_grid(shuffled)
    rt2, a_p2, _ = compute_rt(grid2, shuffled, coef_rt=1.0)
    n_p2 = compute_density(grid2, shuffled, rt2)
    dt2, _ = compute_dt(grid2, n_p2)
    assert rt2 == rt
    assert dt2 == dt
    np.testing.assert_array_equal(n_p2, n_p[perm])
    assert a_p2.tobytes() == a_p[perm].tobytes()


def test_permutation_invariance():
    rng = np.random.default_rng(11)
    assert_permutation_invariant(rng.normal(size=(60, 2)), rng)


def test_permutation_invariance_with_duplicates():
    assert_permutation_invariant(duplicate_heavy(),
                                 np.random.default_rng(11))


def blobs(n, q, spread, seed):
    """n points around three normal centers in q dimensions, each
    coordinate spread by spread (a scalar or one value per point)."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(3, q)) * 3.0
    return centers[rng.integers(0, 3, size=n)] + \
        rng.normal(size=(n, q)) * spread


def test_permutation_invariance_at_q8():
    # every cell holds a point or two: all of them take the flat pass
    assert_permutation_invariant(blobs(300, 8, 0.3, 1),
                                 np.random.default_rng(11))


def test_scale_invariance_of_rt_ratio():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(40, 2))
    grid = build_grid(pts)
    rt, _, _ = compute_rt(grid, pts, coef_rt=2.0)
    scaled = pts * 10.0
    grid2 = build_grid(scaled)
    rt2, _, _ = compute_rt(grid2, scaled, coef_rt=2.0)
    assert rt2 == pytest.approx(10.0 * rt, rel=1e-12)


def test_occupied_neighborhoods_match_brute_force():
    rng = np.random.default_rng(4)
    for trial in range(40):
        q = 1 + trial % 5
        n = int(rng.integers(1, 80))
        pts = rng.uniform(size=(n, q)) * rng.uniform(0.5, 5.0, size=q)
        if trial % 4 == 3:
            pts[:, rng.integers(0, q)] = 2.5  # degenerate dimension
        grid = build_grid(pts, float(rng.choice([0.075, 0.25, 0.5])))
        keys = list(grid.cells)
        hoods = neighborhoods(grid)
        assert len(hoods) == len(keys)
        for key, ids in zip(keys, hoods):
            near = [k for k in keys
                    if max(abs(a - b) for a, b in zip(key, k)) <= 1]
            expected = np.concatenate([grid.cells[k] for k in near])
            np.testing.assert_array_equal(ids, expected)
            cells = {tuple(c) for c in grid.cell_of_point[ids].tolist()}
            assert cells <= set(grid.cells)


def brute_force_near(keys):
    """(near, bounds) of _near_cells, from every pair of keys."""
    hoods = [np.flatnonzero((np.abs(keys - key) <= 1).all(axis=1))
             for key in keys]
    sizes = [h.size for h in hoods]
    return np.concatenate(hoods), np.r_[0, np.cumsum(sizes)]


def assert_near_cells_brute_force(grid):
    near, bounds = _near_cells(grid)
    o_near, o_bounds = brute_force_near(grid.keys)
    np.testing.assert_array_equal(near, o_near)
    np.testing.assert_array_equal(bounds, o_bounds)
    assert near.dtype == bounds.dtype == np.int64


@pytest.mark.parametrize("q", [8, 12])
def test_near_cells_match_brute_force_at_high_q(q):
    # half the points spread 0.05, half 0.3; at target_fraction 0.01
    # the keys run to 99
    rng = np.random.default_rng(q)
    pts = blobs(400, q, rng.choice([0.05, 0.3], size=(400, 1)), q)
    for target_fraction in (0.01, 0.02, 0.075):
        grid = build_grid(pts, target_fraction)
        assert_near_cells_brute_force(grid)
        assert _near_cells(grid)[0].size > len(grid.keys)  # not only self
    assert grid.sections == 13 and build_grid(pts, 0.01).keys.max() == 99


def grid_of_keys(keys):
    """A grid with one point in each of the given distinct cells."""
    keys = np.unique(np.asarray(keys, dtype=np.int64), axis=0)
    n, q = keys.shape
    return Grid(sections=int(keys.max()) + 1, widths=np.ones(q),
                cell_of_point=keys, keys=keys, order=np.arange(n),
                starts=np.arange(n + 1))


@pytest.mark.parametrize("q", [5, 8, 12])
def test_near_cells_at_the_edge_of_the_euclidean_search(q):
    # base + 1 is 1 away in every coordinate, squared Euclidean distance
    # exactly q: a neighbor at the edge of the search radius. base + 2 e0
    # is at squared distance 4 <= q, inside the search, but 2 away in
    # one coordinate: not a neighbor.
    base = np.full(q, 5)
    two = 2 * np.eye(q, dtype=np.int64)[0]
    grid = grid_of_keys([base, base + 1, base - 1, base + two, base - two,
                         base + two + 1, base + 3])
    assert_near_cells_brute_force(grid)
    near, bounds = _near_cells(grid)
    keys = grid.keys.tolist()
    at = keys.index(base.tolist())
    hood = [keys[c] for c in near[bounds[at]:bounds[at + 1]]]
    assert (base + 1).tolist() in hood and (base - 1).tolist() in hood
    assert (base + two).tolist() not in hood
    assert (base - two).tolist() not in hood


def test_rt_over_row_chunks_matches_oracle():
    # one cell of 400 points in 3-d is split into several distance blocks
    pts = np.random.default_rng(9).normal(size=(400, 3))
    grid = build_grid(pts, target_fraction=1.0)
    rt, a_p, d_c = compute_rt(grid, pts, coef_rt=1.0)
    o_rt, o_ap, o_dc, *_ = oracle_thresholds(pts, 1.0, 0.95,
                                             target_fraction=1.0)
    assert rt == o_rt
    np.testing.assert_array_equal(a_p, o_ap)
    assert_bitwise(d_c, np.array(list(o_dc.values())))


@pytest.mark.parametrize("q", [12, 20])
def test_high_q_isolated_points_fail_fast(q):
    # m = 13 sections per dimension: 300 uniform points share no cell
    # neighborhood, which has up to 3^q cells
    pts = np.random.default_rng(q).uniform(size=(300, q))
    grid = build_grid(pts)
    hoods = neighborhoods(grid)
    assert len(hoods) == 300
    assert all(ids.size == 1 for ids in hoods)
    with pytest.raises(DegenerateGeometryError, match="degenerate"):
        compute_rt(grid, pts)


def test_closed_upper_edge():
    pts = np.array([[0.0], [0.25], [0.5], [0.75], [1.0]])
    grid = build_grid(pts, target_fraction=0.25)
    assert grid.sections == 4
    # the maximum lands in the last section, not one past it
    assert grid.cell_of_point[-1, 0] == 3
    assert grid.cell_of_point[0, 0] == 0


def test_degenerate_dimension_collapses():
    pts = np.array([[0.0, 7.0], [1.0, 7.0], [2.0, 7.0]])
    grid = build_grid(pts)
    assert grid.cell_of_point[:, 1].tolist() == [0, 0, 0]
    assert grid.cell_of_point[:, 0].tolist() == [0, 1, 2]
    assert sorted(grid.cells) == [(0, 0), (1, 0), (2, 0)]


@pytest.mark.parametrize("q, degenerate", [
    (1, False), (2, False), (2, True), (3, True), (5, True), (8, False),
    (12, True)])
def test_cells_iterate_in_sorted_key_order(q, degenerate):
    rng = np.random.default_rng(q)
    pts = rng.normal(size=(120, q)) * 2.0
    pts = np.vstack([pts, np.repeat(pts[:5], 8, axis=0)])  # duplicates
    if degenerate:
        pts[:, q // 2] = 1.5
    pts = pts[rng.permutation(len(pts))]
    grid = build_grid(pts, target_fraction=0.25)
    keys, _ = oracle_grid_cells(pts, target_fraction=0.25)
    assert list(map(tuple, grid.cell_of_point.tolist())) == keys
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    assert list(grid.cells) == sorted(groups)
    for key, ids in grid.cells.items():
        assert ids.dtype == np.int64
        assert ids.tolist() == groups[key]
    # the arrays behind the view: keys strictly increasing, order a
    # permutation, starts spanning [0, N] with no empty cell
    n = len(pts)
    rows = list(map(tuple, grid.keys.tolist()))
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert sorted(grid.order.tolist()) == list(range(n))
    assert grid.starts[0] == 0 and grid.starts[-1] == n
    assert (np.diff(grid.starts) > 0).all()
    view = list(grid.cells.items())
    assert len(view) == len(grid.keys) == len(grid.starts) - 1
    for c, (key, ids) in enumerate(view):
        members = grid.order[grid.starts[c]:grid.starts[c + 1]]
        assert (grid.cell_of_point[members] == grid.keys[c]).all()
        assert key == rows[c]
        np.testing.assert_array_equal(ids, members)


def test_all_points_isolated_raises():
    pts = np.array([[0.0, 0.0], [0.0, 100.0], [100.0, 0.0], [100.0, 100.0]])
    grid = build_grid(pts)
    assert len(grid.cells) == 4
    with pytest.raises(DegenerateGeometryError, match="degenerate"):
        compute_rt(grid, pts)


def test_neighbor_restriction_undercounts():
    # two tight blobs two cells apart: rt spans the gap but the
    # neighborhood does not, so n(p) counts p's own blob only
    left = np.linspace(0.0, 0.5, 8)[:, None]
    right = np.linspace(9.5, 10.0, 8)[:, None]
    pts = np.vstack([left, right])
    grid = build_grid(pts, target_fraction=0.25)
    rt = 20.0
    restricted = compute_density(grid, pts, rt)
    every = np.array([(np.sqrt(((pts - p) ** 2).sum(axis=1)) <= rt).sum()
                      for p in pts])
    assert (every == 16).all()
    assert (restricted == 8).all()
    assert (restricted < every).all()


@pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
def test_density_filter_where_rt_reaches_a_section_width(above):
    # sections of width 1 on [0, 10]; 3 - 2^-51 (key 2) and 4 (key 4)
    # lie 1 + 2^-51 apart. rt just below the width needs no filter, and
    # rt at that distance, just above the width, must drop the pair.
    rng = np.random.default_rng(14)
    pts = np.r_[0.0, 10.0, 3.0 - 2.0 ** -51, 4.0,
                rng.uniform(0.0, 10.0, 200)][:, None]
    grid = build_grid(pts, target_fraction=0.1)
    assert grid.widths.tolist() == [1.0]
    rt = 1.0 + 2.0 ** -51 if above else 1.0 - 2.0 ** -40
    dist = np.abs(pts - pts.T)
    keys = grid.cell_of_point[:, 0]
    near = np.abs(keys[:, None] - keys[None, :]) <= 1
    every = (dist <= rt).sum(axis=1)
    restricted = ((dist <= rt) & near).sum(axis=1)
    np.testing.assert_array_equal(compute_density(grid, pts, rt), restricted)
    crossing = (dist <= rt) & (keys[:, None] != keys[None, :])
    assert crossing.any()
    assert (restricted < every).any() == above


def test_validation_errors():
    for shape in ((0, 2), (3, 0)):
        with pytest.raises(ValidationError):
            build_grid(np.empty(shape))
    with pytest.raises(ValidationError):
        build_grid(np.zeros((3, 2)), target_fraction=0.0)
    with pytest.raises(ValidationError, match="overflow"):
        build_grid(np.array([[1e200, 0.0], [-1e200, 0.0]]))
    with pytest.raises(ValidationError, match="underflow"):
        build_grid(np.array([[1e-300, 0.0], [3e-300, 0.0]]))
    pts = np.array([[0.0], [1.0]])
    grid = build_grid(pts)
    for coef in (0.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            compute_rt(grid, pts, coef_rt=coef)
    with pytest.raises(ValidationError):
        compute_density(grid, pts, rt=-1.0)
    for coef in (-1.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            compute_dt(grid, np.array([1, 1]), coef_dt=coef)
    for base in (1.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            compute_dt(grid, np.array([1, 1]), log_base=base)
    with pytest.raises(DegenerateGeometryError):
        compute_dt(build_grid(np.array([[0.0]])), np.array([1]))


def oracle_edges(pts, rt):
    n = len(pts)
    return {(a, b) for a in range(n) for b in range(a + 1, n)
            if oracle_distance(pts[a], pts[b]) <= rt}


def graph_edges(graph):
    coo = graph.tocoo()
    return set(zip(coo.row.tolist(), coo.col.tolist()))


def test_rt_graph_is_the_closed_upper_triangle():
    rng = np.random.default_rng(41)
    cases = []
    for trial in range(30):
        q = int(rng.integers(1, 5))
        pts = rng.normal(size=(int(rng.integers(2, 80)), q))
        cases.append((pts, float(rng.uniform(0.05, 1.5))))
    # exact ties: 0.1-lattice points, rt one pair's documented distance
    for trial in range(200):
        pts = rng.integers(-5, 6, size=(12, int(rng.integers(2, 5)))) * 0.1
        a, b = rng.choice(12, size=2, replace=False)
        cases.append((pts, oracle_distance(pts[a], pts[b])))
    for pts, rt in cases:
        graph = rt_graph(pts, rt)
        n = len(pts)
        assert graph.format == "csr" and graph.shape == (n, n)
        assert graph.has_canonical_format
        edges = graph_edges(graph)
        assert all(a < b for a, b in edges)
        assert edges == oracle_edges(pts, rt)
        assert graph.nnz == len(edges)
    one = rt_graph(np.array([[0.5, 2.0]]), 1.0)
    assert one.shape == (1, 1) and one.nnz == 0
    with pytest.raises(ValidationError, match="nonnegative"):
        rt_graph(np.zeros((3, 2)), -1.0)


def test_stage_inputs_must_match_their_grid():
    pts = np.random.default_rng(3).normal(size=(200, 2))
    grid = build_grid(pts)
    rt, _, _ = compute_rt(grid, pts)
    n_p = compute_density(grid, pts, rt)
    for bad in (pts[:100], np.hstack([pts, pts[:, :1]]), pts.ravel()):
        with pytest.raises(ValidationError, match="do not match"):
            compute_rt(grid, bad)
        with pytest.raises(ValidationError, match="do not match"):
            compute_density(grid, bad, rt)
    for bad in (np.r_[n_p, n_p], n_p[:100], n_p[:, None]):
        with pytest.raises(ValidationError, match="one value per grid point"):
            compute_dt(grid, bad)


def test_coincident_points_give_zero_rt():
    pts = np.zeros((5, 2))
    grid = build_grid(pts)
    rt, _, _ = compute_rt(grid, pts)
    assert rt == 0.0


def fsum_rows(block):
    return np.array([math.fsum(row) for row in block.tolist()])


def sums_and_fallbacks(sums_of, monkeypatch, *args):
    """sums_of(*args) and how many sums it sent to math.fsum."""
    calls = []

    def counting_fsum(values, fsum=math.fsum):
        calls.append(1)
        return fsum(values)

    with monkeypatch.context() as m:
        m.setattr(math, "fsum", counting_fsum)
        sums = sums_of(*args)
    return sums, len(calls)


def row_sums_and_fallbacks(block, monkeypatch):
    """row_sums(block) and how many rows it sent to math.fsum."""
    return sums_and_fallbacks(row_sums, monkeypatch, block)


def assert_bitwise(a, b):
    assert a.dtype == b.dtype == np.float64
    assert a.tobytes() == b.tobytes()


def padded(values, width=W):
    row = np.zeros(width)
    row[:len(values)] = values
    return row


def test_exact_row_sums_send_half_ulp_ties_to_fsum(monkeypatch):
    u = 2.0 ** -53
    ties = np.array([
        # an exact tie: 1 + u rounds to even, 1.0
        padded([1.0, u]),
        # just above a tie: the lows' float sum drops u^2 / 4, so
        # fl(t1 + t2) would be 1.0 where the correct rounding is 1 + 2u
        padded([1.0, u, u * u / 4]),
        # just below a tie, closer than the bound on the lows' error
        padded([1.0 + 2 * u, u - u * u]),
        # just above the tie between 3 and 3 + 4u
        padded([3.0, 2 * u, u ** 3]),
    ])
    expected = fsum_rows(ties)
    assert expected.tolist() == [1.0, 1.0 + 2 * u, 1.0 + 2 * u, 3.0 + 4 * u]
    sums, fallbacks = row_sums_and_fallbacks(ties, monkeypatch)
    assert_bitwise(sums, expected)
    assert fallbacks == len(ties)
    # shuffled columns reach the same sums
    perm = np.random.default_rng(1).permutation(W)
    assert_bitwise(row_sums(ties[:, perm]), expected)


def test_exact_row_sums_bound_the_error_of_lo(monkeypatch):
    # The row max 1.5 gives sigma = 2^8, so every other value here is a
    # pure low. numpy sums a row of 64 in eight strided accumulators, and
    # the three c share one with u - 2^-106, each lost to it: t2 = u -
    # 2^-106 drops the 3c that lift the exact sum above the tie 1.5 + u.
    # The tail alone is below half the gap, the bound on the lows' error
    # is not.
    u = 2.0 ** -53
    c = 1.75 * 2.0 ** -108
    row = np.zeros(W)
    row[0], row[1] = 1.5, u - 2.0 ** -106
    row[[9, 17, 25]] = c
    sums, fallbacks = row_sums_and_fallbacks(row[None], monkeypatch)
    assert_bitwise(sums, np.array([1.5 + 2 * u]))
    assert math.fsum(row) == 1.5 + 2 * u
    assert fallbacks == 1


def test_exact_row_sums_certify_generic_rows(monkeypatch):
    rng = np.random.default_rng(2)
    block = np.sqrt(rng.uniform(size=(40, 3 * W + 5))) * 7.3
    sums, fallbacks = row_sums_and_fallbacks(block, monkeypatch)
    assert_bitwise(sums, fsum_rows(block))
    assert fallbacks == 0


def test_exact_row_sums_zeros_and_single_values(monkeypatch):
    block = np.zeros((3, W))
    block[1, 17] = 0.1
    block[2, W - 1] = 5e-324
    sums, fallbacks = row_sums_and_fallbacks(block, monkeypatch)
    assert_bitwise(sums, np.array([0.0, 0.1, 5e-324]))
    assert fallbacks == 1  # half the gap above 5e-324 underflows to 0
    assert_bitwise(row_sums(np.array([[2.5], [0.0]])),
                   np.array([2.5, 0.0]))


def test_exact_row_sums_subnormals_and_wide_exponent_range():
    rng = np.random.default_rng(3)
    tiny = rng.integers(0, 1 << 20, size=(16, W + 3)) * 5e-324
    mixed = np.where(rng.uniform(size=(16, 2 * W)) < 0.5, 1e300, 1e-300)
    mixed *= rng.uniform(0.5, 1.5, size=mixed.shape)
    spread = rng.uniform(size=(16, W)) * 10.0 ** rng.integers(-300, 300,
                                                              size=(16, W))
    for block in (tiny, mixed, spread):
        assert_bitwise(row_sums(block), fsum_rows(block))


@pytest.mark.parametrize("width", [G // 16 - 1, G // 16, G // 16 + 1])
def test_exact_row_sums_at_the_width_gate(width, monkeypatch):
    # 16 rows: these widths put the block just below, at and just above
    # _SPLIT_ELEMENTS values, where compute_rt's pair path starts;
    # row_sums takes the split at every size, and only the tie goes to
    # fsum.
    rng = np.random.default_rng(width)
    block = rng.uniform(size=(16, width)) ** 3
    block[0] = padded([1.0, 2.0 ** -53, 2.0 ** -108], width)
    sums, fallbacks = row_sums_and_fallbacks(block, monkeypatch)
    assert_bitwise(sums, fsum_rows(block))
    assert fallbacks == 1


@pytest.mark.parametrize("rows, width", [(1, 2 * W), (2, 2 * W), (G // 8, 8)],
                         ids=["1x128", "2x128", "128x8"])
def test_exact_row_sums_gate_on_elements_not_width(rows, width, monkeypatch):
    # a few wide rows and many narrow ones both take the split: row_sums
    # has no gate on rows x columns
    block = np.sqrt(np.random.default_rng(rows).uniform(size=(rows, width)))
    sums, fallbacks = row_sums_and_fallbacks(block, monkeypatch)
    assert_bitwise(sums, fsum_rows(block))
    # sums of 8 values often land on exact half-ulp ties, which still go
    # to fsum; these sums of 128 do not
    assert fallbacks < max(1, rows // 4)


@pytest.mark.parametrize("width", [126, 254])
def test_exact_row_sums_width_plus_two_a_power_of_two(width, monkeypatch):
    # 2^m = width + 2 exactly: the highs of rows at their max sum to
    # width 2^e, the closest they come to sigma = 2^(e + m). (The highs
    # stay exact up to 2 sigma, so an m one short still passes; two
    # short does not.)
    rng = np.random.default_rng(width)
    top = np.nextafter(2.0, 0.0)
    block = np.vstack([np.full((4, width), top),
                       top - rng.uniform(size=(12, width)) * 2.0 ** -40,
                       rng.uniform(size=(12, width)) * top])
    block[:, 0] = top
    sums, fallbacks = row_sums_and_fallbacks(block, monkeypatch)
    assert_bitwise(sums, fsum_rows(block))
    assert fallbacks == 0


def test_exact_row_sums_row_max_a_power_of_two(monkeypatch):
    rng = np.random.default_rng(5)
    tops = 2.0 ** np.arange(-30, 31, 4)
    block = rng.uniform(size=(tops.size, W)) * tops[:, None]
    block[:, 3] = tops
    sums, fallbacks = row_sums_and_fallbacks(block, monkeypatch)
    assert_bitwise(sums, fsum_rows(block))
    assert fallbacks == 0


def test_exact_row_sums_huge_rows_go_to_fsum(monkeypatch):
    # sigma = 2^(e + 7) for 64 columns passes 2^1023 once the row max
    # reaches 2^1016 (e = 1017): the last three rows. The others still
    # take the split.
    rng = np.random.default_rng(6)
    exps = np.array([1000, 1010, 1016, 1017, 1017, 1018])
    block = rng.uniform(0.5, 1.0, size=(exps.size, W)) * 2.0 ** exps[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sums, fallbacks = row_sums_and_fallbacks(block, monkeypatch)
    assert_bitwise(sums, fsum_rows(block))
    assert fallbacks == 3


def fsum_or_inf(values):
    """math.fsum of values >= 0, inf where it overflows."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def test_exact_row_sums_overflowing_rows_read_inf(monkeypatch):
    # fsum raises on a sum past the largest float; for values >= 0 the
    # correct rounding of such a sum is inf. The first row's sigma passes
    # 2^1023, so it goes to fsum; the second's fits and takes the split.
    block = np.full((2, W), 1e307)
    block[1] = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sums, fallbacks = row_sums_and_fallbacks(block, monkeypatch)
    assert sums[0] == math.inf
    assert sums[1] == math.fsum(block[1])
    assert fallbacks == 1
    assert row_sums(block[:1, :8]).tolist() == [8e307]


def fsum_prefixes(values, ends):
    return np.array([[fsum_or_inf(row[:end]) for end in row_ends]
                     for row, row_ends in zip(values.tolist(),
                                              ends.tolist())])


def prefix_rows(values, ends):
    """prefix_sums of each row of values at the same row of ends."""
    return np.array([prefix_sums(row, row_ends)
                     for row, row_ends in zip(values, ends)])


def prefix_sums_and_fallbacks(values, ends, monkeypatch):
    """prefix_rows(values, ends) and how many ends it sent to
    math.fsum."""
    return sums_and_fallbacks(prefix_rows, monkeypatch, values, ends)


def test_exact_prefix_sums_match_fsum_of_every_prefix(monkeypatch):
    rng = np.random.default_rng(7)
    width = 3000
    values = rng.uniform(size=(4, width)) ** 3 * 7.0
    values[1] = np.sort(values[1])
    values[2, ::3] = 0.0
    # unsorted ends, repeats, and both 0 and the full width in every row
    ends = rng.integers(0, width + 1, size=(4, 40))
    ends[:, :3] = [0, width, 0]
    sums, fallbacks = prefix_sums_and_fallbacks(values, ends, monkeypatch)
    assert_bitwise(sums, fsum_prefixes(values, ends))
    assert fallbacks == 0
    assert not sums[:, 0].any()
    assert_bitwise(sums[:, 1], row_sums(values))


def test_exact_prefix_sums_zeros_and_ties(monkeypatch):
    values = np.zeros((4, W))
    values[1] = 0.1
    values[2, 1::2] = 2.0 ** -60
    values[2, ::2] = 1.0
    values[3, 40:] = 5e-324
    ends = np.tile(np.arange(0, W + 1, 3), (4, 1))
    sums, fallbacks = prefix_sums_and_fallbacks(values, ends, monkeypatch)
    assert_bitwise(sums, fsum_prefixes(values, ends))
    # zero sums are exact; 0.1 (k - 1) + 0.1 hits half-ulp ties often, and
    # the subnormal sums' half gaps underflow to 0
    assert not sums[0].any() and not sums[3, :14].any()
    assert fallbacks <= 2 * ends.shape[1]


def test_exact_prefix_sums_subnormals_and_wide_exponent_range():
    rng = np.random.default_rng(9)
    tiny = rng.integers(0, 1 << 20, size=(4, W + 3)) * 5e-324
    mixed = np.where(rng.uniform(size=(4, 2 * W)) < 0.5, 1e300, 1e-300)
    mixed *= rng.uniform(0.5, 1.5, size=mixed.shape)
    spread = rng.uniform(size=(4, W)) * 10.0 ** rng.integers(-300, 300,
                                                             size=(4, W))
    for values in (tiny, mixed, spread):
        ends = rng.integers(0, values.shape[1] + 1, size=(4, 25))
        assert_bitwise(prefix_rows(values, ends),
                       fsum_prefixes(values, ends))


def test_exact_prefix_sums_bound_the_error_of_lo(monkeypatch):
    # the row of test_exact_row_sums_bound_the_error_of_lo: added in order,
    # each c is lost to u - 2^-106, so after the third c the float sum
    # 1.5 sits below the tie 1.5 + u that the exact sum is above
    u = 2.0 ** -53
    row = np.zeros(W)
    row[0], row[1] = 1.5, u - 2.0 ** -106
    row[[9, 17, 25]] = 1.75 * 2.0 ** -108
    ends = np.array([[1, 2, 10, 18, 26, W]])
    sums, fallbacks = prefix_sums_and_fallbacks(row[None], ends, monkeypatch)
    assert_bitwise(sums, fsum_prefixes(row[None], ends))
    assert sums[0, -1] == 1.5 + 2 * u
    assert fallbacks == 5


def test_exact_prefix_sums_of_an_empty_row():
    # a game row whose candidates are all blocked sums an empty prefix
    sums = prefix_sums(np.zeros(0), np.array([0, 0, 0]))
    assert_bitwise(sums, np.zeros(3))


def test_exact_prefix_sums_uncertified_ends_go_to_fsum(monkeypatch):
    values = np.sqrt(np.random.default_rng(10).uniform(size=(3, 500)))
    ends = np.tile([0, 1, 250, 499, 500], (3, 1))
    forced = np.zeros(ends.shape, dtype=bool)
    forced[[0, 1, 2], [2, 4, 1]] = True
    rows = iter(forced)  # prefix_sums certifies once per row

    def uncertifying(t1, t2, sigma, count, certify=exact.certify):
        return certify(t1, t2, np.where(next(rows), np.inf, sigma), count)

    monkeypatch.setattr(exact, "certify", uncertifying)
    sums, fallbacks = prefix_sums_and_fallbacks(values, ends, monkeypatch)
    assert_bitwise(sums, fsum_prefixes(values, ends))
    assert fallbacks == 3


def test_exact_prefix_sums_huge_rows_go_to_fsum(monkeypatch):
    # as in test_exact_row_sums_huge_rows_go_to_fsum, rows whose max
    # reaches 2^1016 (the last two) take every end to fsum, where the
    # last row's full sum overflows
    rng = np.random.default_rng(11)
    exps = np.array([1010, 1016, 1017, 1022])
    values = rng.uniform(0.5, 1.0, size=(exps.size, W)) * 2.0 ** exps[:, None]
    ends = np.tile([0, 1, 5, W], (exps.size, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sums, fallbacks = prefix_sums_and_fallbacks(values, ends,
                                                    monkeypatch)
    assert_bitwise(sums, fsum_prefixes(values, ends))
    assert sums[3, -1] == math.inf
    assert fallbacks == 2 * ends.shape[1]


def segment_sums_and_fallbacks(segments, monkeypatch):
    """segment_sums over the concatenated segments, math.fsum of each,
    and how many segments segment_sums sent to math.fsum."""
    values = np.concatenate([np.asarray(v, dtype=np.float64)
                             for v in segments])
    starts = np.r_[0, np.cumsum([len(v) for v in segments])]
    sums, fallbacks = sums_and_fallbacks(segment_sums, monkeypatch, values,
                                         starts)
    return sums, np.array([fsum_or_inf(v) for v in segments]), fallbacks


def test_segment_sums_match_fsum_on_mixed_segments(monkeypatch):
    # (segment, whether it goes to fsum), all in one call
    rng = np.random.default_rng(8)
    cases = [
        ([2.5], False),
        ([0.0], False),
        (np.zeros(5), False),
        (rng.uniform(size=100), False),
        (rng.uniform(size=3) ** 8, False),
        # a sum that stays subnormal: half the gap below it underflows
        (rng.integers(0, 1 << 20, size=7) * 5e-324, True),
        ([5e-324], True),
        # near 1e300 the split still fits: sigma = 2^(997 + 7)
        (rng.uniform(0.5, 1.0, size=W) * 1e300, False),
        (np.r_[1e300, rng.uniform(size=W - 1)], False),
        # a max at 2^1016 or more puts 64 values' sigma past 2^1023
        (rng.uniform(0.5, 1.0, size=W) * 2.0 ** 1017, True),
        (np.full(W, 1e307), True),  # and this sum overflows to inf
        # an exact half-ulp tie and one just above it, as in the row sums
        ([1.0, 2.0 ** -53], True),
        (padded([1.0, 2.0 ** -53, 2.0 ** -108]), True),
        # sigma = 16: each c is lost to the low before it, so t2 drops
        # the 3c that lift the exact sum above the tie 1.5 + u; the tail
        # alone is below half the gap, the bound on the lows' error is not
        ([1.5, 2.0 ** -53 - 2.0 ** -106] + [1.75 * 2.0 ** -108] * 3, True),
    ]
    segments = [v for v, _ in cases]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sums, expected, fallbacks = segment_sums_and_fallbacks(segments,
                                                               monkeypatch)
    assert_bitwise(sums, expected)
    assert sums[-4] == math.inf and sums[-1] == 1.5 + 2.0 ** -52
    assert fallbacks == sum(fsum for _, fsum in cases)
    # the same segments in another order give the same sums
    perm = np.random.default_rng(9).permutation(len(segments))
    again, _, _ = segment_sums_and_fallbacks([segments[i] for i in perm],
                                             monkeypatch)
    assert_bitwise(again, sums[perm])


def test_segment_sums_of_many_widths(monkeypatch):
    rng = np.random.default_rng(10)
    segments = [rng.uniform(size=w) * 10.0 ** rng.integers(-30, 30, size=w)
                for w in rng.integers(1, 300, size=200)]
    sums, expected, fallbacks = segment_sums_and_fallbacks(segments,
                                                           monkeypatch)
    assert_bitwise(sums, expected)
    assert fallbacks == 0


def q2_mixture(scale=1.0):
    """Four Gaussian blobs in 2-d, 5000 points at scale 1, as the
    cluster_q2 benchmark input lays them out."""
    cov = 0.4 * np.eye(2)
    return np.vstack([
        sample_gaussian(np.array(mean), cov, round(size * scale), seed)
        for seed, (mean, size) in enumerate([((0.5, -1.0), 1500),
                                             ((1.0, -1.0), 1500),
                                             ((1.0, 1.0), 1500),
                                             ((4.5, 4.5), 500)])])


def rt_on_pair_path(points, monkeypatch, coef_rt=1.0, target_fraction=0.075):
    """compute_rt's (rt, a(p), d(c)), the shares of points and of
    distance values (members x neighborhood) on the pair path, and how
    many of the pair path's sums went to math.fsum."""
    seen = {}

    def recording(*args, pair_row_sums=grid_module._pair_row_sums):
        sums, seen["fallbacks"] = sums_and_fallbacks(pair_row_sums,
                                                     monkeypatch, *args)
        seen["paired"] = args[-1]
        return sums

    grid = build_grid(points, target_fraction)
    with monkeypatch.context() as m:
        m.setattr(grid_module, "_pair_row_sums", recording)
        out = compute_rt(grid, points, coef_rt)
    sizes = np.diff(grid.starts)
    values = sizes * np.array([h.size for h in neighborhoods(grid)])
    paired = seen["paired"]
    return (out, (sizes[paired].sum() / sizes.sum(),
                  values[paired].sum() / values.sum()), seen["fallbacks"])


def assert_rt_matches_oracle(points, rt, a_p, d_c, target_fraction=0.075):
    o_rt, o_ap, o_dc, *_ = oracle_thresholds(points, 1.0, 0.95,
                                             target_fraction=target_fraction)
    assert rt == o_rt
    assert_bitwise(a_p, o_ap)
    assert_bitwise(d_c[~np.isnan(d_c)], np.array(list(o_dc.values())))


def test_compute_rt_pairs_certify_on_a_q2_mixture(monkeypatch):
    points = q2_mixture()
    _, (points_share, values_share), fallbacks = rt_on_pair_path(
        points, monkeypatch, coef_rt=2.0)
    # the points left are in sparse cells at the blobs' edges
    assert points_share > 0.98 and values_share > 0.99
    assert fallbacks == 0


def test_pair_path_permutation_invariance_on_a_q2_mixture(monkeypatch):
    points = q2_mixture(0.4)
    (rt, a_p, d_c), (share, _), _ = rt_on_pair_path(points, monkeypatch)
    assert len(points) == 2000 and share > 0.9
    assert_rt_matches_oracle(points, rt, a_p, d_c)
    assert_permutation_invariant(points, np.random.default_rng(13))


def clumps_among_uniform():
    """Two 200-point clumps of spread 1e-9, 0.07 apart, among 1500
    uniform points."""
    rng = np.random.default_rng(21)
    return np.vstack([rng.uniform(size=(1500, 2)),
                      0.4 + 1e-9 * rng.normal(size=(200, 2)),
                      [0.47, 0.4] + 1e-9 * rng.normal(size=(200, 2))])


def clump_beside_a_spread_cell():
    """Two 40-point clumps a few ulps either side of the section edge at
    5 (width 1): the left one's neighborhood is the two clumps, the
    right one's also holds a spread cell, so the blocks they share
    split at 2^44 times the left one's own sigma."""
    step = 2.0 ** -50  # the float spacing in [4, 8)
    return np.r_[0.0, 5.0 - step * np.arange(1, 41),
                 5.0 + step * np.arange(40), np.linspace(6.0, 6.99, 20),
                 10.0][:, None]


@pytest.mark.parametrize("points, target_fraction, min_share", [
    (clumps_among_uniform(), 0.075, 0.3),
    (np.vstack([np.full((3000, 2), 0.25),
                np.random.default_rng(22).normal(size=(300, 2))]), 0.075,
     0.9),
    (np.random.default_rng(23).normal(size=(1000, 2)) * 1e150, 0.075, 0.7),
    (np.random.default_rng(23).normal(size=(1000, 2)) * 1e-150, 0.075, 0.7),
    (clump_beside_a_spread_cell(), 0.1, 0.95)],
    ids=["clumps", "duplicates", "scale_1e150", "scale_1e-150",
         "clump_beside_spread"])
def test_pair_path_matches_oracle(points, target_fraction, min_share,
                                  monkeypatch):
    (rt, a_p, d_c), (share, _), _ = rt_on_pair_path(
        points, monkeypatch, target_fraction=target_fraction)
    assert share >= min_share
    assert_rt_matches_oracle(points, rt, a_p, d_c, target_fraction)


def test_pair_path_clump_beside_a_spread_cell_goes_to_fsum(monkeypatch):
    # the left clump's highs stay exact, but the lows' bound at the
    # shared blocks' sigma is too wide to certify its 40 sums
    points = clump_beside_a_spread_cell()
    _, _, fallbacks = rt_on_pair_path(points, monkeypatch,
                                      target_fraction=0.1)
    assert fallbacks == 40


def test_pair_path_uncertified_points_go_to_fsum(monkeypatch):
    points = q2_mixture(0.4)

    def uncertifying(t1, t2, sigma, count, certify=grid_module.certify):
        sigma = np.array(sigma, dtype=np.float64)
        sigma[::2] = np.inf
        return certify(t1, t2, sigma, count)

    _, (share, _), natural = rt_on_pair_path(points, monkeypatch)
    forced = -(-round(share * len(points)) // 2)
    monkeypatch.setattr(grid_module, "certify", uncertifying)
    (rt, a_p, d_c), _, fallbacks = rt_on_pair_path(points, monkeypatch)
    # every other sum is forced; the few the bound leaves may overlap them
    assert forced <= fallbacks <= forced + natural
    assert_rt_matches_oracle(points, rt, a_p, d_c)


@pytest.mark.parametrize("points, target_fraction", [
    (lattice_q3(), 0.25), (duplicate_heavy(), 0.075)],
    ids=["lattice_q3", "duplicates"])
def test_wide_neighborhoods_match_oracle(points, target_fraction):
    grid = build_grid(points, target_fraction)
    hoods = neighborhoods(grid)
    assert max(m.size * nb.size for m, nb in zip(grid.cells.values(), hoods)) >= G
    rt, a_p, d_c = compute_rt(grid, points, coef_rt=1.0)
    n_p = compute_density(grid, points, rt)
    dt, n_c = compute_dt(grid, n_p)
    o_rt, o_ap, o_dc, o_np, o_dt, o_nc = oracle_thresholds(
        points, 1.0, 0.95, target_fraction=target_fraction)
    assert rt == o_rt
    assert dt == o_dt
    assert_bitwise(a_p, o_ap)
    np.testing.assert_array_equal(n_p, o_np)
    assert_cell_means(grid, d_c, n_c, o_dc, o_nc)


def rt_on_paths(points, monkeypatch, coef_rt=1.0, target_fraction=0.075):
    """compute_rt's (rt, a(p), d(c)); the points the flat and the pair
    path summed, the chunks the flat pass took; and how many sums in
    all compute_rt sent to math.fsum."""
    seen = {"flat": 0, "pair": 0, "chunks": 0}

    def flat(*args, flat_row_sums=grid_module._flat_row_sums,
             segment_sums=grid_module.segment_sums):
        def chunk(*chunk_args):
            seen["chunks"] += 1
            return segment_sums(*chunk_args)

        with monkeypatch.context() as m:
            m.setattr(grid_module, "segment_sums", chunk)
            ids, sums = flat_row_sums(*args)
        seen["flat"] = ids.size
        return ids, sums

    def pair(*args, pair_row_sums=grid_module._pair_row_sums):
        seen["pair"] = int(np.diff(args[1].starts)[args[-1]].sum())
        return pair_row_sums(*args)

    grid = build_grid(points, target_fraction)
    with monkeypatch.context() as m:
        m.setattr(grid_module, "_flat_row_sums", flat)
        m.setattr(grid_module, "_pair_row_sums", pair)
        out, fallbacks = sums_and_fallbacks(compute_rt, monkeypatch, grid,
                                            points, coef_rt)
    return out, seen, fallbacks


@pytest.mark.parametrize("points, pair, chunks", [
    (blobs(300, 8, 0.3, 1), False, 1),
    (blobs(600, 8, 0.4, 1), False, 2),
    (clumps_among_uniform(), True, 6)],
    ids=["q8_small_cells", "q8_two_chunks", "both_paths"])
def test_flat_pass_matches_oracle(points, pair, chunks, monkeypatch):
    (rt, a_p, d_c), seen, _ = rt_on_paths(points, monkeypatch)
    assert seen["flat"] > 0 and (seen["pair"] > 0) == pair
    assert seen["chunks"] == chunks
    assert_rt_matches_oracle(points, rt, a_p, d_c)


def test_flat_pass_one_point_per_chunk(monkeypatch):
    # a budget below every point's neighborhood still takes whole points
    points = blobs(300, 8, 0.3, 1)
    (rt, a_p, d_c), seen, _ = rt_on_paths(points, monkeypatch)
    monkeypatch.setattr(grid_module, "BLOCK_ELEMENTS", 8)
    (rt1, a_p1, d_c1), seen1, _ = rt_on_paths(points, monkeypatch)
    assert seen1["chunks"] == seen1["flat"] == seen["flat"]
    assert rt1 == rt
    assert_bitwise(a_p1, a_p)
    assert_bitwise(d_c1, d_c)


def q8_benchmark_input():
    """The cluster_q8 benchmark input: 675 normal points at the origin,
    675 abnormal at 8 e1 and 150 never-labelled at 8 e2, unit
    covariance in 8-d, seed 0."""
    eye = tuple(tuple(float(i == j) for j in range(8)) for i in range(8))
    dataset, _ = generate(MixtureSpec(
        [Component(tuple(8.0 * e for e in eye[axis]) if axis >= 0
                   else (0.0,) * 8, eye, count, tag)
         for axis, count, tag in [(-1, 675, "normal"), (0, 675, "abnormal"),
                                  (1, 150, "unknown")]], 0.02, seed=0))
    return dataset.points


def exact_tie(values):
    """Whether the exact sum of values lies halfway between two floats."""
    total = math.fsum(values)
    return any(2 * sum(map(Fraction, values)) == Fraction(total) +
               Fraction(math.nextafter(total, toward))
               for toward in (0.0, math.inf))


def test_compute_rt_on_the_q8_benchmark_input_sends_only_ties_to_fsum(
        monkeypatch):
    points = q8_benchmark_input()
    _, seen, fallbacks = rt_on_paths(points, monkeypatch, coef_rt=0.1)
    # every cell is small, and 716 of the 1500 points are alone in
    # their neighborhoods
    assert seen["pair"] == 0 and seen["flat"] == 784
    sent = []

    def recording_fsum(values, fsum=math.fsum):
        sent.append(values)
        return fsum(values)

    monkeypatch.setattr(math, "fsum", recording_fsum)
    compute_rt(build_grid(points), points, 0.1)
    *rows, outer = sent
    assert len(sent) == fallbacks and len(outer) == 784  # rt's outer mean
    # a few values summing into a higher binade often land exactly on a
    # half-ulp tie, which no error bound can round; every other point's
    # sum and every d(c) is certified
    assert len(rows) == 142 and all(map(exact_tie, rows))
