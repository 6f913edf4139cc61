"""Grid sectioning and the two clustering thresholds.

The grid cuts each dimension into m uniform sections between the data
min and max (closed upper edge, so the max lands in the last section).
Neighborhood means are exact multiset means: every mean here is the
correctly rounded sum of its values divided by their count, which makes
rt and dt bit-identical under any permutation of the points and lets an
independent oracle reproduce them exactly with math.fsum. The distances
and the certified sums come from exact.py, with their proofs. rt's
outer mean is summed by math.fsum, and the integer n(p) of a cell by an
exact integer sum.

compute_rt computes the distance block of each unordered pair of
neighboring cells once (_pair_row_sums): its row sums feed a(p) for the
points of one cell, its column sums those of the other. That needs a
split fixed before any distance is computed: each cell's sigma comes
from a bound on its distances to its neighborhood, taken from member
bounding boxes (_pair_sigmas), and a shared block splits at the larger
of its two cells' sigmas. The highs then sum exactly across blocks, and
each point's sum is certified once, by exact.certify. The points of
cells with fewer than _SPLIT_ELEMENTS members x neighborhood points,
where a shared split does not pay, are summed in one flat pass
(_flat_row_sums): the (point, neighborhood point) pairs of all those
cells at once, in chunks of whole points, one exact.segment_sums
segment per point. The d(c) of all cells are one more segment_sums,
over a(p) in cell order.

build_grid sorts the points by cell key once (a stable np.lexsort) and
numbers the occupied cells in sorted key order: Grid.keys holds one key
row per cell, Grid.order the point ids sorted by key (ids ascending
within a cell) and Grid.starts each cell's offset into order. Every
per-cell result (neighborhoods, the d(c) and n(c) arrays) follows that
numbering. A cell's 3^q neighborhood is the set of occupied cells within
Chebyshev distance 1 of it, itself included. One Euclidean KD-tree
search over the occupied keys, at radius sqrt(q + 1/2), finds a
superset of those cell pairs, and an exact test on the integer keys
keeps the neighbors (_near_cells), so the cost scales with occupied-cell
pairs, not with 3^q.

Distances follow exact.py's convention (exact.sq_distances, squared
differences summed in dimension order). rt_graph is the one closed
rt-pair kernel (a pair at exactly rt connects) and returns the graph as
one CSR upper triangle. core.prepare() builds it once per stage;
density, pass-1 conflicts and every merge read it, a merge taking the
subgraph its participants induce. Distances that overflow, or distinct
points whose distances all underflow to zero, raise ValidationError
(CLI exit 2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .errors import DegenerateGeometryError, ValidationError
from .exact import (BLOCK_ELEMENTS, certify, fmean, fsum, segment_sums,
                    sigmas, split, sq_distance_blocks, sq_distances)

# Fewest values (members x neighborhood points) a cell needs before
# compute_rt sums it on the pair path, one distance block per
# neighboring cell pair at a shared split; the points of smaller cells
# go to the flat pass.
_SPLIT_ELEMENTS = 1024


@dataclass
class Grid:
    """Section assignment of a point set, its C occupied cells numbered
    in sorted key order.

    sections: m, the section count per dimension (same for every
    dimension); widths, (q,), the section width per dimension, the one
    each key divides by. Dimensions with zero width collapse to section
    0; they never restrict a neighborhood. cell_of_point, (N, q) int64, holds
    each point's key; keys, (C, q) int64, one row per occupied cell,
    strictly increasing in lexicographic order, the one cell order every
    per-cell array follows. Cell c holds the ids order[starts[c]:
    starts[c + 1]], ascending; starts has C + 1 entries, from 0 to N.
    """

    sections: int
    widths: np.ndarray
    cell_of_point: np.ndarray
    keys: np.ndarray
    order: np.ndarray
    starts: np.ndarray

    @cached_property
    def cells(self) -> dict[tuple[int, ...], np.ndarray]:
        """Occupied key -> point ids, in cell order: a view for callers
        that look cells up by key, built on first read."""
        return dict(zip(map(tuple, self.keys.tolist()), _members(self)))


def _members(grid: Grid) -> list[np.ndarray]:
    """Each cell's point ids, in cell order (views into grid.order)."""
    bounds = grid.starts.tolist()
    return [grid.order[a:b] for a, b in zip(bounds, bounds[1:])]


@dataclass
class Thresholds:
    rt: float
    dt: float


@dataclass
class DensityProfile:
    """Per-point averages backing the thresholds.

    avg_dist_point is a(p), the mean distance from p to the other points
    of its 3^q cell neighborhood (NaN when the neighborhood holds only
    p). density_point is n(p), the count of neighborhood points within
    rt of p, self included.
    """

    avg_dist_point: np.ndarray
    density_point: np.ndarray


def _pair_sigmas(points: np.ndarray, grid: Grid, near: np.ndarray,
                 bounds: np.ndarray, width: np.ndarray, big: np.ndarray):
    """The sigma of each cell of big, the cells on the pair path; 0
    elsewhere.

    Cell c splits its distances at sigma_c = 2^(e + m), with 2^m >=
    width[c] + 2 and 2^e above the documented distance of the
    per-dimension extents max(hi_nb - lo_c, hi_c - lo_nb) of the member
    bounding boxes of c and of its neighborhood. Every rounded step of a
    distance is monotone in the coordinate gaps, so that bounds every
    computed distance from c to its neighborhood, with no slack. That
    bound is below 2^512 (_check_extent keeps the squared diagonal
    finite), so sigma_c stays far below 2^1023.
    """
    ranked = points[grid.order]
    starts = grid.starts[:-1]
    lo = np.minimum.reduceat(ranked, starts)
    hi = np.maximum.reduceat(ranked, starts)
    ext = np.maximum(np.maximum.reduceat(hi[near], bounds[:-1]) - lo,
                     hi - np.minimum.reduceat(lo[near], bounds[:-1]))[big]
    reach = np.sqrt(sq_distances(ext.T, np.zeros((ext.shape[1], 1))))
    sigma = np.zeros(big.size)
    sigma[big] = sigmas(reach, width[big])[0]
    return sigma


def _pair_row_sums(points: np.ndarray, grid: Grid, near: np.ndarray,
                   bounds: np.ndarray, width: np.ndarray, big: np.ndarray):
    """Indexed by point id, the correctly rounded sum of the distances of
    each point of the cells of big to its neighborhood, bitwise
    math.fsum; other entries are undefined.

    Each unordered pair (c, c') of neighboring cells on the pair path
    has its distance block computed once and split once, at s =
    max(sigma_c, sigma_c') (_pair_sigmas; a block no other cell shares
    splits at sigma_c): its row sums feed the points of c, its column
    sums those of c'. Sigmas are powers of two, so every high of the
    row of a point of c is a multiple of 2 u sigma_c. A high is at most
    twice its value (it is 0 below u s and within u s of it above), so
    with sigma_c = 2^(e + m) the w highs of a row sum to under
    2 w 2^e < 2 sigma_c, and every partial sum of them is exact however
    s grows: they sum exactly to t1 across blocks. The w lows, each at
    most u s_max with s_max the largest s of the point's blocks, sum in
    float to within 2 w^2 u^2 s_max of t2 in any order, the bound of
    exact.certify with s_max for sigma. This is fixed-boundary
    pre-rounding (Demmel & Nguyen, "Parallel reproducible summation",
    IEEE TC 2015; the a priori sigma of Rump, Ogita & Oishi's AccSum).
    A point keeps fl(t1 + t2) where certify proves it correctly
    rounded; every other point recomputes its row for math.fsum.
    """
    sigma = _pair_sigmas(points, grid, near, bounds, width, big)
    cols = np.ascontiguousarray(points.T)
    members = _members(grid)
    sizes = np.diff(grid.starts)
    t1 = np.zeros(points.shape[0])
    t2 = np.zeros(points.shape[0])
    cells = np.flatnonzero(big)
    for c in cells.tolist():
        nb = near[bounds[c]:bounds[c + 1]]
        theirs = nb[(nb > c) & big[nb]]  # blocks shared with c'
        nb = np.concatenate((nb[(nb == c) | ~big[nb]], theirs))
        ids = _hood(grid, nb)
        mid = ids.size - sizes[theirs].sum()  # columns of c' from here on
        s = np.repeat(np.maximum(sigma[nb], sigma[c]), sizes[nb])
        mine = members[c]
        row1, row2 = np.empty(mine.size), np.empty(mine.size)
        col1, col2 = np.zeros(ids.size - mid), np.zeros(ids.size - mid)
        for lo, x in sq_distance_blocks(cols[:, mine], cols[:, ids]):
            x, high = split(np.sqrt(x, out=x), s)
            low = np.subtract(x, high, out=x)
            high.sum(axis=1, out=row1[lo:lo + x.shape[0]])
            low.sum(axis=1, out=row2[lo:lo + x.shape[0]])
            col1 += high[:, mid:].sum(axis=0)
            col2 += low[:, mid:].sum(axis=0)
        t1[mine] += row1
        t2[mine] += row2
        t1[ids[mid:]] += col1
        t2[ids[mid:]] += col2
    s_max = np.maximum.reduceat(sigma[near], bounds[:-1])[cells]
    ids = _hood(grid, cells)
    total, certified = certify(t1[ids], t2[ids],
                               np.repeat(s_max, sizes[cells]),
                               np.repeat(width[cells], sizes[cells]))
    cell_of = np.repeat(cells, sizes[cells])
    for i in np.flatnonzero(~certified).tolist():
        c = cell_of[i]
        hood = _hood(grid, near[bounds[c]:bounds[c + 1]])
        row = np.sqrt(sq_distances(cols[:, ids[i], None], cols[:, hood]))
        total[i] = fsum(row.tolist())
    sums = np.empty(points.shape[0])
    sums[ids] = total
    return sums


def _check_extent(points: np.ndarray) -> None:
    """No pair's squared distance exceeds the bounding box diagonal's, so
    a finite diagonal rules out overflow everywhere, and a zero diagonal
    over a nonzero extent means every distance underflows to zero."""
    lo, hi = points.min(axis=0), points.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal = sq_distances(hi[:, None], lo[:, None])
    if not np.isfinite(diagonal).all():
        raise ValidationError("coordinate ranges too large: squared "
                              "distances overflow")
    if diagonal[0] == 0.0 and (hi > lo).any():
        raise ValidationError("coordinate ranges too small: squared "
                              "distances underflow")


def _check_points(grid: Grid, points: np.ndarray) -> None:
    if points.shape != (grid.order.size, grid.keys.shape[1]):
        raise ValidationError(f"points of shape {points.shape} do not match "
                              f"the grid's {grid.order.size} points in "
                              f"{grid.keys.shape[1]} dimensions")


def build_grid(points: np.ndarray, target_fraction: float = 0.075) -> Grid:
    """Assign points to uniform grid cells.

    The section count per dimension is floor(1 / target_fraction),
    clamped to [1, N], so each section spans roughly a target_fraction
    slice of the data range.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or 0 in points.shape:
        raise ValidationError("points must be a nonempty 2-d array")
    if not 0.0 < target_fraction <= 1.0:
        raise ValidationError("target_fraction must be in (0, 1]")
    n, q = points.shape
    m = min(max(1, math.floor(1.0 / target_fraction)), n)
    mins = points.min(axis=0)
    maxs = points.max(axis=0)
    _check_extent(points)
    widths = (maxs - mins) / m
    degenerate = widths == 0.0
    safe = np.where(degenerate, 1.0, widths)
    idx = np.floor((points - mins) / safe).astype(np.int64)
    idx = np.clip(idx, 0, m - 1)
    idx[:, degenerate] = 0
    order = np.lexsort(idx.T[::-1])  # stable: ids ascend within a key
    ranked = idx[order]
    new_key = (ranked[1:] != ranked[:-1]).any(axis=1)
    starts = np.flatnonzero(np.r_[True, new_key, True])
    return Grid(sections=m, widths=widths, cell_of_point=idx,
                keys=ranked[starts[:-1]], order=order, starts=starts)


def _near_cells(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(near, bounds): cell c's neighbors, the occupied cells within
    Chebyshev distance 1 of it, its own included, are near[bounds[c]:
    bounds[c + 1]], in cell order.

    Only occupied cells are visited. Two integer keys within Chebyshev
    distance 1 of each other are within squared Euclidean distance q, so
    one Euclidean KD-tree search over the keys at radius sqrt(q + 1/2)
    finds every such pair (no integer lies in (q, q + 1/2], so the
    tree's roundings cannot drop one), and the pairs that differ by more
    than 1 in some coordinate are dropped. This is exact on integers,
    and cheaper than the tree's Chebyshev search.
    """
    keys = grid.keys
    tree = cKDTree(keys)
    i, j = tree.query_pairs(math.sqrt(keys.shape[1] + 0.5),
                            output_type="ndarray").T
    keep = (np.abs(keys[i] - keys[j]) <= 1).all(axis=1)
    own = np.arange(tree.n)
    rows = np.concatenate((own, i[keep], j[keep]))
    near = np.concatenate((own, j[keep], i[keep]))
    near = near[np.lexsort((near, rows))]
    return near, np.concatenate(([0], np.cumsum(np.bincount(rows))))


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The integers lo[k]:hi[k] of every k (one k at least), concatenated
    in order."""
    lengths = hi - lo
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(lo - ends + lengths, lengths)


def _hood(grid: Grid, cells: np.ndarray) -> np.ndarray:
    """The point ids of the given cells, in that order."""
    return grid.order[_ranges(grid.starts[cells], grid.starts[cells + 1])]


def _flat_row_sums(points: np.ndarray, grid: Grid, near: np.ndarray,
                   bounds: np.ndarray, width: np.ndarray, cells: np.ndarray):
    """(ids, sums): the point ids of cells, in cell order, and the
    correctly rounded sum of each one's distances to its neighborhood,
    bitwise math.fsum.

    The (point, neighborhood point) pairs of all these cells are taken
    as one flat list, point by point, each point's neighborhood in cell
    order: one sq_distances over the flat pairs and one segment_sums
    with a segment per point, in chunks of whole points of at most
    BLOCK_ELEMENTS coordinate differences (one point at least), so
    memory stays bounded whatever N is.
    """
    cols = np.ascontiguousarray(points.T)
    ids = _hood(grid, cells)
    cell_of = np.repeat(cells, np.diff(grid.starts)[cells])
    w = width[cell_of]
    ends = np.cumsum(w)
    budget = max(1, BLOCK_ELEMENTS // points.shape[1])
    sums = np.empty(ids.size)
    lo = 0
    while lo < ids.size:
        base = ends[lo] - w[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, base + budget, "right")))
        mine = cell_of[lo:hi]
        hood = _hood(grid, near[_ranges(bounds[mine], bounds[mine + 1])])
        sq = sq_distances(cols[:, np.repeat(ids[lo:hi], w[lo:hi])],
                          cols[:, hood])
        sums[lo:hi] = segment_sums(np.sqrt(sq, out=sq),
                                   np.r_[0, ends[lo:hi] - base])
        lo = hi
    return ids, sums


def compute_rt(grid: Grid, points: np.ndarray,
               coef_rt: float = 20.0) -> tuple[float, np.ndarray, np.ndarray]:
    """Distance threshold rt = mean(d(c)) / (q * coef_rt).

    a(p) averages distances from p to its neighborhood, excluding p
    (its own distance is +0.0 and changes no correctly rounded sum);
    d(c), one value per cell in cell order, averages a(p) over the
    cell's points, NaN where no point has an a(p); the outer mean skips
    those cells. All points isolated in their neighborhoods is an error,
    raised before any distance work.

    Cells of at least _SPLIT_ELEMENTS members x neighborhood points
    compute one distance block per neighboring cell pair, at a sigma
    fixed before any distance (_pair_row_sums). The points of all
    smaller cells, where a shared split would not pay, are summed in
    one flat pass (_flat_row_sums). The d(c) of every cell with an a(p)
    come from one segment_sums over a(p) in cell order.
    """
    if not 0.0 < coef_rt < math.inf:
        raise ValidationError("coef_rt must be positive and finite")
    _check_points(grid, points)
    n, q = points.shape
    near, bounds = _near_cells(grid)
    sizes = np.diff(grid.starts)
    width = np.add.reduceat(sizes[near], bounds[:-1])
    if (width == 1).all():
        raise DegenerateGeometryError("degenerate density geometry")
    paired = sizes * width >= _SPLIT_ELEMENTS
    sums = (_pair_row_sums(points, grid, near, bounds, width, paired)
            if paired.any() else np.empty(n))
    small = np.flatnonzero((width > 1) & ~paired)
    if small.size:
        ids, flat = _flat_row_sums(points, grid, near, bounds, width, small)
        sums[ids] = flat
    cells = np.flatnonzero(width > 1)
    ids = _hood(grid, cells)
    a_p = np.full(n, np.nan)
    a_p[ids] = sums[ids] / np.repeat(width[cells] - 1, sizes[cells])
    d_c = np.full(sizes.size, np.nan)
    starts = np.r_[0, np.cumsum(sizes[cells])]
    d_c[cells] = segment_sums(a_p[ids], starts) / sizes[cells]
    rt = fmean(d_c[cells].tolist()) / (q * coef_rt)
    return rt, a_p, d_c


def rt_graph(points: np.ndarray, rt: float) -> csr_matrix:
    """The closed rt graph: an (N, N) CSR matrix with an entry at (i, j)
    for every pair i < j at distance <= rt, the upper triangle only.

    KD-tree candidates within rt plus a few ulps per dimension (its own
    summation order may round differently) are rechecked with the
    documented distance, so a pair at exactly rt is kept.
    """
    if rt < 0:
        raise ValidationError("rt must be nonnegative")
    n, q = points.shape
    _check_extent(points)
    reach = rt * (1.0 + 4 * (q + 2) * np.finfo(np.float64).eps)
    i, j = cKDTree(points).query_pairs(reach, output_type="ndarray").T
    cols = np.ascontiguousarray(points.T)
    keep = np.sqrt(sq_distances(cols[:, i], cols[:, j])) <= rt
    # sorting i * N + j orders the edges by row, columns ascending
    i, j = np.divmod(np.sort(i[keep] * n + j[keep]), n)
    indptr = np.searchsorted(i, np.arange(n + 1))
    return csr_matrix((np.ones(j.size, dtype=bool), j, indptr), shape=(n, n))


def compute_density(grid: Grid, points: np.ndarray, rt: float,
                    graph: csr_matrix | None = None) -> np.ndarray:
    """Point density n(p): neighborhood points within rt of p, p included.

    Counts p's edges in graph (default rt_graph(points, rt)) to points
    in cells within Chebyshev distance 1 of its own, so it undercounts
    when rt exceeds the cell side.

    Keys floor(fl(fl(x - min) / width)) are monotone in x. Where rt is
    below every nondegenerate section width by 4 (m + 1) eps of it,
    about twice what the roundings of the distance, of the keys and of
    this test can take up, no pair within rt spans two sections: every
    pair is already in neighboring cells, and the filter is skipped.
    """
    _check_points(grid, points)
    graph = rt_graph(points, rt) if graph is None else graph
    n = points.shape[0]
    degree, j = np.diff(graph.indptr), graph.indices
    narrowest = grid.widths[grid.widths > 0].min(initial=math.inf)
    eps = np.finfo(np.float64).eps
    if not rt < narrowest * (1.0 - 4 * (grid.sections + 1) * eps):
        i = np.repeat(np.arange(n), degree)
        cells = grid.cell_of_point
        near = (np.abs(cells[i] - cells[j]) <= 1).all(axis=1)
        degree, j = np.bincount(i[near], minlength=n), j[near]
    return 1 + degree + np.bincount(j, minlength=n)


def compute_dt(grid: Grid, n_p: np.ndarray, coef_dt: float = 0.95,
               log_base: float = math.e) -> tuple[float, np.ndarray]:
    """Density threshold dt = mean(n(c)) / log(N) * coef_dt.

    n(c), one value per cell in cell order, is the mean n(p) over
    the cell's points; the outer mean runs over occupied cells. n(p) are
    integers, so each cell's sum is exact and n(c) correctly rounded.
    log is natural by default; log_base switches it (the pseudocode
    variant uses base 10).
    """
    if not 0.0 < coef_dt < math.inf:
        raise ValidationError("coef_dt must be positive and finite")
    if not 1.0 < log_base < math.inf:
        raise ValidationError("log_base must exceed 1 and be finite")
    n = grid.order.size
    if n_p.shape != (n,):
        raise ValidationError("n_p must hold one value per grid point")
    if n < 2:
        raise DegenerateGeometryError("dataset too small for density threshold")
    starts = grid.starts
    n_c = np.add.reduceat(n_p[grid.order], starts[:-1]) / np.diff(starts)
    log_n = math.log(n) / math.log(log_base)
    dt = fmean(n_c.tolist()) / log_n * coef_dt
    return dt, n_c
