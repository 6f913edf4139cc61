"""Grid sectioning and the two clustering thresholds.

The grid cuts each dimension into m uniform sections between the data
min and max (closed upper edge, so the max lands in the last section).
Neighborhood means are exact multiset means: every mean here is
math.fsum(values) / len(values), which makes rt and dt bit-identical
under any permutation of the points and lets an independent oracle
reproduce them exactly.

A cell's 3^q neighborhood is the set of occupied cells within Chebyshev
distance 1 of it, itself included. Only occupied cells are ever
visited, so the cost scales with occupied-cell pairs, not with 3^q.

Distance convention: Euclidean, sqrt of the squared differences summed
in dimension order, float64 throughout (_sq_distances). rt_pairs is the
one closed rt-pair kernel (a pair at exactly rt connects). adclust()
builds this graph once per call; density, pass-1 conflicts and every
merge read it, a merge using the edges with both ends among its
participants. Overflowing distances raise ValidationError (CLI exit 2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateGeometryError, ValidationError

CellKey = tuple[int, ...]
# Index arrays (i, j) of the closed rt graph, as rt_pairs returns them.
Pairs = tuple[np.ndarray, np.ndarray]

# Largest q * rows * neighborhood count of coordinate differences
# compute_rt takes in one distance block, so its memory stays bounded.
_BLOCK_ELEMENTS = 1 << 15


@dataclass
class Grid:
    """Section assignment of a point set.

    sections: m, the section count per dimension (same for every
    dimension). Dimensions with zero width collapse to section 0 and are
    flagged degenerate; they never restrict a neighborhood.
    """

    sections: int
    mins: np.ndarray
    widths: np.ndarray
    cell_of_point: np.ndarray
    cells: dict[CellKey, np.ndarray]
    degenerate_dims: np.ndarray

    @property
    def min_cell_side(self) -> float:
        """Smallest nonzero cell side; inf if every dimension is degenerate."""
        live = self.widths[~self.degenerate_dims]
        return float(live.min()) if live.size else math.inf


@dataclass
class Thresholds:
    rt: float
    dt: float
    coef_rt: float
    coef_dt: float

    def __post_init__(self) -> None:
        if self.coef_rt <= 0 or self.coef_dt <= 0:
            raise ValidationError("threshold coefficients must be positive")
        if self.rt < 0 or self.dt < 0:
            raise ValidationError("thresholds must be nonnegative")


@dataclass
class DensityProfile:
    """Per-point and per-cell averages backing the thresholds.

    avg_dist_point is a(p), the mean distance from p to the other points
    of its 3^q cell neighborhood (NaN when the neighborhood holds only
    p). density_point is n(p), the count of neighborhood points within
    rt of p, self included.
    """

    avg_dist_point: np.ndarray
    avg_dist_cell: dict[CellKey, float]
    density_point: np.ndarray
    density_cell: dict[CellKey, float]


def _fmean(values) -> float:
    vals = list(values)
    return math.fsum(vals) / len(vals)


def _sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared differences summed in dimension order; a and b hold one
    coordinate per row and broadcast along their remaining axes."""
    total = np.zeros(np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    for x, y in zip(a, b):
        sq = x - y
        sq *= sq
        total += sq
    return total


def _check_extent(points: np.ndarray) -> None:
    """No pair's squared distance exceeds the bounding box diagonal's, so
    a finite diagonal rules out overflow everywhere."""
    lo, hi = points.min(axis=0), points.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal = _sq_distances(hi[:, None], lo[:, None])
    if not np.isfinite(diagonal).all():
        raise ValidationError("coordinate ranges too large: squared "
                              "distances overflow")


def build_grid(points: np.ndarray, target_fraction: float = 0.075) -> Grid:
    """Assign points to uniform grid cells.

    The section count per dimension is floor(1 / target_fraction),
    clamped to [1, N], so each section spans roughly a target_fraction
    slice of the data range.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
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
    cells: dict[CellKey, list[int]] = {}
    for i, key in enumerate(map(tuple, idx.tolist())):
        cells.setdefault(key, []).append(i)
    packed = {k: np.array(v, dtype=np.int64) for k, v in cells.items()}
    return Grid(sections=m, mins=mins, widths=widths, cell_of_point=idx,
                cells=packed, degenerate_dims=degenerate)


def _neighborhoods(grid: Grid) -> tuple[list[CellKey], list[np.ndarray]]:
    """Sorted occupied keys and, per key, the ids of the points in the
    occupied cells within Chebyshev distance 1 of it, its own included.

    Only occupied cells are visited: a KD-tree over the integer keys
    finds every cell pair at Chebyshev distance <= 1, which is exact on
    integers. Each neighborhood lists its cells in sorted key order.
    """
    keys = sorted(grid.cells)
    tree = cKDTree(np.array(keys, dtype=np.float64))
    near = [[c] for c in range(len(keys))]
    for i, j in tree.query_pairs(1.0, p=np.inf):
        near[i].append(j)
        near[j].append(i)
    members = [grid.cells[k] for k in keys]
    hoods = [np.concatenate([members[j] for j in sorted(nb)]) for nb in near]
    return keys, hoods


def compute_rt(grid: Grid, points: np.ndarray,
               coef_rt: float = 20.0) -> tuple[float, np.ndarray, dict[CellKey, float]]:
    """Distance threshold rt = mean(d(c)) / (q * coef_rt).

    a(p) averages distances from p to its neighborhood, excluding p;
    d(c) averages a(p) over the cell's points with a defined a(p); cells
    where no point has one contribute nothing. All points isolated in
    their neighborhoods is an error, raised before any distance work.
    """
    if coef_rt <= 0:
        raise ValidationError("coef_rt must be positive")
    n, q = points.shape
    keys, hoods = _neighborhoods(grid)
    live = [(key, nb) for key, nb in zip(keys, hoods) if nb.size > 1]
    if not live:
        raise DegenerateGeometryError("degenerate density geometry")
    cols = np.ascontiguousarray(points.T)
    a_p = np.full(n, np.nan)
    d_c: dict[CellKey, float] = {}
    for key, nb in live:
        members = grid.cells[key]
        block = cols[:, None, nb]
        step = max(1, _BLOCK_ELEMENTS // (q * nb.size))
        a_vals = []
        for lo in range(0, members.size, step):
            rows = members[lo:lo + step]
            dists = np.sqrt(_sq_distances(cols[:, rows, None], block))
            for p, dist in zip(rows.tolist(), dists):
                a_p[p] = _fmean(dist[nb != p].tolist())
                a_vals.append(a_p[p])
        d_c[key] = _fmean(a_vals)
    rt = _fmean(d_c.values()) / (q * coef_rt)
    return rt, a_p, d_c


def rt_pairs(points: np.ndarray, rt: float) -> Pairs:
    """Index arrays of every pair i < j at distance <= rt.

    KD-tree candidates within rt plus a few ulps per dimension (its own
    summation order may round differently) are rechecked with the
    documented distance, so a pair at exactly rt is kept.
    """
    if rt < 0:
        raise ValidationError("rt must be nonnegative")
    n, q = points.shape
    if n < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    _check_extent(points)
    reach = rt * (1.0 + 4 * (q + 2) * np.finfo(np.float64).eps)
    cand = cKDTree(points).query_pairs(reach, output_type="ndarray")
    i, j = cand[:, 0], cand[:, 1]
    cols = np.ascontiguousarray(points.T)
    keep = np.sqrt(_sq_distances(cols[:, i], cols[:, j])) <= rt
    return i[keep], j[keep]


def compute_density(grid: Grid, points: np.ndarray, rt: float,
                    exact: bool = False, pairs: Pairs | None = None) -> np.ndarray:
    """Point density n(p): neighborhood points within rt of p, p included.

    Counts p's partners in pairs (default rt_pairs(points, rt)) in cells
    within Chebyshev distance 1 of its own. The neighborhood restriction
    undercounts when rt exceeds the cell side; exact=True counts every
    partner instead (validation fallback).
    """
    i, j = rt_pairs(points, rt) if pairs is None else pairs
    if not exact:
        cells = grid.cell_of_point
        near = (np.abs(cells[i] - cells[j]) <= 1).all(axis=1)
        i, j = i[near], j[near]
    n = points.shape[0]
    return 1 + np.bincount(i, minlength=n) + np.bincount(j, minlength=n)


def compute_dt(grid: Grid, n_p: np.ndarray, coef_dt: float = 0.95,
               log_base: float = math.e) -> tuple[float, dict[CellKey, float]]:
    """Density threshold dt = mean(n(c)) / log(N) * coef_dt.

    n(c) is the mean n(p) over the cell's points; the outer mean runs
    over occupied cells. log is natural by default; log_base switches it
    (the pseudocode variant uses base 10).
    """
    if coef_dt <= 0:
        raise ValidationError("coef_dt must be positive")
    if log_base <= 1.0:
        raise ValidationError("log_base must exceed 1")
    n = int(n_p.shape[0])
    if n < 2:
        raise DegenerateGeometryError("dataset too small for density threshold")
    n_c: dict[CellKey, float] = {}
    for key in sorted(grid.cells):
        members = grid.cells[key]
        n_c[key] = _fmean(n_p[members].tolist())
    log_n = math.log(n) / math.log(log_base)
    dt = _fmean(n_c.values()) / log_n * coef_dt
    return dt, n_c
