"""Shared independent oracles for the test suite.

Everything here recomputes results from first principles (pure-Python
loops, fsum means, series expansions) so the library can be checked
against implementations that share no code with it.
"""
from __future__ import annotations

import math

import numpy as np


def oracle_grid_cells(points: np.ndarray, target_fraction: float = 0.075):
    """Cell key per point: uniform sections, closed upper edge."""
    n, q = points.shape
    m = min(max(1, math.floor(1.0 / target_fraction)), n)
    mins = [min(points[:, j]) for j in range(q)]
    maxs = [max(points[:, j]) for j in range(q)]
    keys = []
    for i in range(n):
        key = []
        for j in range(q):
            width = (maxs[j] - mins[j]) / m
            if width == 0.0:
                key.append(0)
                continue
            idx = math.floor((points[i, j] - mins[j]) / width)
            key.append(min(max(idx, 0), m - 1))
        keys.append(tuple(key))
    return keys, m


def oracle_distance(a, b) -> float:
    # squared differences summed in dimension order, the library's
    # documented distance convention
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) * (x - y)
    return math.sqrt(total)


def oracle_thresholds(points: np.ndarray, coef_rt: float, coef_dt: float,
                      target_fraction: float = 0.075,
                      log_base: float = math.e):
    """Brute-force rt, dt, and n(p) under the neighborhood semantics.

    Returns (rt, a_p, d_c, n_p, dt, n_c); a_p is NaN for points alone in
    their 3^q cell neighborhood. Raises ValueError when no cell has a
    defined average distance.
    """
    n, q = points.shape
    keys, m = oracle_grid_cells(points, target_fraction)
    points = points.tolist()  # Python floats: the same IEEE arithmetic
    cells: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        cells.setdefault(key, []).append(i)

    def neighborhood(key):
        ids = []
        for other, members in cells.items():
            if all(abs(a - b) <= 1 for a, b in zip(key, other)):
                ids.extend(members)
        return ids

    a_p = [math.nan] * n
    d_c: dict[tuple, float] = {}
    for key in sorted(cells):
        vals = []
        nb = neighborhood(key)
        # coincident points of one cell see one multiset of distances
        # (dropping p drops one zero), so they share a(p) and n(p)
        same: dict[tuple, int] = {}
        for p in cells[key]:
            twin = same.setdefault(tuple(points[p]), p)
            if twin != p:
                a_p[p] = a_p[twin]
            else:
                dists = [oracle_distance(points[p], points[o])
                         for o in nb if o != p]
                if dists:
                    a_p[p] = math.fsum(dists) / len(dists)
            if not math.isnan(a_p[p]):
                vals.append(a_p[p])
        if vals:
            d_c[key] = math.fsum(vals) / len(vals)
    if not d_c:
        raise ValueError("no cell has a defined average distance")
    rt = (math.fsum(d_c.values()) / len(d_c)) / (q * coef_rt)

    n_p = [0] * n
    for key in sorted(cells):
        nb = neighborhood(key)
        same = {}
        for p in cells[key]:
            twin = same.setdefault(tuple(points[p]), p)
            n_p[p] = n_p[twin] if twin != p else sum(
                1 for o in nb if oracle_distance(points[p], points[o]) <= rt)

    n_c: dict[tuple, float] = {}
    for key in sorted(cells):
        n_c[key] = math.fsum(n_p[i] for i in cells[key]) / len(cells[key])
    log_n = math.log(n) / math.log(log_base)
    dt = (math.fsum(n_c.values()) / len(n_c)) / log_n * coef_dt
    return rt, np.array(a_p), d_c, np.array(n_p, dtype=np.int64), dt, n_c


def oracle_merge(points: np.ndarray, point_ids, stat, dt: float, rt: float):
    """Transitive-closure clustering oracle.

    Connect participants at distance <= rt, take connected components,
    keep the components holding at least one point with stat >= dt.
    Returns (clusters, unassigned) in the library's canonical order.
    """
    ids = sorted(int(i) for i in point_ids)
    stat_of = {int(i): float(s) for i, s in zip(point_ids, stat)}
    adj = {i: [] for i in ids}
    for a_pos, a in enumerate(ids):
        for b in ids[a_pos + 1:]:
            if oracle_distance(points[a], points[b]) <= rt:
                adj[a].append(b)
                adj[b].append(a)
    seen = set()
    clusters = []
    unassigned = []
    for start in ids:
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            cur = stack.pop()
            comp.append(cur)
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        comp.sort()
        if any(stat_of[i] >= dt for i in comp):
            clusters.append(np.array(comp, dtype=np.int64))
        else:
            unassigned.extend(comp)
    clusters.sort(key=lambda c: int(c[0]))
    return clusters, np.array(sorted(unassigned), dtype=np.int64)


def _gammp(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x): series for x < s + 1,
    Lentz continued fraction for the complement otherwise."""
    if x < 0 or s <= 0:
        raise ValueError("bad arguments")
    if x == 0.0:
        return 0.0
    lg = math.lgamma(s)
    if x < s + 1.0:
        term = 1.0 / s
        total = term
        a = s
        for _ in range(500):
            a += 1.0
            term *= x / a
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        return total * math.exp(-x + s * math.log(x) - lg)
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    q = math.exp(-x + s * math.log(x) - lg) * h
    return 1.0 - q


def oracle_chi2_quantile(dof: int, alpha: float,
                         tol: float = 1e-12) -> float:
    """Invert the chi-square CDF by bisection on the gamma series."""
    s = dof / 2.0
    lo, hi = 0.0, 1.0
    while _gammp(s, hi / 2.0) < alpha:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _gammp(s, mid / 2.0) < alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * max(1.0, hi):
            break
    return 0.5 * (lo + hi)
