"""Output checks made apart from the library.

Every check recomputes its expectation from the documented definitions
(README and module docstrings of adclust) or tests a property the method
must have. None compares against a stored copy of earlier output.

A check returns a Verdict; `passed` is False on any disagreement and
`detail` says what was compared.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.stats import chi2

from adclust.game import attacker_utility
from adclust.walls import Wall

# Region codes and labels as documented in the adclust README.
NORMAL_CORE, ABNORMAL, MIXED, UNKNOWN, OUTLIER = range(5)
LABEL_NORMAL, LABEL_ABNORMAL = 1, 0

# Points whose Mahalanobis distance lies this close (relative) to the
# wall radius are left out of the protected-set comparison: the library
# and numpy solve the same system by different factorizations, and a
# ridged covariance (condition number near 1e9) amplifies the rounding.
WALL_BAND = 1e-6
# Relative tolerance of the `thresholds_close` check: a few ulps, the
# most that summing eight squared differences in another order can move
# a distance.
CLOSE_RTOL = 8 * np.finfo(np.float64).eps
# Documented ridge policy of region statistics (adclust.walls.RegionStats).
RIDGE_SCALE, ABS_RIDGE = 1e-9, 1e-12


@dataclass
class Verdict:
    name: str
    passed: bool
    detail: str


# --- clustering -------------------------------------------------------


def documented_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between every row of a and every row of b: square root
    of the squared differences summed in dimension order."""
    total = np.zeros((a.shape[0], b.shape[0]))
    for j in range(a.shape[1]):
        d = a[:, None, j] - b[None, :, j]
        total = total + d * d
    return np.sqrt(total)


def grid_keys(points: np.ndarray, target_fraction: float) -> np.ndarray:
    """Cell key of every point: m = floor(1 / target_fraction) uniform
    sections per dimension (at most N), closed upper edge, zero-width
    dimensions in section 0."""
    n, q = points.shape
    m = min(max(1, math.floor(1.0 / target_fraction)), n)
    lo = points.min(axis=0)
    width = (points.max(axis=0) - lo) / m
    keys = np.zeros((n, q), dtype=np.int64)
    live = width > 0
    keys[:, live] = np.clip(np.floor((points[:, live] - lo[live]) / width[live]),
                            0, m - 1)
    return keys


@dataclass
class Neighbourhoods:
    """Occupied cells, their members, and for each cell the occupied
    cells within Chebyshev distance 1 (itself included)."""

    cells: np.ndarray
    members: list[np.ndarray]
    neighbours: list[np.ndarray]


def neighbourhoods(keys: np.ndarray) -> Neighbourhoods:
    cells, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    order = np.argsort(inverse, kind="stable")
    bounds = np.cumsum(np.bincount(inverse, minlength=len(cells)))[:-1]
    members = np.split(order, bounds)
    neighbours = [np.flatnonzero((np.abs(cells - c) <= 1).all(axis=1))
                  for c in cells]
    return Neighbourhoods(cells, members, neighbours)


@dataclass
class Thresholds:
    rt: float
    dt: float
    a_p: np.ndarray
    n_p: np.ndarray


def recompute_thresholds(points: np.ndarray, coef_rt: float, coef_dt: float,
                         target_fraction: float, log_base: float) -> Thresholds:
    """rt, dt, a(p) and n(p) from the documented definitions, with
    math.fsum means over occupied-cell Chebyshev neighbourhoods."""
    n, q = points.shape
    hood = neighbourhoods(grid_keys(points, target_fraction))
    a_p = np.full(n, np.nan)
    n_p = np.zeros(n, dtype=np.int64)
    d_c = []
    blocks = []
    for c, mem in enumerate(hood.members):
        nb = np.concatenate([hood.members[j] for j in hood.neighbours[c]])
        dist = documented_distances(points[mem], points[nb])
        others = nb[None, :] != mem[:, None]
        blocks.append((mem, dist))
        vals = []
        for row, p in enumerate(mem.tolist()):
            d = dist[row][others[row]]
            if d.size:
                a_p[p] = math.fsum(d.tolist()) / d.size
                vals.append(a_p[p])
        if vals:
            d_c.append(math.fsum(vals) / len(vals))
    rt = math.fsum(d_c) / len(d_c) / (q * coef_rt)
    for mem, dist in blocks:
        n_p[mem] = (dist <= rt).sum(axis=1)
    n_c = [math.fsum(n_p[mem].tolist()) / mem.size for mem in hood.members]
    log_n = math.log(n) / math.log(log_base)
    dt = math.fsum(n_c) / len(n_c) / log_n * coef_dt
    return Thresholds(rt=rt, dt=dt, a_p=a_p, n_p=n_p)


@dataclass
class RtGraph:
    rows: np.ndarray
    cols: np.ndarray
    ties: int


def rt_graph(points: np.ndarray, rt: float, block: int = 256) -> RtGraph:
    """Every pair i < j with documented distance <= rt, built blockwise;
    ties counts the pairs at distance exactly rt."""
    n = points.shape[0]
    rows, cols = [], []
    ties = 0
    for start in range(0, n, block):
        stop = min(n, start + block)
        dist = documented_distances(points[start:stop], points[start:])
        upper = np.arange(start, n)[None, :] > np.arange(start, stop)[:, None]
        i, j = np.nonzero((dist <= rt) & upper)
        rows.append(i + start)
        cols.append(j + start)
        ties += int(((dist == rt) & upper).sum())
    return RtGraph(np.concatenate(rows), np.concatenate(cols), ties)


def seeded_components(n: int, graph: RtGraph, stat: np.ndarray,
                      dt: float) -> list[np.ndarray]:
    """Connected components of the closed-ball graph holding a point
    with stat >= dt, ordered by smallest member."""
    adj = sparse.coo_matrix((np.ones(graph.rows.size), (graph.rows, graph.cols)),
                            shape=(n, n)).tocsr()
    _, label = csgraph.connected_components(adj, directed=False)
    seeded = np.unique(label[stat >= dt])
    comps = [np.flatnonzero(label == s) for s in seeded]
    return sorted(comps, key=lambda c: int(c[0]))


def check_thresholds(result, expected: Thresholds) -> Verdict:
    got_np = np.asarray(result.profile.density_point)
    got_ap = np.asarray(result.profile.avg_dist_point)
    same_ap = np.array_equal(got_ap, expected.a_p, equal_nan=True)
    ok = (result.thresholds.rt == expected.rt and result.thresholds.dt == expected.dt
          and np.array_equal(got_np, expected.n_p) and same_ap)
    return Verdict("thresholds", ok,
                   f"rt {result.thresholds.rt!r} vs {expected.rt!r}, "
                   f"dt {result.thresholds.dt!r} vs {expected.dt!r}, "
                   f"n(p) equal {np.array_equal(got_np, expected.n_p)}, "
                   f"a(p) equal {same_ap}")


def check_thresholds_close(result, expected: Thresholds) -> Verdict:
    """rt and a(p) within CLOSE_RTOL of the recomputation, dt and n(p)
    exactly equal: holds where `thresholds` fails only because distances
    were summed in another order."""
    got_np = np.asarray(result.profile.density_point)
    got_ap = np.asarray(result.profile.avg_dist_point)
    rt_rel = abs(result.thresholds.rt - expected.rt) / expected.rt
    ap_nan = np.isnan(expected.a_p)
    same_nan = np.array_equal(np.isnan(got_ap), ap_nan)
    ap_rel = float(np.max(np.abs(got_ap[~ap_nan] - expected.a_p[~ap_nan])
                          / expected.a_p[~ap_nan], initial=0.0)) if same_nan else math.inf
    ok = (rt_rel <= CLOSE_RTOL and ap_rel <= CLOSE_RTOL
          and result.thresholds.dt == expected.dt
          and np.array_equal(got_np, expected.n_p))
    return Verdict("thresholds_close", ok,
                   f"relative error rt {rt_rel:.3g}, a(p) max {ap_rel:.3g} "
                   f"(tolerance {CLOSE_RTOL:.3g}), dt equal "
                   f"{result.thresholds.dt == expected.dt}, n(p) equal "
                   f"{np.array_equal(got_np, expected.n_p)}")


def check_global_clusters(result, graph: RtGraph, expected_np: np.ndarray,
                          dt: float) -> Verdict:
    n = result.composition.region.shape[0]
    want = seeded_components(n, graph, expected_np, dt)
    got = result.composition.clusters
    same = len(got) == len(want) and all(
        np.array_equal(g, w) for g, w in zip(got, want))
    return Verdict("pass3_clusters", same,
                   f"{len(got)} clusters vs {len(want)} from the closed rt graph "
                   f"({graph.rows.size} edges, {graph.ties} at exactly rt)")


def check_partition(result) -> Verdict:
    """Every point has one of the five tags; outlier exactly when outside
    every pass-3 cluster; normal_core / abnormal_region exactly on the
    members of the labelled sub-clusters of that class."""
    comp = result.composition
    region = np.asarray(comp.region).astype(np.int64)
    n = region.shape[0]
    valid = bool(((region >= 0) & (region <= OUTLIER)).all())
    in_cluster = np.zeros(n, dtype=bool)
    for members in comp.clusters:
        in_cluster[members] = True
    outliers_ok = np.array_equal(region == OUTLIER, ~in_cluster)
    labelled = {"normal": NORMAL_CORE, "abnormal": ABNORMAL}
    want = np.full(n, -1)
    for sc in comp.sub_clusters:
        if sc.class_tag in labelled:
            want[sc.members] = labelled[sc.class_tag]
    got = np.where((region == NORMAL_CORE) | (region == ABNORMAL), region, -1)
    labelled_ok = np.array_equal(got, want)
    counts = np.bincount(region, minlength=5).tolist() if valid else "invalid"
    return Verdict("region_partition", valid and outliers_ok and labelled_ok,
                   f"{n} points, counts {counts}, outlier iff outside every "
                   f"cluster {outliers_ok}, labelled tags iff labelled "
                   f"sub-cluster {labelled_ok}")


def check_anchors(labels: np.ndarray, result) -> Verdict:
    wanted = {"normal": LABEL_NORMAL, "abnormal": LABEL_ABNORMAL}
    subs = [sc for sc in result.composition.sub_clusters if sc.class_tag in wanted]
    bad = [i for i, sc in enumerate(subs)
           if not (labels[sc.members] == wanted[sc.class_tag]).any()]
    return Verdict("labelled_anchor", not bad,
                   f"{len(subs)} labelled sub-clusters, {len(bad)} without a "
                   f"labelled point of their class")


def check_protected(points: np.ndarray, params, result) -> Verdict:
    """protected == normal_core inside any ellipsoid fitted (numpy mean,
    covariance with the documented ridge, solve) to a normal sub-cluster
    of at least max(2, min_wall_size) members, radius the chi-square
    quantile."""
    comp = result.composition
    q = points.shape[1]
    if params.wall_kind != "euclidean":
        return Verdict("protected", False, "only Euclidean walls are checked")
    radius = float(chi2.ppf(params.alpha, q))
    min_size = max(2, params.min_wall_size)
    inside = np.zeros(points.shape[0], dtype=bool)
    band = np.zeros(points.shape[0], dtype=bool)
    walls = 0
    for sc in comp.sub_clusters:
        if sc.class_tag != "normal" or sc.members.size < min_size:
            continue
        walls += 1
        region_pts = points[sc.members]
        mean = region_pts.mean(axis=0)
        cov = np.cov(region_pts, rowvar=False, ddof=1).reshape(q, q)
        trace = float(np.trace(cov))
        ridge = RIDGE_SCALE * trace / q if trace > 0 else ABS_RIDGE
        if np.linalg.eigvalsh(cov).min() < ridge:
            cov = cov + ridge * np.eye(q)
        diffs = points - mean
        md2 = (diffs * np.linalg.solve(cov, diffs.T).T).sum(axis=1)
        inside |= md2 <= radius
        band |= np.abs(md2 - radius) <= WALL_BAND * radius
    want = inside & (np.asarray(comp.region) == NORMAL_CORE)
    got = np.asarray(result.protected)
    agree = np.array_equal(got[~band], want[~band])
    ok = agree and walls == len(result.walls)
    return Verdict("protected", ok,
                   f"{int(got.sum())} protected vs {int(want.sum())} recomputed, "
                   f"{walls} walls vs {len(result.walls)}, "
                   f"{int(band.sum())} points on a wall boundary left out")


def clustering_checks(dataset, params, result) -> list[Verdict]:
    points = dataset.points
    expected = recompute_thresholds(points, params.coef_rt, params.coef_dt,
                                    params.target_fraction, params.log_base)
    graph = rt_graph(points, expected.rt)
    return [check_thresholds(result, expected),
            check_thresholds_close(result, expected),
            check_global_clusters(result, graph, expected.n_p, expected.dt),
            check_partition(result),
            check_anchors(dataset.labels, result),
            check_protected(points, params, result)]


# --- game ---------------------------------------------------------------


def draw_population(spec) -> np.ndarray:
    """One Monte-Carlo draw as documented: N(mean, cov) via Cholesky from
    default_rng(spec.seed)."""
    rng = np.random.default_rng(spec.seed)
    mean = np.asarray(spec.mean, dtype=np.float64)
    ell = np.linalg.cholesky(np.asarray(spec.cov, dtype=np.float64))
    return mean + rng.standard_normal((spec.sample_size, mean.size)) @ ell.T


def sampled_cells(tables, count: int, seed) -> list[tuple[int, int, int]]:
    rng = np.random.default_rng(seed)
    m = len(tables.attacker)
    return [(k % m, int(rng.integers(len(tables.ts))),
             int(rng.integers(len(tables.alphas)))) for k in range(count)]


def check_tables(config, tables, samples, cells) -> Verdict:
    """Sampled attacker-table cells equal a direct attacker_utility
    evaluation on a fresh draw, bit for bit."""
    bad = 0
    for i, it, ih in cells:
        wall = Wall(kind=config.wall_kind, stats=tables.stats,
                    level=float(tables.alphas[ih]), radius=float(tables.radii[ih]))
        direct = attacker_utility(config.utilities[i], samples[i], tables.mu_g,
                                  float(tables.ts[it]), wall)
        bad += direct != tables.attacker[i][it, ih]
    return Verdict("table_cells", bad == 0,
                   f"{len(cells)} sampled cells, {bad} differ from direct evaluation")


def _pooled(sizes, rows):
    total = 0
    for w, r in zip(sizes, rows):
        total = total + w * r
    return total / sum(sizes)


def search_leader(config, tables) -> tuple[int, tuple[int, ...]]:
    """Each attacker's best t per alpha (first maximum, so smallest t),
    then the defender's best alpha (first maximum, so smallest alpha)."""
    m = len(tables.attacker)
    sizes = [float(s.sample_size) for s in config.adversaries]
    best_t = [np.argmax(tab, axis=0) for tab in tables.attacker]
    cols = np.arange(len(tables.alphas))
    pooled = _pooled(sizes, [tables.adv_error[i][best_t[i], cols] for i in range(m)])
    d = -100.0 * (tables.normal_error + config.cost_c * pooled)
    ih = int(np.argmax(d))
    return ih, tuple(int(best_t[i][ih]) for i in range(m))


def joint_lattice(config, n_t: int, ts) -> list[int]:
    if len(config.adversaries) == 1:
        stride = 1
    else:
        stride = round(config.joint_t_step / config.t_step)
    idx = list(range(0, n_t, stride))
    if ts[idx[-1]] != 1.0:
        idx.append(n_t - 1)
    return idx


def search_follower(config, tables) -> tuple[int, tuple[int, ...]]:
    """For every joint profile the defender's first-maximum alpha; the
    profile with the largest exact sum of attacker utilities wins, ties
    to smaller total t, then smaller alpha, then smaller indices."""
    m = len(tables.attacker)
    sizes = [float(s.sample_size) for s in config.adversaries]
    idx = joint_lattice(config, len(tables.ts), tables.ts)
    combos = np.array(list(itertools.product(idx, repeat=m)), dtype=np.int64)
    pooled = _pooled(sizes, [tables.adv_error[i][combos[:, i]] for i in range(m)])
    d = -100.0 * (tables.normal_error[None, :] + config.cost_c * pooled)
    best_ih = np.argmax(d, axis=1)
    best = None
    for combo, ih in zip(combos.tolist(), best_ih.tolist()):
        score = math.fsum(float(tables.attacker[i][combo[i], ih]) for i in range(m))
        sum_t = math.fsum(float(tables.ts[j]) for j in combo)
        key = (score, -sum_t, -ih, [-j for j in combo])
        if best is None or key > best[0]:
            best = (key, ih, tuple(combo))
    return best[1], best[2]


def check_equilibrium(config, eq, tables) -> Verdict:
    search = search_leader if eq.orientation == "leader" else search_follower
    ih, t_idx = search(config, tables)
    m = len(t_idx)
    want = dict(
        alpha_index=ih, t_indices=t_idx, alpha=float(tables.alphas[ih]),
        radius=float(tables.radii[ih]),
        t=tuple(float(tables.ts[j]) for j in t_idx),
        attacker_utilities=tuple(float(tables.attacker[i][t_idx[i], ih])
                                 for i in range(m)))
    pooled = _pooled([float(s.sample_size) for s in config.adversaries],
                     [tables.adv_error[i][t_idx[i], ih] for i in range(m)])
    want["defender_utility"] = float(
        -100.0 * (tables.normal_error[ih] + config.cost_c * pooled))
    wrong = [k for k, v in want.items() if getattr(eq, k) != v]
    return Verdict("equilibrium", not wrong,
                   f"{eq.orientation} alpha index {eq.alpha_index} vs {ih}, "
                   f"t {eq.t_indices} vs {t_idx}"
                   + (f", differing fields {wrong}" if wrong else ""))


# --- sweep ----------------------------------------------------------------


def _read_aggregate(out_dir: str) -> list[dict]:
    with open(os.path.join(out_dir, "aggregate.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def _report_name(row: dict) -> str:
    return (f"report_k{float(row['k']):g}_a{float(row['alpha']):g}"
            f"_r{int(row['run'])}.json")


def _cell(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def check_aggregate(out_dir: str) -> Verdict:
    """Each aggregate.csv row matches its report.json: region counts
    recounted from the per-point rows, wall count from the walls, the
    abnormal share of mixed points from the truth column, and the
    remaining fields from the report's own metrics."""
    rows = _read_aggregate(out_dir)
    bad = []
    for row in rows:
        with open(os.path.join(out_dir, _report_name(row))) as fh:
            rep = json.load(fh)
        cols = rep["points"]["columns"]
        pts = rep["points"]["rows"]
        region = np.array([r[cols.index("region")] for r in pts])
        truth = [r[cols.index("truth")] for r in pts]
        mixed = [t for reg, t in zip(region.tolist(), truth)
                 if reg == MIXED and t is not None and t != -1]
        frac = (sum(t == 0 for t in mixed) / len(mixed)) if mixed else None
        counts = np.bincount(region, minlength=5)
        want = {
            "k": _cell(rep["command"]["k"]), "alpha": _cell(rep["command"]["alpha"]),
            "seed": _cell(rep["params"]["seed"]), "run": _cell(rep["command"]["run"]),
            "mixed_count": _cell(int(counts[MIXED])),
            "outlier_count": _cell(int(counts[OUTLIER])),
            "mixed_plus_outliers": _cell(int(counts[MIXED] + counts[OUTLIER])),
            "abnormal_fraction_mixed": _cell(frac),
            "wall_purity": _cell(rep["metrics"]["wall_purity"]),
            "wall_count": _cell(len(rep["walls"])),
        }
        if any(row[k] != v for k, v in want.items()):
            bad.append(_report_name(row))
    return Verdict("aggregate_vs_reports", bool(rows) and not bad,
                   f"{len(rows)} rows, {len(bad)} disagree with their report")


def check_weight_trend(out_dir: str) -> Verdict:
    """Criterion 05: mixed + outliers shrink as k grows, with at most one
    rise of at most 2% of N."""
    rows = sorted(_read_aggregate(out_dir), key=lambda r: float(r["k"]))
    counts = [int(r["mixed_plus_outliers"]) for r in rows]
    with open(os.path.join(out_dir, _report_name(rows[0]))) as fh:
        n = len(json.load(fh)["points"]["rows"])
    rises = [b - a for a, b in zip(counts, counts[1:]) if b > a]
    ok = len(rises) <= 1 and all(r <= 0.02 * n for r in rises)
    return Verdict("weight_trend", ok,
                   f"mixed+outliers by k {counts}, rises {rises}, slack {0.02 * n:g}")
