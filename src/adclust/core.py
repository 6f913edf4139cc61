"""Three-pass density clustering with labeled sub-clusters and walls.

Merge semantics: over a participating point set, connect every pair
within rt (closed: a pair at exactly rt connects) and take connected
components; a component becomes a cluster when it contains at least one
point whose centroid statistic reaches dt, otherwise its points stay
unassigned. This equals running seeded attach-and-merge to a fixpoint,
and a brute-force transitive closure is the reference oracle for it.
adclust() builds the closed rt graph once per call (grid.rt_pairs);
density n(p), the pass-1 conflicts and all four merges read it, a merge
using the edges with both ends among its participants. Inputs whose
squared distances overflow raise ValidationError (CLI exit 2).

Pass 1 runs two sign-separated merges over the kernel-weighted density
rho(p) = n(p) * w(p): the normal merge over {rho > 0} seeded by
rho >= dt, the abnormal merge over {rho < 0} seeded by -rho >= dt.
A labeled sub-cluster is kept only when it contains a genuinely labeled
point of its class; score-only clumps dissolve back into the unlabeled
pool, which is what keeps a cluster with no labels anywhere tagged
unknown instead of inheriting extrapolated scores.

Pass 2 reruns the merge on the leftover points with the original n(p),
pass 3 on all points, both with the same rt and dt.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .dataset import LABEL_ABNORMAL, LABEL_NORMAL, Dataset
from .errors import ValidationError
from .grid import DensityProfile, Pairs, Thresholds, build_grid, \
    compute_density, compute_dt, compute_rt, rt_pairs
from .kernel import fit_kernel, pipeline_scores, weight
from .walls import Wall, fit_euclidean_wall, fit_manhattan_wall, fit_region_stats

REGION_NORMAL_CORE = 0
REGION_ABNORMAL = 1
REGION_MIXED = 2
REGION_UNKNOWN = 3
REGION_OUTLIER = 4
REGION_NAMES = ("normal_core", "abnormal_region", "mixed_overlap",
                "unknown_cluster", "outlier")


def merge(points: np.ndarray, point_ids: np.ndarray, stat: np.ndarray,
          dt: float, rt: float, pairs: Pairs | None = None
          ) -> tuple[list[np.ndarray], np.ndarray]:
    """Cluster the given ids; see the module docstring for semantics.

    stat aligns with point_ids; pairs is the rt graph over all of points,
    rt_pairs(points, rt) by default. Returns (clusters, unassigned),
    clusters ordered by smallest member id and members ascending.
    """
    # csgraph costs about 3 MB of peak RSS; only merges need it
    from scipy.sparse.csgraph import connected_components

    if rt <= 0:
        raise ValidationError("rt must be positive")
    point_ids = np.asarray(point_ids, dtype=np.int64)
    stat = np.asarray(stat, dtype=np.float64)
    if point_ids.size != stat.size:
        raise ValidationError("stat must align with point_ids")
    if point_ids.size == 0:
        return [], point_ids
    if np.unique(point_ids).size != point_ids.size:
        raise ValidationError("point_ids must be unique")
    n = points.shape[0]
    if point_ids.min() < 0 or point_ids.max() >= n:
        raise ValidationError("point_ids must lie in [0, N)")
    i, j = rt_pairs(points, rt) if pairs is None else pairs
    inside = np.zeros(n, dtype=bool)
    inside[point_ids] = True
    both = inside[i] & inside[j]
    graph = sparse.coo_matrix((np.ones(both.sum()), (i[both], j[both])), shape=(n, n))
    n_comp, comp = connected_components(graph, directed=False)
    order = np.argsort(point_ids)
    ids = point_ids[order]
    comp = comp[ids]
    seeded = np.zeros(n_comp, dtype=bool)
    seeded[comp[stat[order] >= dt]] = True
    kept = np.flatnonzero(seeded[comp])
    kept = kept[np.argsort(comp[kept], kind="stable")]
    bounds = np.flatnonzero(np.diff(comp[kept])) + 1
    clusters = np.split(ids[kept], bounds) if kept.size else []
    clusters.sort(key=lambda c: c[0])
    return clusters, ids[~seeded[comp]]


@dataclass
class SubCluster:
    members: np.ndarray
    class_tag: str  # normal | abnormal | unlabeled
    pass_origin: int


def pass1_labeled(points: np.ndarray, labels: np.ndarray, rho: np.ndarray,
                  dt: float, rt: float, pairs: Pairs
                  ) -> tuple[list[SubCluster], list[SubCluster],
                             np.ndarray, np.ndarray]:
    """Labeled sub-clusters, conflicted ids, and the leftover pool.

    Conflicted points (unassigned but within rt of both classes'
    sub-clusters) are reported for visibility; they stay in the leftover
    pool either way. Points with rho == 0 participate in neither merge.
    """
    n = points.shape[0]
    all_ids = np.arange(n, dtype=np.int64)
    pos = all_ids[rho > 0]
    neg = all_ids[rho < 0]
    norm_raw, _ = merge(points, pos, rho[pos], dt, rt, pairs)
    abn_raw, _ = merge(points, neg, -rho[neg], dt, rt, pairs)

    def anchored(groups: list[np.ndarray], wanted: int) -> list[np.ndarray]:
        return [g for g in groups if (labels[g] == wanted).any()]

    norm_groups = anchored(norm_raw, LABEL_NORMAL)
    abn_groups = anchored(abn_raw, LABEL_ABNORMAL)
    side = np.zeros(n, dtype=np.int64)  # 0 pool, 1 normal, 2 abnormal
    for tag, groups in ((1, norm_groups), (2, abn_groups)):
        for g in groups:
            side[g] = tag
    remaining = all_ids[side == 0]

    conflicted = np.empty(0, dtype=np.int64)
    if norm_groups and abn_groups and remaining.size:
        # near[s, p]: p has a point of side s within rt
        i, j = pairs
        near = np.zeros((3, n), dtype=bool)
        near[side[j], i] = True
        near[side[i], j] = True
        conflicted = remaining[near[1, remaining] & near[2, remaining]]

    normal_subs = [SubCluster(g, "normal", 1) for g in norm_groups]
    abnormal_subs = [SubCluster(g, "abnormal", 1) for g in abn_groups]
    return normal_subs, abnormal_subs, conflicted, remaining


def pass2_residual(points: np.ndarray, remaining: np.ndarray,
                   n_p: np.ndarray, dt: float, rt: float, pairs: Pairs
                   ) -> tuple[list[SubCluster], np.ndarray]:
    """Unlabeled sub-clusters over the leftover pool, original densities."""
    groups, unassigned = merge(points, remaining, n_p[remaining], dt, rt, pairs)
    return [SubCluster(g, "unlabeled", 2) for g in groups], unassigned


def pass3_global(points: np.ndarray, n_p: np.ndarray, dt: float, rt: float,
                 pairs: Pairs) -> tuple[list[np.ndarray], np.ndarray]:
    """Label-blind global clusters over all points."""
    all_ids = np.arange(points.shape[0], dtype=np.int64)
    return merge(points, all_ids, n_p, dt, rt, pairs)


@dataclass
class ClusterComposition:
    """Per-point region tags plus the structure behind them.

    region holds REGION_* codes; cluster_of_point is the pass-3 cluster
    id or -1; sub_cluster_of holds the index into sub_clusters or -1;
    sub_to_cluster maps each kept sub-cluster to its pass-3 cluster.
    """

    region: np.ndarray
    cluster_of_point: np.ndarray
    clusters: list[np.ndarray]
    sub_clusters: list[SubCluster]
    sub_to_cluster: list[int]
    sub_cluster_of: np.ndarray
    conflicted: np.ndarray

    def region_counts(self) -> dict[str, int]:
        return {name: int((self.region == code).sum())
                for code, name in enumerate(REGION_NAMES)}


def match(n: int, normal_subs: list[SubCluster], abnormal_subs: list[SubCluster],
          unlabeled_subs: list[SubCluster], clusters: list[np.ndarray],
          conflicted: np.ndarray) -> ClusterComposition:
    """Assign sub-clusters to pass-3 clusters and tag every point.

    A sub-cluster lands in the cluster holding the plurality of its
    members (ties: larger cluster, then lower id); one with no member in
    any cluster is dropped. Within a cluster that holds at least one
    labeled sub-cluster, non-sub points are mixed overlap; a cluster
    with no labeled sub-cluster at all is an unknown cluster and its
    unlabeled-sub points are tagged so. Points outside every cluster are
    outliers.
    """
    cluster_of_point = np.full(n, -1, dtype=np.int64)
    for cid, members in enumerate(clusters):
        cluster_of_point[members] = cid
    sizes = np.array([len(c) for c in clusters], dtype=np.int64)

    subs = normal_subs + abnormal_subs + unlabeled_subs
    kept: list[SubCluster] = []
    kept_cluster: list[int] = []
    for sc in subs:
        hit = cluster_of_point[sc.members]
        hit = hit[hit >= 0]
        if hit.size == 0:
            continue
        counts = np.bincount(hit, minlength=len(clusters))
        best = np.flatnonzero(counts == counts.max())
        target = int(best[sizes[best] == sizes[best].max()].min())
        kept.append(sc)
        kept_cluster.append(target)

    labeled_cluster = np.zeros(len(clusters), dtype=bool)
    for sc, cid in zip(kept, kept_cluster):
        if sc.class_tag != "unlabeled":
            labeled_cluster[cid] = True

    region = np.full(n, REGION_OUTLIER, dtype=np.int8)
    region[cluster_of_point >= 0] = REGION_MIXED
    sub_cluster_of = np.full(n, -1, dtype=np.int64)
    for idx, (sc, cid) in enumerate(zip(kept, kept_cluster)):
        sub_cluster_of[sc.members] = idx
        if sc.class_tag == "normal":
            region[sc.members] = REGION_NORMAL_CORE
        elif sc.class_tag == "abnormal":
            region[sc.members] = REGION_ABNORMAL
        elif not labeled_cluster[cid]:
            region[sc.members] = REGION_UNKNOWN
    return ClusterComposition(region=region, cluster_of_point=cluster_of_point,
                              clusters=clusters, sub_clusters=kept,
                              sub_to_cluster=kept_cluster,
                              sub_cluster_of=sub_cluster_of,
                              conflicted=conflicted)


@dataclass
class AdclustParams:
    """Knobs for the full pipeline.

    The coefficient defaults are the published constants. The bundled
    simulation presets override coef_rt, bandwidth, and min_wall_size
    with calibrated values; see synthetic.simulation_preset.
    """

    k: float = 30.0
    alpha: float = 0.7
    wall_kind: str = "euclidean"
    coef_rt: float = 20.0
    coef_dt: float = 0.95
    target_fraction: float = 0.075
    seed: int = 0
    bandwidth: float | None = None
    log_base: float = math.e
    exact_density: bool = False
    min_wall_size: int = 2
    eta_sample_size: int = 100_000

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValidationError("k must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must be in (0, 1)")
        if self.wall_kind not in ("euclidean", "manhattan"):
            raise ValidationError(f"unknown wall kind {self.wall_kind!r}")
        if self.coef_rt <= 0 or self.coef_dt <= 0:
            raise ValidationError("threshold coefficients must be positive")
        if not 0.0 < self.target_fraction <= 1.0:
            raise ValidationError("target_fraction must be in (0, 1]")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValidationError("bandwidth must be positive")
        if self.min_wall_size < 2:
            raise ValidationError("min_wall_size must be at least 2")


@dataclass
class ClusteringResult:
    composition: ClusterComposition
    walls: list[Wall]
    wall_sub_ids: list[int]
    thresholds: Thresholds
    profile: DensityProfile
    params: AdclustParams
    bandwidth: float
    uninformative_scores: int
    inside_walls: np.ndarray
    protected: np.ndarray


def adclust(dataset: Dataset, params: AdclustParams | None = None) -> ClusteringResult:
    """Run thresholds, kernel weighting, three merges, match, and walls.

    One wall is fitted per normal region with at least
    max(2, min_wall_size) members, at level alpha. inside_walls marks the
    points inside any wall; the protected set is the normal core among
    them.
    """
    params = params or AdclustParams()
    pts = dataset.points

    grid = build_grid(pts, params.target_fraction)
    clf = fit_kernel(dataset, bandwidth=params.bandwidth)
    rt, a_p, d_c = compute_rt(grid, pts, params.coef_rt)
    if rt <= 0:
        raise ValidationError("computed rt is zero; points are coincident")
    pairs = rt_pairs(pts, rt)
    n_p = compute_density(grid, pts, rt, exact=params.exact_density,
                          pairs=pairs)
    dt, n_c = compute_dt(grid, n_p, params.coef_dt, params.log_base)
    thresholds = Thresholds(rt=rt, dt=dt, coef_rt=params.coef_rt,
                            coef_dt=params.coef_dt)
    profile = DensityProfile(avg_dist_point=a_p, avg_dist_cell=d_c,
                             density_point=n_p.astype(np.float64),
                             density_cell=n_c)

    b, flags = pipeline_scores(dataset, clf, return_flags=True)
    w = weight(b, params.k)
    rho = n_p * w

    normal_subs, abnormal_subs, conflicted, remaining = pass1_labeled(
        pts, dataset.labels, rho, dt, rt, pairs)
    unlabeled_subs, _ = pass2_residual(pts, remaining, n_p, dt, rt, pairs)
    clusters, _ = pass3_global(pts, n_p, dt, rt, pairs)
    comp = match(dataset.n, normal_subs, abnormal_subs, unlabeled_subs,
                 clusters, conflicted)

    walls: list[Wall] = []
    wall_sub_ids: list[int] = []
    min_size = max(2, params.min_wall_size)
    for idx, sc in enumerate(comp.sub_clusters):
        if sc.class_tag != "normal" or sc.members.size < min_size:
            continue
        stats = fit_region_stats(pts[sc.members])
        if params.wall_kind == "euclidean":
            wall = fit_euclidean_wall(stats, params.alpha)
        else:
            wall = fit_manhattan_wall(stats, params.alpha,
                                      sample_size=params.eta_sample_size,
                                      seed=[params.seed, len(walls)])
        walls.append(wall)
        wall_sub_ids.append(idx)

    inside = np.zeros(dataset.n, dtype=bool)
    for wall in walls:
        inside |= wall.contains(pts)
    protected = inside & (comp.region == REGION_NORMAL_CORE)

    return ClusteringResult(composition=comp, walls=walls,
                            wall_sub_ids=wall_sub_ids,
                            thresholds=thresholds, profile=profile,
                            params=params, bandwidth=clf.bandwidth,
                            uninformative_scores=int(flags.sum()),
                            inside_walls=inside, protected=protected)
