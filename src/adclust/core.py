"""Three-pass density clustering with labeled sub-clusters and walls.

Merge semantics: over a participating point set, connect every pair
within rt (closed: a pair at exactly rt connects) and take connected
components; a component becomes a cluster when it contains at least one
point whose centroid statistic reaches dt, otherwise its points stay
unassigned. This equals running seeded attach-and-merge to a fixpoint,
and a brute-force transitive closure is the reference oracle for it.
prepare() builds the closed rt graph once per stage, one CSR adjacency
(grid.rt_graph); n(p), the pass-1 conflicts and all four merges read it,
a merge taking the subgraph its participants induce. Inputs whose
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

adclust() is finish(prepare(dataset, params), k, alpha). prepare()
computes what depends on neither the label weight k nor the wall level
alpha: the grid, the kernel and its scores, rt, the rt graph, n(p), dt
and pass 3. finish() runs passes 1 and 2, match, walls and containment.
A sweep prepares each run once and finishes it at every grid point, and
the stage keeps what repeats across them:

- the composition (passes 1 and 2 and match) once per k, since none of
  them reads alpha;
- the connected components once per participant set, through merge's
  component cache: pass 1's sets {rho > 0} and {rho < 0} do not depend
  on k (rho = n(p) k (2b - 1), n(p) >= 1; where k (2b - 1) underflows
  to 0 the set changes and so does its key), and only the seed test,
  which the cache leaves out, reads rho;
- each wall region's stats and, for Manhattan walls, its calibration
  scores once per (member ids, position), and its wall once per alpha,
  which then costs one quantile.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import csr_matrix

from .dataset import LABEL_ABNORMAL, LABEL_NORMAL, Dataset
from .errors import ValidationError
from .grid import DensityProfile, Thresholds, build_grid, \
    compute_density, compute_dt, compute_rt, rt_graph
from .kernel import fit_kernel, pipeline_scores, weight
from .walls import Wall, calibration_scores, fit_euclidean_wall, \
    fit_manhattan_wall, fit_region_stats

REGION_NORMAL_CORE = 0
REGION_ABNORMAL = 1
REGION_MIXED = 2
REGION_UNKNOWN = 3
REGION_OUTLIER = 4
REGION_NAMES = ("normal_core", "abnormal_region", "mixed_overlap",
                "unknown_cluster", "outlier")


def merge(points: np.ndarray, point_ids: np.ndarray, stat: np.ndarray,
          dt: float, rt: float, graph: csr_matrix | None = None, *,
          components: dict | None = None
          ) -> tuple[list[np.ndarray], np.ndarray]:
    """Cluster the given ids; see the module docstring for semantics.

    stat aligns with point_ids; graph is the rt graph over all of points,
    rt_graph(points, rt) by default. Returns (clusters, unassigned),
    clusters ordered by smallest member id and members ascending.
    components, when given, caches the (n_components, labels) of each
    participant set (keyed by its sorted ids' bytes) over this one graph:
    a set seen before skips connected_components. Only the seed test
    reads stat, so the cache holds for any stat and dt.
    """
    # csgraph costs about 3 MB of peak RSS; only merges need it
    from scipy.sparse.csgraph import connected_components

    if not 0.0 < rt < math.inf:
        raise ValidationError("rt must be positive and finite")
    point_ids = np.asarray(point_ids, dtype=np.int64)
    stat = np.asarray(stat, dtype=np.float64)
    if point_ids.size != stat.size:
        raise ValidationError("stat must align with point_ids")
    if point_ids.size == 0:
        return [], point_ids
    order = np.argsort(point_ids)
    ids = point_ids[order]
    if (ids[1:] == ids[:-1]).any():
        raise ValidationError("point_ids must be unique")
    if ids[0] < 0 or ids[-1] >= points.shape[0]:
        raise ValidationError("point_ids must lie in [0, N)")
    key = ids.tobytes()
    found = None if components is None else components.get(key)
    if found is None:
        graph = rt_graph(points, rt) if graph is None else graph
        found = connected_components(graph[ids][:, ids], directed=False)
        if components is not None:
            components[key] = found
    n_comp, comp = found
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
                  dt: float, rt: float, graph: csr_matrix, *,
                  components: dict | None = None
                  ) -> tuple[list[SubCluster], list[SubCluster],
                             np.ndarray, np.ndarray]:
    """Labeled sub-clusters, conflicted ids, and the leftover pool.

    Conflicted points (unassigned but within rt of both classes'
    sub-clusters) are reported for visibility; they stay in the leftover
    pool either way. Points with rho == 0 participate in neither merge.
    components is merge's component cache over graph.
    """
    n = points.shape[0]
    all_ids = np.arange(n, dtype=np.int64)
    pos = all_ids[rho > 0]
    neg = all_ids[rho < 0]
    norm_raw, _ = merge(points, pos, rho[pos], dt, rt, graph,
                        components=components)
    abn_raw, _ = merge(points, neg, -rho[neg], dt, rt, graph,
                       components=components)

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
        # hits[p, s - 1]: how many points of side s lie within rt of p
        sides = np.stack((side == 1, side == 2), axis=1).astype(np.float64)
        hits = graph @ sides + graph.T @ sides
        conflicted = remaining[(hits[remaining] > 0).all(axis=1)]

    normal_subs = [SubCluster(g, "normal", 1) for g in norm_groups]
    abnormal_subs = [SubCluster(g, "abnormal", 1) for g in abn_groups]
    return normal_subs, abnormal_subs, conflicted, remaining


def pass2_residual(points: np.ndarray, remaining: np.ndarray,
                   n_p: np.ndarray, dt: float, rt: float, graph: csr_matrix,
                   *, components: dict | None = None
                   ) -> tuple[list[SubCluster], np.ndarray]:
    """Unlabeled sub-clusters over the leftover pool, original densities;
    components is merge's component cache over graph."""
    groups, unassigned = merge(points, remaining, n_p[remaining], dt, rt,
                               graph, components=components)
    return [SubCluster(g, "unlabeled", 2) for g in groups], unassigned


def pass3_global(points: np.ndarray, n_p: np.ndarray, dt: float, rt: float,
                 graph: csr_matrix) -> tuple[list[np.ndarray], np.ndarray]:
    """Label-blind global clusters over all points."""
    all_ids = np.arange(points.shape[0], dtype=np.int64)
    return merge(points, all_ids, n_p, dt, rt, graph)


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

    A sub-cluster is connected through rt edges among a subset of the
    points, so it lies inside one pass-3 component: it lands in the
    cluster that holds all its members, or is dropped when none does.
    Within a cluster that holds at least one labeled sub-cluster,
    non-sub points are mixed overlap; a cluster with no labeled
    sub-cluster at all is an unknown cluster and its unlabeled-sub
    points are tagged so. Points outside every cluster are outliers.
    """
    cluster_of_point = np.full(n, -1, dtype=np.int64)
    for cid, members in enumerate(clusters):
        cluster_of_point[members] = cid

    subs = normal_subs + abnormal_subs + unlabeled_subs
    kept: list[SubCluster] = []
    kept_cluster: list[int] = []
    for sc in subs:
        hit = cluster_of_point[sc.members]
        if np.any(hit != hit[0]):
            raise ValidationError("sub-cluster members lie in more than "
                                  "one pass-3 cluster or outside them")
        if hit[0] >= 0:
            kept.append(sc)
            kept_cluster.append(int(hit[0]))

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
    min_wall_size: int = 2
    eta_sample_size: int = 100_000

    def __post_init__(self) -> None:
        if not 0.0 < self.k < math.inf:
            raise ValidationError("k must be positive and finite")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must be in (0, 1)")
        if self.wall_kind not in ("euclidean", "manhattan"):
            raise ValidationError(f"unknown wall kind {self.wall_kind!r}")
        if not (0.0 < self.coef_rt < math.inf and 0.0 < self.coef_dt < math.inf):
            raise ValidationError("threshold coefficients must be positive "
                                  "and finite")
        if not 0.0 < self.target_fraction <= 1.0:
            raise ValidationError("target_fraction must be in (0, 1]")
        if self.bandwidth is not None and not 0.0 < self.bandwidth < math.inf:
            raise ValidationError("bandwidth must be positive and finite")
        if not 1.0 < self.log_base < math.inf:
            raise ValidationError("log_base must exceed 1 and be finite")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.min_wall_size < 2:
            raise ValidationError("min_wall_size must be at least 2")
        if self.eta_sample_size < 2:
            raise ValidationError("eta_sample_size must be at least 2")


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


@dataclass
class Stage:
    """What adclust() computes before k and alpha enter.

    prepare() fills it once per (dataset, params); finish() clusters it
    at any k and alpha. graph is the one CSR rt graph (grid.rt_graph)
    that density and every merge read. finish() fills three caches,
    which belong to this stage alone:
    - components: merge's component cache over graph, by participant
      set, for passes 1 and 2;
    - compositions: the ClusterComposition by k, shared read-only by
      the results at that k;
    - walls: by (member ids, wall position), the region's RegionStats,
      its Manhattan calibration scores (None for Euclidean walls) and a
      dict of its walls by alpha. Within one stage the kind, seed and
      sample size that a wall also depends on are fixed by params.
    """

    dataset: Dataset
    params: AdclustParams
    thresholds: Thresholds
    profile: DensityProfile
    graph: csr_matrix
    bandwidth: float
    scores: np.ndarray
    uninformative_scores: int
    clusters: list[np.ndarray]
    components: dict = field(default_factory=dict)
    compositions: dict = field(default_factory=dict)
    walls: dict = field(default_factory=dict)


def prepare(dataset: Dataset, params: AdclustParams) -> Stage:
    """Thresholds, densities, the rt graph, kernel scores and pass 3:
    everything that depends on neither k nor alpha."""
    pts = dataset.points
    grid = build_grid(pts, params.target_fraction)
    clf = fit_kernel(dataset, bandwidth=params.bandwidth)
    rt, a_p, _ = compute_rt(grid, pts, params.coef_rt)
    if rt <= 0:
        raise ValidationError("computed rt is zero: the points are coincident "
                              "or their squared distances underflow")
    graph = rt_graph(pts, rt)
    n_p = compute_density(grid, pts, rt, graph=graph)
    dt, _ = compute_dt(grid, n_p, params.coef_dt, params.log_base)
    b, flags = pipeline_scores(dataset, clf)
    clusters, _ = pass3_global(pts, n_p, dt, rt, graph)
    return Stage(dataset=dataset, params=params,
                 thresholds=Thresholds(rt=rt, dt=dt),
                 profile=DensityProfile(avg_dist_point=a_p,
                                        density_point=n_p.astype(np.float64)),
                 graph=graph, bandwidth=clf.bandwidth, scores=b,
                 uninformative_scores=int(flags.sum()), clusters=clusters)


def finish(stage: Stage, k: float, alpha: float) -> ClusteringResult:
    """Passes 1 and 2, match, walls and containment at weight k and wall
    level alpha; the stage's params supply every other knob. Each
    result's composition and walls are the stage's cached ones: read
    them, do not change them.

    One wall is fitted per normal region with at least min_wall_size
    members, at level alpha. inside_walls marks the points inside any
    wall; the protected set is the normal core among them.
    """
    params = replace(stage.params, k=k, alpha=alpha)
    dataset = stage.dataset
    pts = dataset.points
    if k not in stage.compositions:
        rt, dt = stage.thresholds.rt, stage.thresholds.dt
        n_p = stage.profile.density_point
        rho = n_p * weight(stage.scores, k)
        normal_subs, abnormal_subs, conflicted, remaining = pass1_labeled(
            pts, dataset.labels, rho, dt, rt, stage.graph,
            components=stage.components)
        unlabeled_subs, _ = pass2_residual(pts, remaining, n_p, dt, rt,
                                           stage.graph,
                                           components=stage.components)
        stage.compositions[k] = match(dataset.n, normal_subs, abnormal_subs,
                                      unlabeled_subs, stage.clusters,
                                      conflicted)
    comp = stage.compositions[k]

    walls: list[Wall] = []
    wall_sub_ids: list[int] = []
    for idx, sc in enumerate(comp.sub_clusters):
        if sc.class_tag != "normal" or sc.members.size < params.min_wall_size:
            continue
        key = (sc.members.tobytes(), len(walls))
        if key not in stage.walls:
            stats = fit_region_stats(pts[sc.members])
            scores = None
            if params.wall_kind == "manhattan":
                scores = calibration_scores(stats, params.eta_sample_size,
                                            seed=[params.seed, len(walls)])
            stage.walls[key] = stats, scores, {}
        stats, scores, by_alpha = stage.walls[key]
        if alpha not in by_alpha:
            if scores is None:
                by_alpha[alpha] = fit_euclidean_wall(stats, alpha)
            else:
                by_alpha[alpha] = fit_manhattan_wall(stats, alpha,
                                                     scores=scores)
        walls.append(by_alpha[alpha])
        wall_sub_ids.append(idx)

    inside = np.zeros(dataset.n, dtype=bool)
    for wall in walls:
        inside |= wall.contains(pts)
    protected = inside & (comp.region == REGION_NORMAL_CORE)

    return ClusteringResult(composition=comp, walls=walls,
                            wall_sub_ids=wall_sub_ids,
                            thresholds=stage.thresholds, profile=stage.profile,
                            params=params, bandwidth=stage.bandwidth,
                            uninformative_scores=stage.uninformative_scores,
                            inside_walls=inside, protected=protected)


def adclust(dataset: Dataset, params: AdclustParams | None = None) -> ClusteringResult:
    """Run thresholds, kernel weighting, three merges, match, and walls:
    finish(prepare(dataset, params), params.k, params.alpha)."""
    params = params or AdclustParams()
    return finish(prepare(dataset, params), params.k, params.alpha)
