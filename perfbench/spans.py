"""Per-layer spans recorded from outside the library.

Tracer.install() replaces library functions at the module attributes
through which adclust(), solve_game() and cli.main() look them up, so a
nested call (merge inside a pass, Wall.mahalanobis_sq inside
Wall.contains) records a child span. A span's self time is its duration
minus the time of its child spans; self times accumulate per metric.
Counts are derived after each operation from the arguments and return
values the wrappers kept, so their cost stays out of the timings.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

import numpy as np

from checks import joint_lattice, neighbourhoods, rt_graph

# Time metrics: metric -> the attributes wrapped for it.
SPANS = {
    "grid.build_grid_s": ["adclust.core:build_grid"],
    "grid.compute_rt_s": ["adclust.core:compute_rt"],
    "grid.compute_density_s": ["adclust.core:compute_density"],
    "grid.compute_dt_s": ["adclust.core:compute_dt"],
    "kernel.fit_kernel_s": ["adclust.core:fit_kernel"],
    "kernel.pipeline_scores_s": ["adclust.core:pipeline_scores"],
    "core.merge_s": ["adclust.core:merge"],
    "core.pass1_labeled_s": ["adclust.core:pass1_labeled"],
    "core.pass2_residual_s": ["adclust.core:pass2_residual"],
    "core.pass3_global_s": ["adclust.core:pass3_global"],
    "core.match_s": ["adclust.core:match"],
    "walls.fit_s": ["adclust.core:fit_region_stats", "adclust.game:fit_region_stats",
                    "adclust.core:fit_euclidean_wall",
                    "adclust.core:fit_manhattan_wall"],
    "walls.contains_s": ["adclust.walls:Wall.contains"],
    "walls.score_s": ["adclust.walls:Wall.mahalanobis_sq",
                      "adclust.walls:Wall.scaled_l1"],
    "game.build_tables_s": ["adclust.game:build_tables"],
    "game.solve_leader_s": ["adclust.game:solve_leader"],
    "game.solve_follower_s": ["adclust.game:solve_follower"],
    "report.build_cluster_report_s": ["adclust.cli:build_cluster_report"],
    "report.cluster_metrics_s": ["adclust.cli:cluster_metrics",
                                 "adclust.report:cluster_metrics"],
    "report.dump_json_s": ["adclust.cli:dump_json"],
    "dataset.ingest_csv_s": ["adclust.cli:ingest_csv"],
    "synthetic.generate_op_s": ["adclust.synthetic:generate"],
}

# Reported per-layer metrics: name -> (unit, better).
METRICS = {name: ("s", "lower") for name in SPANS}
METRICS.update({
    "trace.gap_s": ("s", "lower"),
    "trace.op_s": ("s", "lower"),
    "synthetic.generate_s": ("s", "lower"),
    "grid.distance_evals": ("count", "lower"),
    "grid.neighbor_keys": ("count", "lower"),
    "grid.neighbor_key_hit_ratio": ("ratio", "higher"),
    "grid.occupied_cells": ("count", "lower"),
    "kernel.labeled_points": ("count", "lower"),
    "kernel.score_tensor_mb": ("MB", "lower"),
    "core.merge_calls": ("count", "lower"),
    "core.rt_edges": ("count", "lower"),
    "core.clusters": ("count", "lower"),
    "core.sub_clusters": ("count", "lower"),
    "walls.count": ("count", "lower"),
    "game.lattice_cells": ("count", "lower"),
    "game.follower_profiles": ("count", "lower"),
    "report.bytes_written": ("B", "lower"),
})

# Span metrics whose arguments and results feed a count.
COUNTED = {"grid.build_grid_s", "grid.compute_rt_s", "grid.compute_density_s",
           "kernel.pipeline_scores_s", "core.merge_s", "core.pass3_global_s",
           "core.match_s", "walls.fit_s", "game.build_tables_s",
           "game.solve_follower_s", "report.dump_json_s"}


def _resolve(target: str):
    module, attr = target.split(":")
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Span recorder; begin_op/end_op bracket one timed operation."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self._top = 0.0
        self._self = defaultdict(float)
        self._kept: list[tuple] = []
        self._patched: list[tuple] = []
        self._edges: dict = {}
        self._grid_stats: dict = {}
        self.totals = defaultdict(float)
        self.setup_generate_s = 0.0
        self.ops = 0
        # Smallest per-operation gap and span self time seen: both are
        # negative only if spans overlap or are counted twice.
        self.min_gap_s = float("inf")
        self.min_self_s = float("inf")

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        for metric, targets in SPANS.items():
            for target in targets:
                owner, name = _resolve(target)
                original = getattr(owner, name)
                setattr(owner, name, self._wrap(original, metric))
                self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _wrap(self, fn, metric: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            tracer._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += duration
                else:
                    tracer._top += duration
                tracer._self[metric] += duration - children[0]
            if metric in COUNTED:
                tracer._kept.append((metric, args, kwargs, result))
            return result

        return traced

    # -- phases -------------------------------------------------------------

    def end_setup(self) -> None:
        """Book the spans so far as set-up and start counting operations."""
        self.setup_generate_s = self._self.get("synthetic.generate_op_s", 0.0)
        self._reset()

    def begin_op(self) -> None:
        self._reset()

    def end_op(self, op_seconds: float) -> None:
        """Fold one operation's spans and derived counts into the totals."""
        for metric, value in self._self.items():
            self.totals[metric] += value
            self.min_self_s = min(self.min_self_s, value)
        gap = op_seconds - self._top
        self.min_gap_s = min(self.min_gap_s, gap)
        self.totals["trace.gap_s"] += gap
        self.totals["trace.op_s"] += op_seconds
        for metric, args, kwargs, result in self._kept:
            self._count(metric, args, kwargs, result)
        self.ops += 1
        self._grid_stats.clear()
        self._reset()

    def _reset(self) -> None:
        self._self.clear()
        self._kept.clear()
        self._top = 0.0

    def metrics(self) -> dict[str, float]:
        out = {name: self.totals.get(name, 0.0) / max(self.ops, 1) for name in METRICS}
        keys = self.totals.get("grid.neighbor_keys", 0.0)
        hits = self.totals.get("grid.neighbor_hits", 0.0)
        out["grid.neighbor_key_hit_ratio"] = hits / keys if keys else 0.0
        out["synthetic.generate_s"] = self.setup_generate_s
        return out

    # -- counts from kept arguments and results ---------------------------

    def _count(self, metric, args, kwargs, result) -> None:
        add = self.totals
        if metric == "grid.build_grid_s":
            add["grid.occupied_cells"] += len(result.cells)
        elif metric in ("grid.compute_rt_s", "grid.compute_density_s"):
            if kwargs.get("exact") or (len(args) > 3 and args[3]):
                return
            keys, hits, evals = self._neighbour_stats(args[0])
            add["grid.neighbor_keys"] += keys
            add["grid.neighbor_hits"] += hits
            add["grid.distance_evals"] += evals
        elif metric == "kernel.pipeline_scores_s":
            dataset, clf = args[0], args[1]
            labelled = clf.labeled_points.shape[0]
            unlabelled = int((dataset.labels == -1).sum())
            add["kernel.labeled_points"] += labelled
            add["kernel.score_tensor_mb"] += unlabelled * labelled * dataset.q * 8 / 1e6
        elif metric == "core.merge_s":
            add["core.merge_calls"] += 1
        elif metric == "core.pass3_global_s":
            add["core.clusters"] += len(result[0])
            add["core.rt_edges"] += self._rt_edges(args[0], args[3])
        elif metric == "core.match_s":
            add["core.sub_clusters"] += len(result.sub_clusters)
        elif metric == "walls.fit_s" and hasattr(result, "radius"):
            add["walls.count"] += 1
        elif metric == "game.build_tables_s":
            add["game.lattice_cells"] += sum(tab.size for tab in result.attacker)
        elif metric == "game.solve_follower_s":
            tables = args[0]
            lattice = joint_lattice(tables.config, len(tables.ts), tables.ts)
            add["game.follower_profiles"] += len(lattice) ** len(tables.attacker)
        elif metric == "report.dump_json_s":
            add["report.bytes_written"] += os.path.getsize(args[1])

    def _neighbour_stats(self, grid) -> tuple[int, int, int]:
        """Keys neighbor_cells enumerates (3 per dimension, clipped at the
        grid edge), how many of them are occupied, and the distances
        evaluated (members times neighbourhood points), summed over cells."""
        key = id(grid)  # grids live until end_op clears this cache
        if key not in self._grid_stats:
            hood = neighbourhoods(np.array(sorted(grid.cells), dtype=np.int64))
            m = grid.sections
            spans = np.minimum(m - 1, hood.cells + 1) - np.maximum(0, hood.cells - 1) + 1
            sizes = np.array([grid.cells[tuple(k)].size for k in hood.cells.tolist()])
            hits = sum(nb.size for nb in hood.neighbours)
            evals = sum(int(sizes[c] * sizes[nb].sum())
                        for c, nb in enumerate(hood.neighbours))
            self._grid_stats[key] = (int(np.prod(spans, axis=1).sum()), hits, evals)
        return self._grid_stats[key]

    def _rt_edges(self, points, rt) -> int:
        """Edge count of the closed rt graph, cached per input array (the
        cache holds the array, so its id is not reused)."""
        key = (id(points), rt)
        if key not in self._edges:
            self._edges[key] = (points, rt_graph(points, rt).rows.size)
        return self._edges[key][1]

