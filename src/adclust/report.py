"""Deterministic JSON reports, landscape/sweep CSVs, and the 2-d SVG.

Byte determinism is part of the contract: reports must hash identically
across reruns with the same seed. Wall-clock timing therefore never
enters a report; it goes to a timing.json sidecar next to it.
"""
from __future__ import annotations

import csv
import io
import json
import os
from importlib.metadata import PackageNotFoundError, version

import numpy as np

from .core import REGION_NAMES, ClusteringResult
from .dataset import Dataset, write_text
from .game import Equilibrium, GameTables

SCHEMA_VERSION = "1"

try:
    _PKG_VERSION = version("artifact")
except PackageNotFoundError:  # running from a source tree
    _PKG_VERSION = "0.1.0"


# stands in for points.rows while the rest of a report is indented; a
# NUL cannot occur in any string a report holds
_ROWS_MARK = "\0points.rows\0"


def _tolist(value):
    return value.tolist()


def dump_json(obj, path: str) -> None:
    """json.dumps(obj, sort_keys=True, indent=2) plus a newline; numpy
    arrays and scalars are written as their tolist() values.

    The indenting encoder is pure Python, so a cluster report's
    points.rows, which holds only ints, bools and None, is encoded
    compactly by the C encoder and its separators re-indented: the
    bytes are the same.
    """
    rows = obj.get("points", {}).get("rows")
    if rows:
        obj = {**obj, "points": {**obj["points"], "rows": _ROWS_MARK}}
    text = json.dumps(obj, sort_keys=True, indent=2, default=_tolist)
    if rows:
        mark = json.dumps(_ROWS_MARK)
        at = text.index(mark)
        line = text[text.rfind("\n", 0, at) + 1:at]
        pad = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        flat = json.dumps(rows, separators=(",", ":"), default=_tolist)
        body = (flat[2:-2].replace("],[", "\0")
                .replace(",", "," + pad + "    ")
                .replace("\0", pad + "  ]," + pad + "  [" + pad + "    "))
        text = (text[:at] + "[" + pad + "  [" + pad + "    " + body
                + pad + "  ]" + pad + "]" + text[at + len(mark):])
    write_text(path, text + "\n")


def cluster_metrics(result: ClusteringResult,
                    truth: np.ndarray | None) -> dict:
    """Region counts plus truth-based metrics where truth is known.

    Truth code -1 (no ground truth for the row) is excluded from both
    ratio metrics; code 2 (known-as-unknown component) counts as
    not-normal and not-abnormal.
    """
    comp = result.composition
    counts = comp.region_counts()
    metrics = {
        "region_counts": counts,
        "mixed_plus_outliers": counts["mixed_overlap"] + counts["outlier"],
        "protected_count": int(result.protected.sum()),
        "wall_count": len(result.walls),
        "abnormal_fraction_mixed": None,
        "wall_purity": None,
    }
    if truth is not None:
        truth = np.asarray(truth)
        known = truth != -1
        mixed = (comp.region == REGION_NAMES.index("mixed_overlap")) & known
        if mixed.any():
            metrics["abnormal_fraction_mixed"] = float(
                (truth[mixed] == 0).mean())
        inside = result.inside_walls & known
        if inside.any():
            metrics["wall_purity"] = float((truth[inside] == 1).mean())
    return metrics


def build_cluster_report(dataset: Dataset, result: ClusteringResult,
                         truth: np.ndarray | None, command: dict,
                         metrics: dict) -> dict:
    """metrics is cluster_metrics(result, truth), computed by the caller."""
    comp = result.composition
    p = result.params
    walls = []
    for wall, sub_id in zip(result.walls, result.wall_sub_ids):
        entry = {
            "kind": wall.kind,
            "level": wall.level,
            "radius": wall.radius,
            "mean": wall.stats.mean,
            "covariance": wall.stats.covariance,
            "stddevs": wall.stats.stddevs,
            "member_count": wall.stats.member_count,
            "ridged": wall.stats.ridged,
            "sub_cluster": sub_id,
        }
        if wall.kind == "manhattan":
            entry["eta_sample_size"] = p.eta_sample_size
        walls.append(entry)
    truth_col = (truth.tolist() if truth is not None
                 else [None] * dataset.n)
    rows = [list(row) for row in zip(
        comp.region.tolist(), comp.cluster_of_point.tolist(),
        comp.sub_cluster_of.tolist(), dataset.labels.tolist(), truth_col,
        result.protected.tolist())]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "cluster",
        "package_version": _PKG_VERSION,
        "command": command,
        "params": {
            "k": p.k, "alpha": p.alpha, "wall_kind": p.wall_kind,
            "coef_rt": p.coef_rt, "coef_dt": p.coef_dt,
            "target_fraction": p.target_fraction, "seed": p.seed,
            "bandwidth": result.bandwidth, "log_base": p.log_base,
            "min_wall_size": p.min_wall_size,
        },
        "thresholds": {"rt": result.thresholds.rt, "dt": result.thresholds.dt},
        "kernel": {"bandwidth": result.bandwidth,
                   "uninformative_scores": result.uninformative_scores},
        "clusters": [{"id": i, "size": int(c.size)}
                     for i, c in enumerate(comp.clusters)],
        "sub_clusters": [{"id": i, "pass": sc.pass_origin,
                          "class": sc.class_tag, "size": int(sc.members.size),
                          "cluster": comp.sub_to_cluster[i]}
                         for i, sc in enumerate(comp.sub_clusters)],
        "conflicted_count": int(comp.conflicted.size),
        "walls": walls,
        "metrics": metrics,
        "region_names": list(REGION_NAMES),
        "points": {
            "columns": ["region", "cluster", "sub_cluster", "label",
                        "truth", "protected"],
            "rows": rows,
        },
    }


_REGION_COLORS = {
    "normal_core": "#1f77b4",
    "abnormal_region": "#ff7f0e",
    "mixed_overlap": "#9467bd",
    "unknown_cluster": "#e6c700",
    "outlier": "#000000",
}
_WALL_COLOR = "#d62728"


def _f(x: float) -> str:
    return f"{x:.3f}"


def render_svg(points: np.ndarray, region: np.ndarray,
               walls: list, size: int = 640, margin: float = 48.0) -> str:
    """Scatter of a 2-d dataset colored by region, walls outlined."""
    if points.shape[1] != 2:
        raise ValueError("SVG rendering requires 2-d data")
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    scale = (size - 2 * margin) / span.max()

    def sx(x):
        return margin + (x - lo[0]) * scale

    def sy(y):
        return size - margin - (y - lo[1]) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    for code, name in enumerate(REGION_NAMES):
        ids = np.flatnonzero(region == code)
        if ids.size == 0:
            continue
        color = _REGION_COLORS[name]
        parts.append(f'<g fill="{color}" fill-opacity="0.75">')
        for i in ids.tolist():
            parts.append(f'<circle cx="{_f(sx(points[i, 0]))}" '
                         f'cy="{_f(sy(points[i, 1]))}" r="2.2"/>')
        parts.append("</g>")
    for wall in walls:
        mean = wall.stats.mean
        if wall.kind == "euclidean":
            ell = np.linalg.cholesky(wall.stats.covariance)
            theta = np.linspace(0.0, 2.0 * np.pi, 97)
            circ = np.stack([np.cos(theta), np.sin(theta)])
            boundary = mean[:, None] + np.sqrt(wall.radius) * (ell @ circ)
            pts = boundary.T
        else:
            sd = wall.stats.stddevs
            r = wall.radius
            pts = np.array([
                [mean[0] + r * sd[0], mean[1]],
                [mean[0], mean[1] + r * sd[1]],
                [mean[0] - r * sd[0], mean[1]],
                [mean[0], mean[1] - r * sd[1]],
                [mean[0] + r * sd[0], mean[1]],
            ])
        coords = " ".join(f"{_f(sx(x))},{_f(sy(y))}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{_WALL_COLOR}" stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def build_game_report(eq: Equilibrium, tables: GameTables,
                      command: dict) -> dict:
    config = tables.config
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "game",
        "package_version": _PKG_VERSION,
        "command": command,
        "config": {
            "wall_kind": config.wall_kind,
            "cost_c": config.cost_c,
            "alpha_step": config.alpha_step,
            "t_step": config.t_step,
            "joint_t_step": config.joint_t_step,
            "seed": config.seed,
            "normal": {"mean": config.normal.mean, "cov": config.normal.cov,
                       "sample_size": config.normal.sample_size},
            "adversaries": [{"mean": s.mean, "cov": s.cov,
                             "sample_size": s.sample_size}
                            for s in config.adversaries],
            "utilities": [{"family": u.family, "a": u.a, "k_max": u.k_max}
                          for u in config.utilities],
        },
        "wall_stats": {"mean": tables.stats.mean,
                       "covariance": tables.stats.covariance,
                       "stddevs": tables.stats.stddevs},
        "equilibrium": {
            "orientation": eq.orientation,
            "wall_kind": eq.wall_kind,
            "alpha": eq.alpha,
            "radius": eq.radius,
            "t": list(eq.t),
            "defender_utility": eq.defender_utility,
            "attacker_utilities": list(eq.attacker_utilities),
        },
    }


def write_landscape_csv(path: str, tables: GameTables) -> None:
    """One row per (adversary, t, alpha) lattice cell."""
    lines = ["adversary,t,alpha,attacker_utility,adversary_error,"
             "normal_error\n"]
    # tolist() gives Python floats, whose repr is the plain number
    alphas = tables.alphas.tolist()
    normal = tables.normal_error.tolist()
    for i, (a_tab, e_tab) in enumerate(zip(tables.attacker,
                                           tables.adv_error)):
        for t, a_row, e_row in zip(tables.ts.tolist(), a_tab.tolist(),
                                   e_tab.tolist()):
            for alpha, a, e, ne in zip(alphas, a_row, e_row, normal):
                lines.append(f"{i},{t!r},{alpha!r},{a!r},{e!r},{ne!r}\n")
    write_text(path, "".join(lines))


def write_sweep_csv(path: str, rows: list[dict]) -> None:
    """Header from the first row's keys; rows is nonempty. csv writes
    None as an empty cell and a float as its repr."""
    columns = list(rows[0])
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([row[col] for col in columns] for row in rows)
    write_text(path, buf.getvalue())


def write_timing(out_dir: str, seconds: float) -> None:
    """Wall-clock sidecar; kept out of report.json so reports stay
    byte-identical across reruns."""
    write_text(os.path.join(out_dir, "timing.json"),
               json.dumps({"wall_seconds": seconds}) + "\n")
