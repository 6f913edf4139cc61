"""Batch command-line front end.

Commands: cluster (CSV in, JSON report + optional SVG out), simulate
(write a bundled layout to CSV), game (solve one preset, export the
utility landscape), sweep (weight or wall-level grids with an aggregate
CSV), eta (Manhattan radius for given moments).

Exit codes: 0 success, 2 validation error, 3 runtime degeneracy
(singular geometry, grid budget). Reports are byte-deterministic for a
fixed (input, config, seed); wall-clock timing goes to timing.json.
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .core import AdclustParams, adclust, finish, prepare
from .dataset import (ingest_csv, read_text, read_truth_csv, write_csv,
                      write_text)
from .errors import (DegenerateGeometryError, DegenerateRegionError,
                     GridBudgetError, ValidationError)
from .game import solve_game
from .report import (build_cluster_report, build_game_report, cluster_metrics,
                     dump_json, render_svg, write_landscape_csv,
                     write_sweep_csv, write_timing)
from .synthetic import (game_names, game_preset, simulation_names,
                        simulation_preset)
from .walls import eta_of_alpha, stats_from_moments

WEIGHT_GRID = (1.0, 10.0, 30.0, 50.0, 100.0)
WALL_ALPHA_GRID = (0.6, 0.7, 0.8, 0.9, 0.95)
WALL_K_GRID = (1.0, 30.0, 50.0)

_PARAM_FIELDS = {
    "k": float, "alpha": float, "wall_kind": str, "coef_rt": float,
    "coef_dt": float, "target_fraction": float, "seed": int,
    "bandwidth": float, "log_base": float, "min_wall_size": int,
    "eta_sample_size": int,
}
# [cluster] keys that cluster also takes as flags; a flag beats the config
_CLUSTER_FLAGS = ("alpha", "k", "seed", "coef_rt", "coef_dt", "bandwidth",
                  "target_fraction", "min_wall_size")
_GAME_FIELDS = {
    "alpha_step": float, "t_step": float, "joint_t_step": float,
    "joint_budget": int, "eta_sample_size": int, "cost_c": float,
    "sample_size": int,
}


def _read_config(path: str | None, section: str, fields: dict) -> dict:
    if not path:
        return {}
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(read_text(path), source=path)
    except configparser.Error as exc:
        detail = " ".join(str(exc).split())  # one line for the error report
        raise ValidationError(f"cannot parse config {path}: {detail}") from None
    if section not in parser:
        return {}
    out = {}
    for key, raw in parser[section].items():
        if key not in fields:
            raise ValidationError(f"unknown config key {key!r} in [{section}]")
        try:
            out[key] = fields[key](raw)
        except ValueError:
            raise ValidationError(
                f"config key {key!r}: cannot parse {raw!r}") from None
    return out


def _ensure_out(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None
    return path


def _load_csv(args, seed: int, truth):
    """Ingest --input; an explicit truth wins over the pre-blanking labels
    and loses the rows ingest dropped when it still has them."""
    dataset, info = ingest_csv(args.input, label_column=args.label_column,
                               label_fraction=args.label_fraction, seed=seed)
    if truth is None:
        truth = info.truth
    elif truth.shape[0] == dataset.n + len(info.dropped_index):
        truth = np.delete(truth, info.dropped_index)
    if truth is not None and truth.shape[0] != dataset.n:
        raise ValidationError(
            f"truth rows ({truth.shape[0]}) do not match dataset rows "
            f"({dataset.n})")
    return dataset, truth, info


def _cmd_cluster(args) -> int:
    fields = _read_config(args.config, "cluster", _PARAM_FIELDS)
    for name in _CLUSTER_FLAGS:
        if getattr(args, name) is not None:
            fields[name] = getattr(args, name)
    if args.wall is not None:
        fields["wall_kind"] = args.wall
    params = AdclustParams(**fields)
    dataset, truth, info = _load_csv(
        args, params.seed, read_truth_csv(args.truth) if args.truth else None)
    out = _ensure_out(args.out)

    start = time.perf_counter()
    result = adclust(dataset, params)
    elapsed = time.perf_counter() - start

    command = {"command": "cluster", "input": os.path.basename(args.input),
               "label_column": args.label_column,
               "label_fraction": args.label_fraction,
               "dropped_rows": list(info.dropped_rows),
               "retained_labels": info.retained_label_count}
    rep = build_cluster_report(dataset, result, truth, command,
                               cluster_metrics(result, truth))
    dump_json(rep, os.path.join(out, "report.json"))
    write_timing(out, elapsed)
    if dataset.q == 2:
        svg = render_svg(dataset.points, result.composition.region,
                         result.walls)
        write_text(os.path.join(out, "regions.svg"), svg)
    else:
        print(f"plotting requires q=2 (input has q={dataset.q}); "
              "metrics-only report written")
    counts = result.composition.region_counts()
    summary = ", ".join(f"{k}={v}" for k, v in counts.items())
    print(f"rt={result.thresholds.rt:.6g} dt={result.thresholds.dt:.6g} "
          f"walls={len(result.walls)}")
    print(summary)
    print(f"report: {os.path.join(out, 'report.json')}")
    return 0


def _cmd_simulate(args) -> int:
    dataset, truth, _ = simulation_preset(args.preset, seed=args.seed)
    _ensure_out(os.path.dirname(os.path.abspath(args.out)))
    stem, ext = os.path.splitext(args.out)
    truth_path = f"{stem}.truth{ext or '.csv'}"
    write_csv(args.out, dataset)
    write_csv(truth_path, dataset, labels=truth)
    print(f"dataset: {args.out}")
    print(f"truth:   {truth_path}")
    return 0


def _cmd_game(args) -> int:
    overrides = _read_config(args.config, "game", _GAME_FIELDS)
    config_samples = overrides.pop("sample_size", 10_000)
    sample_size = args.samples if args.samples is not None else config_samples
    # replace() runs GameConfig's validation on the overrides too
    config = dataclasses.replace(
        game_preset(args.preset, wall_kind=args.wall, seed=args.seed,
                    sample_size=sample_size), **overrides)
    out = _ensure_out(args.out)

    start = time.perf_counter()
    eq, tables = solve_game(config, args.orientation)
    elapsed = time.perf_counter() - start

    command = {"command": "game", "preset": args.preset,
               "orientation": args.orientation, "samples": sample_size}
    rep = build_game_report(eq, tables, command)
    dump_json(rep, os.path.join(out, "report.json"))
    write_landscape_csv(os.path.join(out, "landscape.csv"), tables)
    write_timing(out, elapsed)
    ts = ", ".join(f"{t:g}" for t in eq.t)
    print(f"{args.preset} {args.orientation}: alpha={eq.alpha:g} "
          f"t=({ts}) defender={eq.defender_utility:.4f}")
    print(f"report: {os.path.join(out, 'report.json')}")
    return 0


def _sweep_run(task: tuple) -> list[dict]:
    """One run: prepare its stage once, then cluster it at each grid
    point, write that point's report and return the aggregate rows in
    grid order. Top-level so process pools can pickle it."""
    out, kind, run, dataset, truth, params, grid = task
    stage = prepare(dataset, params)
    rows = []
    for k, alpha in grid:
        result = finish(stage, k, alpha)
        metrics = cluster_metrics(result, truth)
        command = {"command": "sweep", "kind": kind, "k": k, "alpha": alpha,
                   "run": run}
        dump_json(build_cluster_report(dataset, result, truth, command,
                                       metrics),
                  os.path.join(out, f"report_k{k:g}_a{alpha:g}_r{run}.json"))
        rows.append({
            "k": k, "alpha": alpha, "seed": params.seed, "run": run,
            "mixed_count": metrics["region_counts"]["mixed_overlap"],
            "outlier_count": metrics["region_counts"]["outlier"],
            "mixed_plus_outliers": metrics["mixed_plus_outliers"],
            "abnormal_fraction_mixed": metrics["abnormal_fraction_mixed"],
            "wall_purity": metrics["wall_purity"],
            "wall_count": metrics["wall_count"],
        })
    return rows


def _cmd_sweep(args) -> int:
    overrides = _read_config(args.config, "cluster", _PARAM_FIELDS)
    for key in ("k", "alpha", "seed", "wall_kind"):  # set per grid point
        overrides.pop(key, None)

    if (args.preset is None) == (args.input is None):
        raise ValidationError("exactly one of --preset / --input is required")
    if args.preset and (args.truth or args.label_fraction is not None):
        raise ValidationError("--truth and --label-fraction need --input; "
                              "a preset brings its own truth and labels")
    if args.runs < 1 or args.workers < 1:
        raise ValidationError("--runs and --workers must be at least 1")
    if args.kind == "weight":
        grid = [(k, args.alpha) for k in WEIGHT_GRID]
    else:
        grid = [(k, a) for a in WALL_ALPHA_GRID for k in WALL_K_GRID]
    # validates every grid point and run before any input is read
    csv_params = AdclustParams(k=grid[0][0], alpha=grid[0][1],
                               wall_kind=args.wall, seed=args.seed,
                               **overrides)
    truth = read_truth_csv(args.truth) if args.truth else None
    out = _ensure_out(args.out)

    def tasks():
        # one task per run over ascending grids: rows come in (run,
        # alpha, k) order, which is the order of aggregate.csv
        for run in range(args.runs):
            seed = args.seed + run
            if args.preset is not None:
                dataset, run_truth, params = simulation_preset(
                    args.preset, seed=seed, wall_kind=args.wall)
                params = dataclasses.replace(params, **overrides)
            else:
                dataset, run_truth, _ = _load_csv(args, seed, truth)
                params = dataclasses.replace(csv_params, seed=seed)
            yield out, args.kind, run, dataset, run_truth, params, grid

    # fork starts every worker at the first submit: start no idle ones
    workers = min(args.workers, args.runs)
    start = time.perf_counter()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(_sweep_run, tasks()))
    else:
        runs = list(map(_sweep_run, tasks()))
    rows = [row for run_rows in runs for row in run_rows]
    elapsed = time.perf_counter() - start

    write_sweep_csv(os.path.join(out, "aggregate.csv"), rows)
    write_timing(out, elapsed)
    print(f"{len(rows)} runs -> {os.path.join(out, 'aggregate.csv')}")
    return 0


def _cmd_eta(args) -> int:
    if args.seed < 0:
        raise ValidationError("seed must be nonnegative")
    try:
        payload = json.loads(read_text(args.stats))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{args.stats}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValidationError(
            f"{args.stats}: expected an object with mean and covariance")
    try:
        mean = np.asarray(payload["mean"], dtype=np.float64)
        cov = np.asarray(payload["covariance"], dtype=np.float64)
    except KeyError as exc:
        raise ValidationError(
            f"{args.stats}: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"{args.stats}: mean and covariance must be numbers: {exc}"
        ) from None
    stats = stats_from_moments(mean, cov)
    eta = eta_of_alpha(stats, args.alpha, sample_size=args.samples,
                       seed=args.seed)
    print(f"{eta!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adclust",
        description="Grid-density clustering with defensive walls and "
                    "wall-sizing games")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="cluster a CSV and write a report")
    p.add_argument("--input", required=True, help="feature CSV")
    p.add_argument("--label-column", default="label")
    p.add_argument("--label-fraction", type=float, default=None,
                   help="keep labels on this fraction of labeled rows")
    p.add_argument("--truth", default=None,
                   help="CSV with ground-truth labels for metrics")
    for name in _CLUSTER_FLAGS:
        p.add_argument("--" + name.replace("_", "-"), dest=name,
                       type=_PARAM_FIELDS[name], default=None)
    p.add_argument("--wall", choices=("euclidean", "manhattan"), default=None)
    p.add_argument("--config", default=None, help="INI file, [cluster] section")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("simulate", help="write a bundled layout to CSV")
    p.add_argument("--preset", required=True, choices=simulation_names())
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("game", help="solve a wall-sizing game preset")
    p.add_argument("--preset", required=True, choices=game_names())
    p.add_argument("--orientation", required=True,
                   choices=("leader", "follower"))
    p.add_argument("--wall", choices=("euclidean", "manhattan"),
                   default="euclidean")
    p.add_argument("--seed", type=int, default=54)
    p.add_argument("--samples", type=int, default=None,
                   help="Monte-Carlo sample size per population")
    p.add_argument("--config", default=None, help="INI file, [game] section")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("sweep", help="weight or wall-level grid of runs")
    p.add_argument("--kind", required=True, choices=("weight", "wall"))
    p.add_argument("--preset", choices=simulation_names(), default=None)
    p.add_argument("--input", default=None, help="feature CSV")
    p.add_argument("--label-column", default="label")
    p.add_argument("--label-fraction", type=float, default=None)
    p.add_argument("--truth", default=None)
    p.add_argument("--alpha", type=float, default=0.6,
                   help="wall level for weight sweeps")
    p.add_argument("--wall", choices=("euclidean", "manhattan"),
                   default="euclidean")
    p.add_argument("--runs", type=int, default=1,
                   help="seeded repetitions of the grid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--config", default=None, help="INI file, [cluster] section")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("eta", help="Manhattan radius for given moments")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--stats", required=True,
                   help="JSON file with mean and covariance")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_eta)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateGeometryError, DegenerateRegionError,
            GridBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
