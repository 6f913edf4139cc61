"""Scale probe: per-stage wall times and peak RSS of one adclust() call
at fixed sizes, the stage and tail times of a wall sweep, and the
stages of the wall-sizing game.

    python3 tools/scale_probe.py [--sizes N ...] [--with-100k]
                                 [--q Q ...] [--sweep] [--game]
                                 [--repeat R] [--seed S] [--root DIR]

A size line's input is the cluster_q2 workload's (perfbench/workloads.py,
built from --seed) with its rows drawn with replacement to N points,
labels included, plus N(0, 0.05^2) jitter on every coordinate; the
parameters are the workload's. The sizes default to 5k and 20k, and
--sizes with no value runs none; --with-100k adds N = 100,000, which
needs several GB of memory.

--q adds one line per dimension: perfbench's three_blobs input at
N = 1,500 (cluster_q8's 675 normal, 675 abnormal and 150 never-labelled
points, drawn from --seed) in q dimensions, with cluster_q8's parameters.

--sweep adds one line on the 20k resample: one core.prepare() and the 15
core.finish() calls of a wall sweep (cli.WALL_ALPHA_GRID x
cli.WALL_K_GRID, in the order sweep runs them), each followed by its
report: cli.build_cluster_report and cli.dump_json to a temporary
directory, with no truth (the input has none), as sweep writes it. It
prints the stage time (prepare_s), each grid point's tail time
(finish_s) and report time (report_s), and their sums.

--game adds one line per three_adv_* game preset (seed --seed, 10k
draws per population) and wall kind, the inputs of perfbench's
game_solve workload: the medians of build_tables and of solve_leader and
solve_follower on its tables, and banded_rows, the t rows over all
adversaries where some cell has a band (reach > sure in
walls.contraction_counts, so build_tables scores the row), counted by
wrapping game.contraction_counts (null on a checkout without the name).

Each line runs in a fresh process with one BLAS/OpenMP thread, so its
peak RSS (ru_maxrss) is its own. A stage time is the inclusive wall time
of the calls adclust.core makes to it (merge runs inside the three
passes). _near_cells, the occupied-cell neighbourhood search, is timed
at the calls adclust.grid makes to it; it lies inside compute_rt, whose
time includes it. calibration_scores, the Manhattan calibration draw,
lies outside fit_manhattan_wall (core calls it once per wall region and
keeps its scores); a checkout without it reads 0 there. Every time is
the median over --repeat calls. --root
picks the checkout whose src/ and perfbench/ are imported (default: the
one holding this script), so one probe can measure two checkouts.
Prints one JSON object per line.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

STAGES = ("build_grid", "compute_rt", "rt_graph", "compute_density",
          "compute_dt", "fit_kernel", "pipeline_scores", "pass3_global",
          "pass1_labeled", "pass2_residual", "merge", "match",
          "fit_region_stats", "calibration_scores", "fit_euclidean_wall",
          "fit_manhattan_wall")
GRID_STAGES = ("_near_cells",)  # called inside compute_rt
Q8_SIZES = (675, 675, 150)  # cluster_q8's three_blobs sizes
SWEEP_N = 20_000
GAMES = [(f"three_adv_{family}", wall) for family in ("log", "linear", "exp")
         for wall in ("euclidean", "manhattan")]


def load(root: Path, kind: str, value: int, seed: int):
    """The (dataset, params) of one line: kind "n" or "sweep" resamples
    the cluster_q2 input to value points, kind "q" is three_blobs in
    value dimensions."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import numpy as np
    import workloads
    from adclust.dataset import Dataset

    # neither workload writes files; the workdir is perfbench's ignored one
    workdir = str(root / ".perfbench_work")
    if kind == "q":
        params = workloads.cluster_q8(seed, workdir).params
        return workloads.three_blobs(value, Q8_SIZES, seed), params
    base = workloads.cluster_q2(seed, workdir)
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, base.dataset.n, size=value)
    points = base.dataset.points[rows] + rng.normal(0.0, 0.05, (value, 2))
    return Dataset(points, base.dataset.labels[rows]), base.params


def median(values) -> float:
    return round(statistics.median(values), 4)


def stage_times(dataset, params, repeat: int) -> dict:
    """Median per-stage and total times of `repeat` adclust() calls."""
    from adclust import core, grid

    times: dict[str, float] = {}

    def timed(name, fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[name] = times.get(name, 0.0) + time.perf_counter() - start
        return call

    for module, names in ((core, STAGES), (grid, GRID_STAGES)):
        for name in names:
            if hasattr(module, name):  # an older checkout may lack one
                setattr(module, name, timed(name, getattr(module, name)))
    runs = []
    for _ in range(repeat):
        times.clear()
        start = time.perf_counter()
        core.adclust(dataset, params)
        runs.append(dict(times, total=time.perf_counter() - start))
    return {"stages_s": {k: median([r.get(k, 0.0) for r in runs])
                         for k in ("total",) + STAGES + GRID_STAGES}}


def sweep_times(dataset, params, repeat: int) -> dict:
    """Median prepare() time and per-grid-point finish() and report
    times of `repeat` wall sweeps."""
    from adclust.cli import (WALL_ALPHA_GRID, WALL_K_GRID,
                             build_cluster_report, cluster_metrics, dump_json)
    from adclust.core import finish, prepare

    grid = [(k, a) for a in WALL_ALPHA_GRID for k in WALL_K_GRID]
    runs = []
    with tempfile.TemporaryDirectory() as out:
        for _ in range(repeat):
            start = time.perf_counter()
            stage = prepare(dataset, params)
            run = [time.perf_counter() - start]
            for k, alpha in grid:
                start = time.perf_counter()
                result = finish(stage, k, alpha)
                run.append(time.perf_counter() - start)
                metrics = cluster_metrics(result, None)
                command = {"command": "sweep", "kind": "wall", "k": k,
                           "alpha": alpha, "run": 0}
                start = time.perf_counter()
                dump_json(build_cluster_report(dataset, result, None, command,
                                               metrics),
                          os.path.join(out, f"report_k{k:g}_a{alpha:g}.json"))
                run.append(time.perf_counter() - start)
            runs.append(run)
    cols = [median(col) for col in zip(*runs)]
    finish_s, report_s = cols[1::2], cols[2::2]
    return {"grid_points": len(grid), "prepare_s": cols[0],
            "finish_s": finish_s, "finish_total_s": round(sum(finish_s), 4),
            "report_s": report_s, "report_total_s": round(sum(report_s), 4)}


def game_times(root: Path, index: int, seed: int, repeat: int) -> dict:
    """Median build_tables, solve_leader and solve_follower times of
    `repeat` solves of GAMES[index]."""
    sys.path[:0] = [str(root / "src")]
    from adclust import game
    from adclust.game import build_tables, solve_follower, solve_leader
    from adclust.synthetic import game_preset

    # an older checkout may lack contraction_counts: banded_rows is null
    wrapped = hasattr(game, "contraction_counts")
    banded = []
    if wrapped:
        def counting(*args, counts=game.contraction_counts):
            order, reach, sure = counts(*args)
            banded.append(int((reach > sure).any(axis=1).sum()))
            return order, reach, sure
        game.contraction_counts = counting

    name, wall = GAMES[index]
    config = game_preset(name, wall_kind=wall, seed=seed)
    runs = []
    for _ in range(repeat):
        banded.clear()
        start = time.perf_counter()
        tables = build_tables(config)
        run = [time.perf_counter() - start]
        for solve in (solve_leader, solve_follower):
            start = time.perf_counter()
            solve(tables)
            run.append(time.perf_counter() - start)
        runs.append(run)
    stages = ("build_tables", "solve_leader", "solve_follower")
    return {"preset": name, "wall": wall,
            "banded_rows": sum(banded) if wrapped else None,
            "stages_s": {k: median(col) for k, col in zip(stages, zip(*runs))}}


def probe(root: Path, kind: str, value: int, seed: int, repeat: int) -> dict:
    if kind == "game":
        head, out = {}, game_times(root, value, seed, repeat)
    else:
        dataset, params = load(root, kind, value, seed)
        if kind == "sweep":
            out = sweep_times(dataset, params, repeat)
        else:
            out = stage_times(dataset, params, repeat)
        head = {"q": value} if kind == "q" else {}
        head["n"] = dataset.n
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {**head, "seed": seed, "repeat": repeat, **out,
            "peak_rss_mb": round(rss, 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="*", default=[5000, 20000],
                        help="resample sizes (none: no size line)")
    parser.add_argument("--with-100k", action="store_true")
    parser.add_argument("--q", type=int, nargs="+", default=[],
                        help="three_blobs dimensions to probe")
    parser.add_argument("--sweep", action="store_true",
                        help="add a 15-point wall sweep at N = 20k")
    parser.add_argument("--game", action="store_true",
                        help="add the three_adv_* game presets")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--one", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeat < 1 or any(v < 1 for v in args.sizes + args.q):
        parser.error("--sizes, --q and --repeat must be positive")
    root = args.root.resolve()
    if args.one is not None:
        kind, value = args.one[0], int(args.one[1])
        print(json.dumps(probe(root, kind, value, args.seed, args.repeat)))
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    lines = [("n", n) for n in args.sizes + ([100_000] if args.with_100k else [])]
    lines += [("q", q) for q in args.q]
    lines += [("sweep", SWEEP_N)] if args.sweep else []
    lines += [("game", i) for i in range(len(GAMES))] if args.game else []
    for kind, value in lines:
        out = subprocess.run(
            [sys.executable, __file__, "--one", kind, str(value), "--seed",
             str(args.seed), "--repeat", str(args.repeat), "--root",
             str(root)], env=env, check=True, capture_output=True, text=True)
        print(out.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
