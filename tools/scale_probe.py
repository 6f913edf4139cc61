"""Scale probe: per-stage wall times and peak RSS of one adclust() call
on the cluster_q2 benchmark input resampled to N points at q = 2.

    python3 tools/scale_probe.py [--sizes N ...] [--with-100k]
                                 [--repeat R] [--seed S] [--root DIR]

The input is the cluster_q2 workload's (perfbench/workloads.py, built
from --seed) with its rows drawn with replacement to N points, labels
included, plus N(0, 0.05^2) jitter on every coordinate; the parameters
are the workload's. The sizes default to 5k and 20k; --with-100k adds
N = 100,000, which needs several GB of memory. Each size runs in a fresh
process with one BLAS/OpenMP thread, so its peak RSS (ru_maxrss) is its
own. A stage time is the inclusive wall time of the calls adclust.core
makes to it (merge runs inside the three passes), the median over
--repeat calls. --root picks the checkout whose src/ and perfbench/ are
imported (default: the one holding this script), so one probe can
measure two checkouts. Prints one JSON object per size.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

STAGES = ("build_grid", "compute_rt", "rt_pairs", "compute_density",
          "compute_dt", "fit_kernel", "pipeline_scores", "pass3_global",
          "pass1_labeled", "pass2_residual", "merge", "match",
          "fit_region_stats", "fit_euclidean_wall", "fit_manhattan_wall")


def probe(root: Path, n: int, seed: int, repeat: int) -> dict:
    """Time `repeat` adclust() calls on the resampled input of size n."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import numpy as np
    import workloads
    from adclust import core
    from adclust.dataset import Dataset

    # cluster_q2 writes no files; its workdir is perfbench's ignored one
    base = workloads.cluster_q2(seed, str(root / ".perfbench_work"))
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, base.dataset.n, size=n)
    points = base.dataset.points[rows] + rng.normal(0.0, 0.05, (n, 2))
    dataset = Dataset(points, base.dataset.labels[rows])

    times: dict[str, float] = {}

    def timed(name, fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[name] = times.get(name, 0.0) + time.perf_counter() - start
        return call

    for name in STAGES:
        setattr(core, name, timed(name, getattr(core, name)))
    runs = []
    for _ in range(repeat):
        times.clear()
        start = time.perf_counter()
        core.adclust(dataset, base.params)
        runs.append(dict(times, total=time.perf_counter() - start))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"n": n, "seed": seed, "repeat": repeat,
            "stages_s": {k: round(float(np.median([r.get(k, 0.0) for r in runs])), 4)
                         for k in ("total",) + STAGES},
            "peak_rss_mb": round(rss, 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[5000, 20000])
    parser.add_argument("--with-100k", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeat < 1 or min(args.sizes) < 1:
        parser.error("--sizes and --repeat must be positive")
    root = args.root.resolve()
    if args.one is not None:
        print(json.dumps(probe(root, args.one, args.seed, args.repeat)))
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    for n in args.sizes + ([100_000] if args.with_100k else []):
        out = subprocess.run(
            [sys.executable, __file__, "--one", str(n), "--seed",
             str(args.seed), "--repeat", str(args.repeat), "--root",
             str(root)], env=env, check=True, capture_output=True, text=True)
        print(out.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
