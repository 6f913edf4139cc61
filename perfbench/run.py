"""adclust benchmark: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src. Each
workload runs in fresh worker processes with the OpenBLAS, OpenMP and
MKL thread counts set to 1: one main process (set-up, a checked warm-up
operation, then whole cycles of operations in a closed loop, one in
flight, until S seconds have passed), plus, untraced, SETUPS - 1 more
processes that only set up, so setup_s is a median. --trace 1 runs the
main process alone with per-layer spans and reports per-layer metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cluster_q2", "cluster_q8", "game_solve", "preset_sweep")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUPS = 3
DEADLINE_S = 170.0
END_TO_END = {"ops_per_s": "1/s", "op_p50_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def _spawn(args, role: str, index: int, workdir: str, env: dict,
           deadline: float) -> dict:
    result = os.path.join(workdir, f"{role}{index}.json")
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--role", role, "--workdir", workdir, "--result", result,
         "--t0", repr(t0)], env=env)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{role} worker passed the {DEADLINE_S:g} s deadline")
    if code != 0:
        raise RuntimeError(f"{role} worker exited {code}")
    with open(result) as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "adclust", "__init__.py")):
        print(f"error: no adclust sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0", **THREAD_ENV)
    print("threads: " + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items()))

    scratch = os.path.join(root, ".perfbench_work")
    workdir = os.path.join(scratch, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        main_run = _spawn(args, "main", 0, workdir, env, deadline)
        setups = [] if args.trace else [
            _spawn(args, "setup", i, workdir, env, deadline) for i in range(1, SETUPS)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(scratch)

    if main_run["op_p50_s"] is None:
        print("error: no operation completed", file=sys.stderr)
        return 1
    verdicts = [tuple(v) for v in main_run["verdicts"]]
    if setups:
        same = sum(s["warmup_digest"] == main_run["warmup_digest"] for s in setups)
        verdicts.append(("setup_warmups_identical", same == len(setups),
                         f"{same} of {len(setups)} set-up processes match the "
                         f"main warm-up output", False))
    for name, passed, detail, fault in verdicts:
        state = "PASS" if passed else (
            "FAIL, known library fault: its operations count as failed" if fault
            else "FAIL")
        print(f"check {name}: {state} ({detail})")

    if args.trace:
        print(f"traced op_p50_s = {main_run['op_p50_s']!r} s")
        metrics = main_run["trace"]
    else:
        values = {"ops_per_s": main_run["ops_per_s"], "op_p50_s": main_run["op_p50_s"],
                  "setup_s": statistics.median(
                      [main_run["setup_s"]] + [s["setup_s"] for s in setups]),
                  "peak_rss_mb": main_run["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"attempted {main_run['attempted']}, failed {main_run['failed']}")
    # A known-fault failure is counted in `failed`; `correct` speaks of
    # every other check.
    print(json.dumps({"correct": all(passed or fault for _, passed, _, fault in verdicts),
                      "attempted": main_run["attempted"],
                      "failed": main_run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
