"""One workload process: set-up, warm-up, timed closed loop, checks.

Started by run.py with the numeric-library thread counts pinned. Writes
its measurements as JSON to --result. With --role setup it stops after
the warm-up, so run.py can time set-up in several fresh processes.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--role", choices=("main", "setup"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    args = parser.parse_args()

    from workloads import WORKLOADS
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    ops = wl.ops
    first = {0: wl.run(ops[0])}
    setup_s = time.monotonic() - args.t0
    digests = {0: wl.digest(ops[0], first[0])}
    out = {"setup_s": setup_s, "warmup_digest": digests[0]}
    if args.role == "setup":
        return _write(args.result, out)
    if tracer:
        tracer.end_setup()

    times, failed, attempted, repeats, mismatched = [], 0, 0, 0, 0
    completed = [0] * len(ops)
    loop_start = time.perf_counter()
    while True:
        for index, op in enumerate(ops):
            attempted += 1
            if tracer:
                tracer.begin_op()
            start = time.perf_counter()
            try:
                output = wl.run(op)
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            elapsed = time.perf_counter() - start
            times.append(elapsed)
            completed[index] += 1
            if tracer:
                tracer.end_op(elapsed)
            digest = wl.digest(op, output)
            if index in first:
                repeats += 1
                mismatched += digest != digests[index]
                wl.discard(op, output)
            else:
                first[index], digests[index] = output, digest
        if time.perf_counter() - loop_start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts = [("repeats_identical", mismatched == 0,
                 f"{repeats} repeated operations, {mismatched} differ from the "
                 f"first output of the same operation", False)]
    checked, fault_failed = check_outputs(wl, first, completed)
    verdicts += checked
    failed += fault_failed
    out.update(attempted=attempted, failed=failed, peak_rss_mb=peak_rss_mb,
               op_p50_s=statistics.median(times) if times else None,
               ops_per_s=len(times) / sum(times) if times else None,
               verdicts=verdicts)
    if tracer:
        from spans import METRICS
        trace = tracer.metrics()
        verdicts.append(("trace_nonnegative",
                         tracer.min_gap_s >= 0 and tracer.min_self_s >= 0,
                         f"over {tracer.ops} operations the smallest gap is "
                         f"{tracer.min_gap_s!r} s and the smallest span self "
                         f"time {tracer.min_self_s!r} s", False))
        out["trace"] = {k: {"value": v, "unit": METRICS[k][0]} for k, v in trace.items()}
    return _write(args.result, out)


def check_outputs(wl, first: dict, completed: list) -> tuple[list, int]:
    """Check the first output of each operation of the cycle. Returns the
    verdicts as (name, passed, detail, known_fault) and the number of
    operations failed by the workload's known fault: when its check fails
    on an operation's first output, every completed run of that operation
    (all equal to the first) counts as failed."""
    verdicts, failed = [], 0
    for index in sorted(first):
        try:
            checked = wl.check(index, wl.ops[index], first[index])
        except Exception as exc:  # a check that cannot run is a failed check
            traceback.print_exc()
            verdicts.append((f"checks[op{index}]", False, f"raised {exc!r}", False))
            continue
        for v in checked:
            fault = not v.passed and v.name == wl.known_fault
            if fault:
                failed += completed[index]
            verdicts.append((f"{v.name}[op{index}]", bool(v.passed), v.detail, fault))
    return verdicts, failed


def _write(path: str, payload: dict) -> int:
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
