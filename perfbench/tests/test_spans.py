"""The tracer nests spans, adds up to the operation time, and unwinds."""
from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import adclust.core  # noqa: E402
from adclust.synthetic import simulation_preset  # noqa: E402
from spans import METRICS, SPANS, Tracer  # noqa: E402


def test_spans_add_up_and_uninstall_restores():
    original = adclust.core.merge
    dataset, _, params = simulation_preset("sim1", seed=0)
    tracer = Tracer()
    tracer.install()
    try:
        assert adclust.core.merge is not original
        tracer.begin_op()
        start = time.perf_counter()
        adclust.core.adclust(dataset, params)
        tracer.end_op(time.perf_counter() - start)
    finally:
        tracer.uninstall()
    assert adclust.core.merge is original
    m = tracer.metrics()
    parts = sum(m[k] for k in SPANS) + m["trace.gap_s"]
    assert abs(parts - m["trace.op_s"]) <= 1e-9 * m["trace.op_s"]
    assert tracer.min_gap_s >= 0 and tracer.min_self_s >= 0
    # two sign-separated merges in pass 1, one each in passes 2 and 3
    assert m["core.merge_calls"] == 4
    assert m["grid.occupied_cells"] > 0
    assert m["grid.distance_evals"] >= dataset.n
    assert m["core.rt_edges"] > 0


def test_gap_turns_negative_when_spans_exceed_the_operation():
    dataset, _, params = simulation_preset("sim1", seed=0)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        adclust.core.adclust(dataset, params)
        tracer.end_op(0.0)  # an operation time shorter than its spans
    finally:
        tracer.uninstall()
    assert tracer.min_gap_s < 0


def test_benchmark_json_matches_the_metrics_printed():
    import json
    import run
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == METRICS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
