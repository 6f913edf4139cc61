"""The game and sweep paths run under perfbench's tracer, which wraps
library attributes by name and reads specific call arguments."""
from __future__ import annotations

import contextlib
import io
import os
import sys
import time

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench")
sys.path.insert(0, BENCH)

from spans import Tracer  # noqa: E402

from adclust import cli  # noqa: E402
from adclust.game import solve_game  # noqa: E402
from adclust.synthetic import game_preset  # noqa: E402


def test_game_and_sweep_run_traced(tmp_path):
    config = game_preset("three_adv_log", wall_kind="manhattan",
                         sample_size=300)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        start = time.perf_counter()
        for orientation in ("leader", "follower"):
            solve_game(config, orientation)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["sweep", "--kind", "weight", "--preset", "sim1",
                             "--out", str(tmp_path / "sweep")]) == 0
        tracer.end_op(time.perf_counter() - start)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    for name in ("game.lattice_cells", "game.follower_profiles",
                 "walls.count", "report.bytes_written"):
        assert m[name] > 0, name
    assert tracer.min_gap_s >= 0
