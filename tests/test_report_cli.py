"""Command-line surface: reports, determinism, exit codes."""
from __future__ import annotations

import csv
import dataclasses
import json

import numpy as np
import pytest

from adclust import cli, core
from adclust.cli import main
from adclust.core import adclust
from adclust.dataset import (Dataset, ingest_csv, label_token,
                             read_truth_csv, write_csv)
from adclust.game import solve_game
from adclust.report import (build_cluster_report, build_game_report,
                            cluster_metrics, dump_json)
from adclust.synthetic import game_preset, simulation_preset
from adclust.walls import eta_of_alpha, stats_from_moments


def blob_csv(path, seed=5, n=60, gap=8.0):
    rng = np.random.default_rng(seed)
    normal = rng.normal((0.0, 0.0), 0.4, size=(n, 2))
    abnormal = rng.normal((gap, 0.0), 0.4, size=(n, 2))
    pts = np.vstack([normal, abnormal])
    labels = np.full(2 * n, -1, dtype=np.int8)
    labels[:4] = 1
    labels[n:n + 4] = 0
    write_csv(str(path), Dataset(pts, labels))
    return str(path)


CLUSTER_FLAGS = ["--coef-rt", "0.9", "--bandwidth", "0.5",
                 "--min-wall-size", "10", "--k", "10", "--alpha", "0.6"]


def run_cluster(csv_path, out_dir, extra=()):
    return main(["cluster", "--input", csv_path, "--out", str(out_dir),
                 *CLUSTER_FLAGS, *extra])


def test_cluster_writes_report_svg_and_timing(tmp_path, capsys):
    csv_path = blob_csv(tmp_path / "d.csv")
    out = tmp_path / "out"
    assert run_cluster(csv_path, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["schema_version"] == "1"
    assert report["kind"] == "cluster"
    assert report["params"]["alpha"] == 0.6
    assert report["params"]["coef_rt"] == 0.9
    assert report["metrics"]["wall_count"] == 1
    assert len(report["points"]["rows"]) == 120
    assert (out / "regions.svg").read_text().startswith("<svg")
    timing = json.loads((out / "timing.json").read_text())
    assert timing["wall_seconds"] > 0
    shown = capsys.readouterr().out
    assert "walls=1" in shown
    assert "report:" in shown


def test_cluster_report_is_byte_deterministic(tmp_path):
    csv_path = blob_csv(tmp_path / "d.csv")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cluster(csv_path, out1) == 0
    assert run_cluster(csv_path, out2) == 0
    assert (out1 / "report.json").read_bytes() == \
        (out2 / "report.json").read_bytes()
    assert (out1 / "regions.svg").read_bytes() == \
        (out2 / "regions.svg").read_bytes()


def test_cluster_higher_dimensional_input_skips_svg(tmp_path, capsys):
    rng = np.random.default_rng(8)
    pts = np.vstack([rng.normal(0.0, 0.4, size=(40, 3)),
                     rng.normal(6.0, 0.4, size=(40, 3))])
    labels = np.full(80, -1, dtype=np.int8)
    labels[:3] = 1
    labels[40:43] = 0
    csv_path = str(tmp_path / "d3.csv")
    write_csv(csv_path, Dataset(pts, labels))
    out = tmp_path / "out"
    assert run_cluster(csv_path, out) == 0
    assert (out / "report.json").exists()
    assert not (out / "regions.svg").exists()
    assert "metrics-only" in capsys.readouterr().out


# config value, flag value; wall_kind comes from --wall
PRECEDENCE = {"alpha": (0.8, 0.7), "k": (10.0, 30.0), "seed": (1, 2),
              "coef_rt": (0.9, 1.1), "coef_dt": (0.9, 1.2),
              "bandwidth": (0.5, 0.6), "target_fraction": (0.1, 0.2),
              "min_wall_size": (10, 12),
              "wall_kind": ("manhattan", "euclidean")}


@pytest.mark.parametrize("name", [*cli._CLUSTER_FLAGS, "wall_kind"])
def test_cluster_config_file_and_flag_precedence(tmp_path, name):
    csv_path = blob_csv(tmp_path / "d.csv")
    config = tmp_path / "run.ini"
    keys = {"coef_rt": 0.9, "bandwidth": 0.5, "min_wall_size": 10, "k": 10,
            name: PRECEDENCE[name][0]}
    config.write_text("[cluster]\n" + "".join(f"{key} = {value}\n"
                                              for key, value in keys.items()))
    out1 = tmp_path / "from_config"
    assert main(["cluster", "--input", csv_path, "--out", str(out1),
                 "--config", str(config)]) == 0
    report = json.loads((out1 / "report.json").read_text())
    assert report["params"][name] == PRECEDENCE[name][0]
    # a command-line flag beats the same key in the config
    flag = "--wall" if name == "wall_kind" else "--" + name.replace("_", "-")
    out2 = tmp_path / "flag_wins"
    assert main(["cluster", "--input", csv_path, "--out", str(out2),
                 "--config", str(config), flag,
                 str(PRECEDENCE[name][1])]) == 0
    report = json.loads((out2 / "report.json").read_text())
    assert report["params"][name] == PRECEDENCE[name][1]


def test_cluster_with_truth_fills_metrics(tmp_path):
    csv_path = blob_csv(tmp_path / "d.csv")
    truth = tmp_path / "truth.csv"
    lines = ["x,label"] + ["0,normal"] * 60 + ["0,abnormal"] * 60
    truth.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run_cluster(csv_path, out, ("--truth", str(truth))) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metrics"]["wall_purity"] == 1.0


def test_exit_code_two_on_validation_problems(tmp_path, capsys):
    csv_path = blob_csv(tmp_path / "d.csv")
    bad_config = tmp_path / "bad.ini"
    bad_config.write_text("[cluster]\nbogus = 1\n")
    assert main(["cluster", "--input", csv_path, "--out",
                 str(tmp_path / "o1"), "--config", str(bad_config)]) == 2
    assert "unknown config key" in capsys.readouterr().err

    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("x0,x1,label\n1.0,2.0,mystery\n")
    assert main(["cluster", "--input", str(bad_csv),
                 "--out", str(tmp_path / "o2")]) == 2

    short_truth = tmp_path / "short.csv"
    short_truth.write_text("x,label\n0,normal\n")
    assert run_cluster(csv_path, tmp_path / "o3",
                       ("--truth", str(short_truth))) == 2
    assert "do not match" in capsys.readouterr().err
    assert main(["sweep", "--kind", "weight", "--input", csv_path,
                 "--truth", str(short_truth),
                 "--out", str(tmp_path / "o5")]) == 2
    assert "do not match" in capsys.readouterr().err

    ragged_truth = tmp_path / "ragged.csv"
    ragged_truth.write_text("x,label\n0\n" + "0,normal\n" * 119)
    assert run_cluster(csv_path, tmp_path / "o6",
                       ("--truth", str(ragged_truth))) == 2
    assert "row 1 has 1 cells, expected 2" in capsys.readouterr().err

    # finite values whose squared distances overflow
    huge = tmp_path / "huge.csv"
    rng = np.random.default_rng(0)
    labels = np.full(40, -1, dtype=np.int8)
    labels[:3], labels[20:23] = 1, 0
    write_csv(str(huge), Dataset(rng.normal(size=(40, 2)) * 1e200, labels))
    assert main(["cluster", "--input", str(huge),
                 "--out", str(tmp_path / "o4")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflow" in err
    assert "Traceback" not in err

    # distinct points whose squared differences underflow to zero
    tiny = tmp_path / "tiny.csv"
    labels = np.full(60, -1, dtype=np.int8)
    labels[:3], labels[30:33] = 1, 0
    write_csv(str(tiny), Dataset(rng.uniform(size=(60, 2)) * 1e-300, labels))
    assert main(["cluster", "--input", str(tiny),
                 "--out", str(tmp_path / "o7")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "underflow" in err
    assert "coincident" not in err

    no_draws = tmp_path / "g.ini"
    no_draws.write_text("[game]\neta_sample_size = 0\n")
    for wall in ("manhattan", "euclidean"):
        assert main(["game", "--preset", "one_adv_log", "--orientation",
                     "leader", "--wall", wall, "--config", str(no_draws),
                     "--out", str(tmp_path / "o6")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "eta_sample_size" in err
    negative_draws = tmp_path / "c.ini"
    negative_draws.write_text("[cluster]\neta_sample_size = -5\n")
    assert run_cluster(csv_path, tmp_path / "o8",
                       ("--wall", "euclidean",
                        "--config", str(negative_draws))) == 2
    assert "eta_sample_size" in capsys.readouterr().err

    # distinct rows whose distances underflow next to a stack of copies:
    # the extent is fine, the computed rt is zero
    partial = tmp_path / "partial.csv"
    pts = np.vstack([rng.uniform(size=(30, 2)) * 1e-300, np.ones((30, 2))])
    write_csv(str(partial), Dataset(pts, labels))
    assert main(["cluster", "--input", str(partial),
                 "--out", str(tmp_path / "o9")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "coincident" in err and "underflow" in err

    def assert_one_error_line(code, *words):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(word in err for word in words), err

    # non-finite parameters, a negative seed
    for flag, value, word in (("--coef-rt", "nan", "coefficients"),
                              ("--coef-dt", "inf", "coefficients"),
                              ("--k", "nan", "k must"),
                              ("--bandwidth", "nan", "bandwidth"),
                              ("--seed", "-1", "seed")):
        assert_one_error_line(
            run_cluster(csv_path, tmp_path / "o10",
                        (flag, value, "--label-fraction", "0.5")), word)
    for section, line, word in (("cluster", "log_base = nan", "log_base"),
                                ("cluster", "min_wall_size = maybe",
                                 "cannot parse"),
                                ("game", "cost_c = nan", "cost_c")):
        config = tmp_path / f"{section}.ini"
        config.write_text(f"[{section}]\n{line}\n")
        if section == "cluster":
            code = run_cluster(csv_path, tmp_path / "o11",
                               ("--config", str(config)))
        else:
            code = main(["game", "--preset", "one_adv_log", "--orientation",
                         "leader", "--config", str(config),
                         "--out", str(tmp_path / "o11")])
        assert_one_error_line(code, word)
    stats = tmp_path / "stats.json"
    stats.write_text('{"mean": [0, 0], "covariance": [[1, 0], [0, 1]]}')
    for argv in (["simulate", "--preset", "sim1",
                  "--out", str(tmp_path / "s.csv")],
                 ["game", "--preset", "one_adv_log", "--orientation",
                  "leader", "--out", str(tmp_path / "o12")],
                 ["sweep", "--kind", "weight", "--preset", "sim1",
                  "--out", str(tmp_path / "o12")],
                 ["sweep", "--kind", "weight", "--input", csv_path,
                  "--label-fraction", "0.5", "--out", str(tmp_path / "o12")],
                 ["eta", "--alpha", "0.5", "--stats", str(stats)]):
        assert_one_error_line(main([*argv, "--seed", "-1"]), "seed")


def test_exit_code_three_on_degenerate_geometry(tmp_path, capsys):
    isolated = tmp_path / "corners.csv"
    isolated.write_text("x0,x1,label\n"
                        "0.0,0.0,normal\n"
                        "0.0,100.0,\n"
                        "100.0,0.0,\n"
                        "100.0,100.0,abnormal\n")
    assert main(["cluster", "--input", str(isolated),
                 "--out", str(tmp_path / "o")]) == 3
    assert "degenerate" in capsys.readouterr().err


@pytest.mark.parametrize("q", [12, 20])
def test_exit_code_three_on_high_q_isolated_points(tmp_path, capsys, q):
    pts = np.random.default_rng(q).uniform(size=(300, q))
    labels = np.full(300, -1, dtype=np.int8)
    labels[:3] = 1
    labels[3:6] = 0
    csv_path = str(tmp_path / "high_q.csv")
    write_csv(csv_path, Dataset(pts, labels))
    assert main(["cluster", "--input", csv_path,
                 "--out", str(tmp_path / "o")]) == 3
    assert "degenerate" in capsys.readouterr().err


def test_simulate_round_trips_bit_exactly(tmp_path):
    out_csv = tmp_path / "sim3.csv"
    assert main(["simulate", "--preset", "sim3", "--seed", "4",
                 "--out", str(out_csv)]) == 0
    direct, truth, _ = simulation_preset("sim3", seed=4)
    back, _ = ingest_csv(str(out_csv))
    np.testing.assert_array_equal(back.points, direct.points)
    np.testing.assert_array_equal(back.labels, direct.labels)
    truth_back = read_truth_csv(str(tmp_path / "sim3.truth.csv"))
    np.testing.assert_array_equal(truth_back, truth)


def test_game_cli_writes_report_and_landscape(tmp_path, capsys):
    out = tmp_path / "g"
    assert main(["game", "--preset", "one_adv_log", "--orientation",
                 "leader", "--samples", "400", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["kind"] == "game"
    assert report["command"]["samples"] == 400
    assert report["config"]["cost_c"] == 20.0
    eq = report["equilibrium"]
    assert eq["orientation"] == "leader"
    assert 0.0 < eq["alpha"] < 1.0
    assert len(eq["t"]) == 1
    landscape = (out / "landscape.csv").read_text().splitlines()
    assert landscape[0] == ("adversary,t,alpha,attacker_utility,"
                            "adversary_error,normal_error")
    # one adversary, 101 t values, 99 alphas
    assert len(landscape) == 1 + 101 * 99
    assert (out / "timing.json").exists()
    assert "one_adv_log leader" in capsys.readouterr().out


def test_game_cli_is_byte_deterministic(tmp_path):
    args = ["game", "--preset", "one_adv_linear", "--orientation",
            "follower", "--samples", "300"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == \
        (out2 / "report.json").read_bytes()
    assert (out1 / "landscape.csv").read_bytes() == \
        (out2 / "landscape.csv").read_bytes()


def test_landscape_cells_are_plain_numbers(tmp_path):
    out = tmp_path / "g"
    assert main(["game", "--preset", "one_adv_exp", "--orientation",
                 "follower", "--samples", "300", "--out", str(out)]) == 0
    lines = (out / "landscape.csv").read_text().splitlines()
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 6
        for cell in cells:
            float(cell)


def test_dump_json_matches_the_indenting_encoder(tmp_path):
    dataset, truth, params = simulation_preset("sim1", seed=0)
    result = adclust(dataset, params)
    reports = [build_cluster_report(dataset, result, t, {"command": "x"},
                                    cluster_metrics(result, t))
               for t in (truth, None)]
    eq, tables = solve_game(game_preset("one_adv_log", sample_size=300),
                            "leader")
    reports.append(build_game_report(eq, tables, {"command": "game"}))
    rows = [[-3, None, True, False, 0, -1], [2, -1, -1, 1, None, True]]
    for cut in ([], rows[:1], rows):
        reports.append({**reports[1],
                        "points": {"columns": ["c"] * 6, "rows": cut}})
    reports.append({"points": {"rows": [[None]]}, "z": np.arange(3)})
    assert any(-1 in row for row in reports[0]["points"]["rows"])
    assert any(None in row for row in reports[1]["points"]["rows"])
    for i, rep in enumerate(reports):
        path = tmp_path / f"r{i}.json"
        dump_json(rep, str(path))
        assert path.read_text() == json.dumps(
            rep, sort_keys=True, indent=2,
            default=lambda v: v.tolist()) + "\n", i


def test_game_cli_config_section(tmp_path):
    config = tmp_path / "g.ini"
    config.write_text("[game]\nsample_size = 250\ncost_c = 5.0\n")
    out = tmp_path / "g"
    assert main(["game", "--preset", "one_adv_log", "--orientation",
                 "leader", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["command"]["samples"] == 250
    assert report["config"]["cost_c"] == 5.0


# alpha_step = 1.0 divides [0, 1] but leaves no wall level inside it;
# joint_t_step = 0.125 is a valid step but no multiple of t_step = 0.01,
# which only the follower's joint lattice would otherwise notice
@pytest.mark.parametrize("line", ["cost_c = -5", "alpha_step = 0",
                                  "alpha_step = 1.0", "joint_t_step = 0.125",
                                  "joint_budget = 0"])
def test_game_cli_validates_config_values(tmp_path, capsys, line):
    config = tmp_path / "g.ini"
    config.write_text(f"[game]\nsample_size = 50\n{line}\n")
    assert main(["game", "--preset", "three_adv_log", "--orientation",
                 "leader", "--config", str(config),
                 "--out", str(tmp_path / "g")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("command", ["cluster", "sweep"])
def test_removed_exact_density_key_exits_two_before_any_work(tmp_path, capsys,
                                                             command):
    config = tmp_path / "c.ini"
    config.write_text("[cluster]\nexact_density = true\n")
    source = {"cluster": ["--input", blob_csv(tmp_path / "d.csv")],
              "sweep": ["--kind", "weight", "--preset", "sim1"]}[command]
    assert main([command, *source, "--config", str(config),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "unknown config key 'exact_density'" in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["cluster", "sweep"])
@pytest.mark.parametrize("value", ["1.0", "nan"])
def test_bad_log_base_exits_two_before_any_work(tmp_path, capsys, command,
                                                value):
    config = tmp_path / "c.ini"
    config.write_text(f"[cluster]\nlog_base = {value}\n")
    source = {"cluster": ["--input", blob_csv(tmp_path / "d.csv")],
              "sweep": ["--kind", "weight", "--preset", "sim1"]}[command]
    assert main([command, *source, "--config", str(config),
                 "--out", str(tmp_path / "o")]) == 2
    assert "log_base" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_matches_across_worker_counts(tmp_path):
    csv_path = blob_csv(tmp_path / "d.csv")
    config = tmp_path / "sweep.ini"
    config.write_text("[cluster]\ncoef_rt = 0.9\nbandwidth = 0.5\n"
                      "min_wall_size = 10\n")
    # two runs, so that --workers 2 starts a pool of two
    for kind, points in (("weight", 5), ("wall", 15)):
        base = ["sweep", "--kind", kind, "--input", csv_path,
                "--config", str(config), "--runs", "2", "--seed", "0"]
        out1, out2 = tmp_path / f"{kind}1", tmp_path / f"{kind}2"
        assert main([*base, "--workers", "1", "--out", str(out1)]) == 0
        assert main([*base, "--workers", "2", "--out", str(out2)]) == 0
        assert (out1 / "aggregate.csv").read_bytes() == \
            (out2 / "aggregate.csv").read_bytes()
        names = sorted(p.name for p in out1.glob("report_*.json"))
        assert names == sorted(p.name for p in out2.glob("report_*.json"))
        assert len(names) == 2 * points  # one per run and grid point
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_sweep_aggregate_covers_the_grid(tmp_path):
    csv_path = blob_csv(tmp_path / "d.csv")
    config = tmp_path / "sweep.ini"
    config.write_text("[cluster]\ncoef_rt = 0.9\nbandwidth = 0.5\n"
                      "min_wall_size = 10\n")
    out = tmp_path / "out"
    assert main(["sweep", "--kind", "weight", "--input", csv_path,
                 "--config", str(config), "--out", str(out)]) == 0
    lines = (out / "aggregate.csv").read_text().splitlines()
    assert lines[0].split(",")[:4] == ["k", "alpha", "seed", "run"]
    ks = [float(line.split(",")[0]) for line in lines[1:]]
    assert ks == [1.0, 10.0, 30.0, 50.0, 100.0]


def test_sweep_requires_exactly_one_source(tmp_path):
    csv_path = blob_csv(tmp_path / "d.csv")
    assert main(["sweep", "--kind", "weight",
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["sweep", "--kind", "weight", "--preset", "sim1",
                 "--input", csv_path, "--out", str(tmp_path / "o")]) == 2
    # a preset brings its own truth and labels
    truth = tmp_path / "t.csv"
    truth.write_text("label\n" + "normal\n" * 600)
    for flag in (["--truth", str(truth)], ["--label-fraction", "0.5"]):
        assert main(["sweep", "--kind", "weight", "--preset", "sim1", *flag,
                     "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_sweep_pool_is_clamped_to_the_task_count(tmp_path, monkeypatch):
    sizes = []

    class SerialPool:
        """Records the requested size and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    csv_path = blob_csv(tmp_path / "d.csv")
    base = ["sweep", "--input", csv_path, "--label-fraction", "0.5"]
    # one task per run: the pool never outgrows --runs
    for kind, runs, workers, size in (("weight", 3, 64, 3),
                                      ("weight", 3, 2, 2),
                                      ("wall", 2, 20, 2)):
        assert main([*base, "--kind", kind, "--runs", str(runs), "--workers",
                     str(workers), "--out", str(tmp_path / kind)]) == 0
        assert sizes.pop() == size
    for kind, runs, workers in (("weight", 1, 1), ("wall", 1, 4),
                                ("weight", 3, 1)):
        assert main([*base, "--kind", kind, "--runs", str(runs), "--workers",
                     str(workers), "--out", str(tmp_path / "serial")]) == 0
    assert sizes == []


@pytest.mark.parametrize("flag, value", [
    ("--runs", "0"), ("--runs", "-2"), ("--workers", "0"),
    ("--workers", "-1")])
def test_sweep_rejects_counts_below_one(tmp_path, capsys, flag, value):
    assert main(["sweep", "--kind", "weight", "--preset", "sim1", flag, value,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "at least 1" in err
    assert not (tmp_path / "o").exists()


def count_calls(monkeypatch, module, names):
    """Wrap each named attribute of module; returns the live call counts."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name))
    return calls


def test_sweep_loads_each_run_once(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, cli, ["ingest_csv", "simulation_preset"])
    csv_path = blob_csv(tmp_path / "d.csv")
    for kind in ("weight", "wall"):
        assert main(["sweep", "--kind", kind, "--input", csv_path,
                     "--label-fraction", "0.5", "--runs", "2",
                     "--out", str(tmp_path / kind)]) == 0
    assert calls == {"ingest_csv": 4, "simulation_preset": 0}
    assert main(["sweep", "--kind", "weight", "--preset", "sim1", "--runs",
                 "2", "--out", str(tmp_path / "preset")]) == 0
    assert calls == {"ingest_csv": 4, "simulation_preset": 2}
    assert len(list((tmp_path / "preset").glob("report_*.json"))) == 10


def test_sweep_prepares_each_run_once(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, core, ["compute_rt", "rt_graph"])
    out = tmp_path / "sweep"
    assert main(["sweep", "--kind", "weight", "--input",
                 blob_csv(tmp_path / "d.csv"), "--label-fraction", "0.5",
                 "--runs", "2", "--out", str(out)]) == 0
    assert len(list(out.glob("report_*.json"))) == 10
    assert calls == {"compute_rt": 2, "rt_graph": 2}


def draws_and_walls_written(tmp_path, monkeypatch, kind):
    """A two-run Manhattan sweep of sim2: (run seed, position, member
    count, mean bytes) of every calibration draw, and the same key of
    every wall its reports write."""
    draws = []
    real = core.calibration_scores

    def counted(stats, sample_size, seed):
        draws.append((tuple(seed), stats.member_count, stats.mean.tobytes()))
        return real(stats, sample_size, seed=seed)

    monkeypatch.setattr(core, "calibration_scores", counted)
    out = tmp_path / kind
    assert main(["sweep", "--kind", kind, "--preset", "sim2", "--wall",
                 "manhattan", "--runs", "2", "--out", str(out)]) == 0
    written = []
    for path in out.glob("report_*.json"):
        rep = json.loads(path.read_text())
        written += [((rep["params"]["seed"], pos), wall["member_count"],
                     np.asarray(wall["mean"]).tobytes())
                    for pos, wall in enumerate(rep["walls"])]
    return draws, written


def test_sweep_fits_each_wall_once_per_run(tmp_path, monkeypatch):
    """k varies: one calibration draw per (run seed, position, members)."""
    draws, written = draws_and_walls_written(tmp_path, monkeypatch, "weight")
    assert sorted(draws) == sorted(set(written))
    assert len(draws) < len(written)


def test_wall_sweep_draws_each_calibration_once_per_run(tmp_path,
                                                        monkeypatch):
    """alpha varies: the levels of one region share its draw."""
    draws, written = draws_and_walls_written(tmp_path, monkeypatch, "wall")
    assert sorted(draws) == sorted(set(written))
    assert len(draws) < len(written)


def test_wall_sweep_runs_the_passes_once_per_k(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, core, ["pass1_labeled", "pass2_residual",
                                            "match"])
    assert main(["sweep", "--kind", "wall", "--preset", "sim3", "--runs", "2",
                 "--out", str(tmp_path / "sweep")]) == 0
    # 2 runs x 3 distinct k, not 2 runs x 15 grid points
    assert calls == dict.fromkeys(calls, 2 * len(set(cli.WALL_K_GRID)))


@pytest.mark.parametrize("kind, preset, wall", [
    ("weight", "sim1", "euclidean"), ("wall", "sim2", "manhattan"),
    ("wall", "sim3", "euclidean"), ("weight", "sim3", "manhattan")])
def test_sweep_reports_equal_direct_adclust_reports(tmp_path, kind, preset,
                                                    wall):
    out = tmp_path / "sweep"
    assert main(["sweep", "--kind", kind, "--preset", preset, "--wall", wall,
                 "--seed", "3", "--out", str(out)]) == 0
    dataset, truth, params = simulation_preset(preset, seed=3, wall_kind=wall)
    grid = ([(k, 0.6) for k in cli.WEIGHT_GRID] if kind == "weight" else
            [(k, a) for a in cli.WALL_ALPHA_GRID for k in cli.WALL_K_GRID])
    direct = tmp_path / "direct.json"
    for k, alpha in grid:
        result = adclust(dataset, dataclasses.replace(params, k=k,
                                                      alpha=alpha))
        command = {"command": "sweep", "kind": kind, "k": k, "alpha": alpha,
                   "run": 0}
        dump_json(build_cluster_report(dataset, result, truth, command,
                                       cluster_metrics(result, truth)),
                  str(direct))
        name = f"report_k{k:g}_a{alpha:g}_r0.json"
        assert direct.read_bytes() == (out / name).read_bytes(), name


def test_one_metrics_pass_per_report(tmp_path, monkeypatch):
    calls = []
    real = cli.cluster_metrics

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(cli, "cluster_metrics", counted)
    monkeypatch.setattr("adclust.report.cluster_metrics", counted)
    csv_path = blob_csv(tmp_path / "d.csv")
    out = tmp_path / "sweep"
    assert main(["sweep", "--kind", "weight", "--input", csv_path,
                 "--label-fraction", "0.5", "--out", str(out)]) == 0
    assert len(calls) == 5
    with open(out / "aggregate.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    for row in rows:
        name = f"report_k{float(row['k']):g}_a{float(row['alpha']):g}_r0.json"
        metrics = json.loads((out / name).read_text())["metrics"]
        counts = metrics["region_counts"]
        assert int(row["mixed_count"]) == counts["mixed_overlap"]
        assert int(row["outlier_count"]) == counts["outlier"]
        for key in ("mixed_plus_outliers", "wall_count"):
            assert int(row[key]) == metrics[key]
        for key in ("abnormal_fraction_mixed", "wall_purity"):
            want = metrics[key]
            assert row[key] == ("" if want is None else repr(want))
    calls.clear()
    assert run_cluster(csv_path, tmp_path / "cluster") == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["cluster", "game", "sweep", "simulate"])
def test_unwritable_out_exits_two(tmp_path, capsys, monkeypatch, command):
    def no_work(*args):
        raise AssertionError("computed before --out was checked")

    monkeypatch.setattr(cli, "adclust", no_work)
    monkeypatch.setattr(cli, "solve_game", no_work)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    argv = {"cluster": ["cluster", "--input", blob_csv(tmp_path / "d.csv"),
                        *CLUSTER_FLAGS],
            "game": ["game", "--preset", "one_adv_log", "--orientation",
                     "leader", "--samples", "300"],
            "sweep": ["sweep", "--kind", "weight", "--input",
                      blob_csv(tmp_path / "d.csv"), "--label-fraction", "0.5"],
            "simulate": ["simulate", "--preset", "sim1"]}[command]
    # simulate writes a file: an existing directory is what it cannot write
    named = tmp_path if command == "simulate" else blocker
    for out in (named, blocker / "sub"):
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert blocker.read_text() == "a file, not a directory\n"


SWEEP_INPUT = ["sweep", "--kind", "weight", "--label-fraction", "0.5"]


@pytest.mark.parametrize("command, name, extra", [
    ("cluster", "report.json", ()),
    ("cluster", "regions.svg", ()),
    ("cluster", "timing.json", ()),
    ("game", "report.json", ()),
    ("game", "landscape.csv", ()),
    ("sweep", "report_k10_a0.6_r0.json", ()),
    ("sweep", "aggregate.csv", ()),
    ("sweep", "report_k10_a0.6_r1.json", ("--runs", "2", "--workers", "2")),
    ("sweep", "aggregate.csv", ("--runs", "2", "--workers", "2"))],
    ids=["cluster_report", "cluster_svg", "cluster_timing", "game_report",
         "game_landscape", "sweep_report", "sweep_aggregate",
         "sweep_pool_report", "sweep_pool_aggregate"])
def test_output_that_cannot_be_written_exits_two(tmp_path, capsys, command,
                                                 name, extra):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)  # a directory where a file goes
    argv = {"cluster": ["cluster", "--input", blob_csv(tmp_path / "d.csv"),
                        *CLUSTER_FLAGS],
            "game": ["game", "--preset", "one_adv_log", "--orientation",
                     "leader", "--samples", "300"],
            "sweep": [*SWEEP_INPUT, "--input",
                      blob_csv(tmp_path / "d.csv")]}[command]
    assert main([*argv, *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / name}: ")
    assert err.count("\n") == 1


def test_truth_rows_follow_the_rows_ingest_drops(tmp_path):
    # sim1 with one feature cell of data row 123 (0-based) set to nan and
    # a blank line before that row; the truth file simulate wrote stays
    row = 123
    clean = tmp_path / "in.csv"
    assert main(["simulate", "--preset", "sim1", "--out", str(clean)]) == 0
    lines = clean.read_text().split("\n")
    lines[1 + row] = "nan" + lines[1 + row][lines[1 + row].index(","):]
    lines.insert(1 + row, "")
    bad = str(tmp_path / "bad.csv")
    (tmp_path / "bad.csv").write_text("\n".join(lines))
    truth_path = str(tmp_path / "in.truth.csv")
    truth = read_truth_csv(truth_path)
    want = np.delete(truth, row).tolist()
    assert main(["cluster", "--input", bad, "--truth", truth_path,
                 *CLUSTER_FLAGS, "--out", str(tmp_path / "c")]) == 0
    assert main([*SWEEP_INPUT, "--input", bad, "--truth", truth_path,
                 "--out", str(tmp_path / "s")]) == 0
    reports = [tmp_path / "c" / "report.json",
               *sorted((tmp_path / "s").glob("report_*.json"))]
    assert len(reports) == 6
    # the blank line counts in the row number, not in the truth rows
    command = json.loads(reports[0].read_text())["command"]
    assert command["dropped_rows"] == [row + 2]
    for path in reports:
        rows = json.loads(path.read_text())["points"]["rows"]
        assert [r[4] for r in rows] == want, path.name
    # a truth file with one row per kept row is used as it is
    kept = tmp_path / "kept.csv"
    kept.write_text("label\n" + "".join(
        ("unknown" if code == 2 else label_token(code)) + "\n"
        for code in want))
    assert main(["cluster", "--input", bad, "--truth", str(kept),
                 *CLUSTER_FLAGS, "--out", str(tmp_path / "k")]) == 0
    assert (tmp_path / "k" / "report.json").read_bytes() == \
        reports[0].read_bytes()


BOM = "\ufeff"


@pytest.mark.parametrize("flag", ["--input", "--truth", "--config"])
def test_inputs_may_start_with_a_byte_order_mark(tmp_path, flag):
    data = ingest_csv(blob_csv(tmp_path / "d.csv"))[0]
    # label first, so the mark sits in front of the label column's name
    texts = {"--input": "label,x0,x1\n" + "".join(
                 f"{label_token(code)},{x!r},{y!r}\n"
                 for code, (x, y) in zip(data.labels, data.points.tolist())),
             "--truth": "label\n" + "normal\n" * 60 + "abnormal\n" * 60,
             "--config": "[cluster]\ncoef_rt = 0.9\nbandwidth = 0.5\n"
                         "min_wall_size = 10\n"}
    reports = []
    for mark in ("", BOM):
        # one file name in two directories: command.input is the same
        folder = tmp_path / ("bom" if mark else "plain")
        folder.mkdir()
        paths = {}
        for name, text in texts.items():
            paths[name] = folder / f"in{name[2:]}"
            paths[name].write_text((mark if name == flag else "") + text,
                                   encoding="utf-8")
        assert paths[flag].read_bytes().startswith(mark.encode())
        argv = [part for name, path in paths.items()
                for part in (name, str(path))]
        assert main(["cluster", *argv, "--k", "10", "--alpha", "0.6",
                     "--out", str(folder / "out")]) == 0
        reports.append((folder / "out" / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_crlf_config_gives_the_lf_report(tmp_path):
    csv_path = blob_csv(tmp_path / "d.csv")
    reports = []
    for newline in ("\n", "\r\n"):
        config = tmp_path / f"run{len(newline)}.ini"
        config.write_bytes(newline.join(
            ["[cluster]", "coef_rt = 0.9", "bandwidth = 0.5",
             "min_wall_size = 10", ""]).encode())
        out = tmp_path / f"out{len(newline)}"
        assert main(["cluster", "--input", csv_path, "--config", str(config),
                     "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_sweep_preset_applies_cluster_config(tmp_path):
    config = tmp_path / "c.ini"
    config.write_text("[cluster]\ncoef_rt = 1.2\nmin_wall_size = 30\n")
    out = tmp_path / "o"
    assert main(["sweep", "--kind", "weight", "--preset", "sim1",
                 "--config", str(config), "--out", str(out)]) == 0
    for path in out.glob("report_*.json"):
        params = json.loads(path.read_text())["params"]
        assert (params["coef_rt"], params["min_wall_size"]) == (1.2, 30)
        assert params["coef_dt"] == 2.5  # the preset's own value stays


def test_explicit_truth_wins_in_cluster_and_sweep(tmp_path):
    csv_path = tmp_path / "sim1.csv"
    assert main(["simulate", "--preset", "sim1", "--out", str(csv_path)]) == 0
    truth = tmp_path / "unknown.csv"
    truth.write_text("label\n" + "unknown\n" * 600)
    config = tmp_path / "c.ini"
    config.write_text("[cluster]\ncoef_rt = 0.9\nbandwidth = 0.45\n"
                      "min_wall_size = 20\n")
    flags = ["--input", str(csv_path), "--label-fraction", "0.5",
             "--truth", str(truth), "--config", str(config)]
    assert main(["cluster", *flags, "--out", str(tmp_path / "c")]) == 0
    assert main(["sweep", "--kind", "weight", *flags,
                 "--out", str(tmp_path / "s")]) == 0
    reports = [tmp_path / "c" / "report.json",
               *sorted((tmp_path / "s").glob("report_*.json"))]
    assert len(reports) == 6
    for path in reports:
        rows = json.loads(path.read_text())["points"]["rows"]
        assert {row[4] for row in rows} == {2}, path.name


def test_eta_cli_matches_direct_call(tmp_path, capsys):
    stats_file = tmp_path / "stats.json"
    stats_file.write_text(json.dumps(
        {"mean": [0.0, 0.0], "covariance": [[1.0, 0.3], [0.3, 2.0]]}))
    assert main(["eta", "--alpha", "0.8", "--stats", str(stats_file),
                 "--samples", "20000", "--seed", "3"]) == 0
    printed = float(capsys.readouterr().out.strip())
    stats = stats_from_moments([0.0, 0.0], [[1.0, 0.3], [0.3, 2.0]])
    assert printed == eta_of_alpha(stats, 0.8, sample_size=20000, seed=3)


def test_eta_cli_rejects_bad_stats_files(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["eta", "--alpha", "0.8", "--stats", str(broken)]) == 2
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"mean": [0.0]}))
    assert main(["eta", "--alpha", "0.8", "--stats", str(partial)]) == 2
    indefinite = tmp_path / "indefinite.json"
    indefinite.write_text(json.dumps(
        {"mean": [0.0, 0.0], "covariance": [[1.0, 0.0], [0.0, -1.0]]}))
    assert main(["eta", "--alpha", "0.8", "--stats", str(indefinite)]) == 2
    nan_mean = tmp_path / "nan_mean.json"
    nan_mean.write_text(json.dumps(
        {"mean": [float("nan"), 0.0], "covariance": [[1.0, 0.0], [0.0, 1.0]]}))
    assert main(["eta", "--alpha", "0.8", "--stats", str(nan_mean)]) == 2


@pytest.mark.parametrize("content, word", [
    (None, "cannot read"),
    ("[[0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]]", "object"),
    ('{"mean": "abc", "covariance": [[1.0, 0.0], [0.0, 1.0]]}', "numbers"),
], ids=["missing_file", "json_list", "non_numeric_mean"])
def test_eta_cli_reports_unusable_stats_files(tmp_path, capsys, content,
                                              word):
    stats = tmp_path / "stats.json"
    if content is not None:
        stats.write_text(content)
    assert main(["eta", "--alpha", "0.8", "--stats", str(stats)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert word in err and "stats.json" in err


@pytest.mark.parametrize("command, flag", [
    ("cluster", "--input"), ("cluster", "--truth"), ("cluster", "--config"),
    ("sweep", "--input")],
    ids=["cluster_input", "cluster_truth", "cluster_config", "sweep_input"])
def test_non_utf8_files_exit_two(tmp_path, capsys, command, flag):
    csv_path = blob_csv(tmp_path / "d.csv")
    latin = tmp_path / "latin1.txt"
    latin.write_bytes(b"x0,x1,label\n1.0,2.0,\xff\n")
    args = {"--input": csv_path, "--out": str(tmp_path / "out")}
    args[flag] = str(latin)
    argv = [command] + (["--kind", "weight"] if command == "sweep" else [])
    argv += [part for item in args.items() for part in item]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and err.count("\n") == 1
    assert "latin1.txt" in err and "utf-8" in err


@pytest.mark.parametrize("content, words", [
    ("coef_rt = 0.9\n", "cannot parse config"),
    ("[cluster]\ncoef_rt = 0.9\ncoef_rt = 1.1\n", "cannot parse config"),
    ("[cluster]\nalpha = 5%\n", "'alpha': cannot parse '5%'")],
    ids=["no_section_header", "duplicate_key", "percent_sign"])
def test_malformed_config_exits_two(tmp_path, capsys, content, words):
    config = tmp_path / "run.ini"
    config.write_text(content)
    assert main(["cluster", "--input", blob_csv(tmp_path / "d.csv"),
                 "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert words in err
