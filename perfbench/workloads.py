"""The four workloads: inputs made from a seed, one operation, output checks.

A workload holds a fixed list of operations (its cycle). The worker runs
the first as the warm-up and then whole cycles, so every run has the
same mix. Each workload can digest an output (to show repeats are
identical) and check one against computations made apart from the
library. The checks module is imported only inside check(), after the
timings, so that its scipy.stats import stays out of setup_s.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil

import numpy as np

from adclust import cli, synthetic
from adclust.core import AdclustParams, adclust
from adclust.dataset import LABEL_NONE, Dataset
from adclust.game import solve_game


def _hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


class Workload:
    ops: list
    # Name of a check that fails because of a known library fault: its
    # failure marks the operations it checked as failed instead of making
    # the run incorrect. None on every workload whose outputs are right.
    known_fault: str | None = None

    def digest(self, op, output) -> str:
        raise NotImplementedError

    def discard(self, op, output) -> None:
        """Release a repeated output once it has been digested."""

    def check(self, index: int, op, output) -> list:
        raise NotImplementedError


class Clustering(Workload):
    """One adclust() call per operation on a fixed dataset."""

    def __init__(self, dataset, params, known_fault: str | None = None):
        self.dataset = dataset
        self.params = params
        self.known_fault = known_fault
        self.ops = [None]

    def run(self, op):
        return adclust(self.dataset, self.params)

    def digest(self, op, result) -> str:
        comp = result.composition
        walls = [(w.radius, w.stats.mean, w.stats.covariance) for w in result.walls]
        return _hash(result.thresholds.rt, result.thresholds.dt, comp.region,
                     comp.cluster_of_point, comp.sub_cluster_of, result.protected,
                     result.profile.density_point, result.profile.avg_dist_point,
                     *[part for wall in walls for part in wall])

    def check(self, index, op, result):
        import checks
        return checks.clustering_checks(self.dataset, self.params, result)


def cluster_q2(seed: int, workdir: str) -> Clustering:
    """sim3 geometry at 5x the points: two normal blobs, an abnormal blob
    overlapping the first, and a never-labelled blob, plus two unlabelled
    points at fixed far corners. The corners pin the grid's range, so
    cell sizes and the work per call do not follow the most extreme
    random point of each seed. The remote blob sits at (4.5, 4.5) instead
    of sim3's (3, 3): at this density Gaussian tails bridge a (3, 3) blob
    to the normal one and it turns normal_core. Label counts are balanced
    (60 normal, 60 abnormal)."""
    cov = ((0.4, 0.0), (0.0, 0.4))
    components = [synthetic.Component((0.5, -1.0), cov, 1500, "normal"),
                  synthetic.Component((1.0, -1.0), cov, 1500, "abnormal"),
                  synthetic.Component((1.0, 1.0), cov, 1500, "normal"),
                  synthetic.Component((4.5, 4.5), cov, 500, "unknown")]
    mixture, _ = synthetic.generate(synthetic.MixtureSpec(
        components, label_fraction={"normal": 0.02, "abnormal": 0.04}, seed=seed))
    corners = np.array([[-2.7, -4.2], [7.7, 7.7]])  # 5 sd beyond the blobs
    dataset = Dataset(np.vstack([mixture.points, corners]),
                      np.append(mixture.labels, [LABEL_NONE, LABEL_NONE]))
    params = AdclustParams(k=10.0, alpha=0.6, coef_rt=2.0, bandwidth=0.45,
                           min_wall_size=50, seed=seed)
    return Clustering(dataset, params)


def three_blobs(q: int, sizes: tuple[int, int, int], seed: int) -> Dataset:
    """q dimensions, unit covariance: normal at the origin, abnormal at
    8 e1, never-labelled at 8 e2, 2% of each labelled class labelled."""
    eye = tuple(tuple(float(i == j) for j in range(q)) for i in range(q))

    def at(axis):
        return tuple(8.0 if j == axis else 0.0 for j in range(q))

    normal, abnormal, unknown = sizes
    components = [synthetic.Component((0.0,) * q, eye, normal, "normal"),
                  synthetic.Component(at(0), eye, abnormal, "abnormal"),
                  synthetic.Component(at(1), eye, unknown, "unknown")]
    dataset, _ = synthetic.generate(synthetic.MixtureSpec(components, 0.02, seed=seed))
    return dataset


# cluster_q8 input seed. The input does not follow --seed because every
# operation on it fails the exact `thresholds` check (the library does
# not sum 8-d distances in dimension order); such failures are counted
# in `failed`, which must be the same share of `attempted` in every run.
Q8_INPUT_SEED = 0


def cluster_q8(seed: int, workdir: str) -> Clustering:
    """Eight dimensions: 675 normal, 675 abnormal, 150 never-labelled
    (three_blobs). coef_rt=0.1 keeps rt near the within-blob spacing;
    nearly every point has a cell of its own, and every occupied cell
    enumerates up to 3^8 = 6561 neighbour keys."""
    dataset = three_blobs(8, (675, 675, 150), Q8_INPUT_SEED)
    return Clustering(dataset, AdclustParams(coef_rt=0.1, seed=Q8_INPUT_SEED),
                      known_fault="thresholds")


class Game(Workload):
    """One solve_game() call per operation over the three-adversary
    presets x both wall kinds x both orientations."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.ops = [(synthetic.game_preset(f"three_adv_{family}", wall_kind=wall,
                                           seed=seed), orientation)
                    for family in ("log", "linear", "exp")
                    for wall in ("euclidean", "manhattan")
                    for orientation in ("leader", "follower")]

    def run(self, op):
        config, orientation = op
        return solve_game(config, orientation)

    def digest(self, op, output) -> str:
        eq, tables = output
        return _hash(eq, tables.radii, tables.normal_error,
                     *tables.attacker, *tables.adv_error)

    def check(self, index, op, output):
        import checks
        config, _ = op
        eq, tables = output
        samples = [checks.draw_population(spec) for spec in config.adversaries]
        cells = checks.sampled_cells(tables, 16, seed=[self.seed, index])
        return [checks.check_tables(config, tables, samples, cells),
                checks.check_equilibrium(config, eq, tables)]


# Calibrated settings of the bundled layouts, written to the [cluster]
# config that the CSV sweeps read.
LAYOUT_CONFIG = {
    "sim1": "coef_rt = 0.9\ncoef_dt = 2.5\nbandwidth = 0.45\nmin_wall_size = 20\n",
    "sim2": "coef_rt = 0.9\nbandwidth = 0.45\nmin_wall_size = 20\n",
    "sim3": "coef_rt = 1.6\nbandwidth = 0.45\nmin_wall_size = 20\n",
}

# (kind, layout, wall, source): every layout, both sweep kinds, both wall
# kinds, presets and CSVs.
SWEEPS = [("weight", "sim1", "euclidean", "preset"),
          ("wall", "sim2", "manhattan", "preset"),
          ("weight", "sim3", "manhattan", "preset"),
          ("weight", "sim1", "manhattan", "csv"),
          ("wall", "sim3", "euclidean", "csv"),
          ("weight", "sim2", "euclidean", "csv")]


class Sweep(Workload):
    """One `adclust sweep` (cli.main, one worker) per operation over the
    N=900 layouts. Set-up writes each layout with `adclust simulate`."""

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.count = 0
        inputs = os.path.join(workdir, "inputs")
        os.makedirs(inputs, exist_ok=True)
        for layout, text in LAYOUT_CONFIG.items():
            self._cli(["simulate", "--preset", layout, "--seed", str(seed),
                       "--out", os.path.join(inputs, f"{layout}.csv")])
            with open(os.path.join(inputs, f"{layout}.ini"), "w") as fh:
                fh.write("[cluster]\n" + text)
        self.ops = []
        for kind, layout, wall, source in SWEEPS:
            argv = ["sweep", "--kind", kind, "--wall", wall, "--seed", str(seed),
                    "--workers", "1"]
            if source == "preset":
                argv += ["--preset", layout]
            else:
                stem = os.path.join(inputs, layout)
                argv += ["--input", f"{stem}.csv", "--truth", f"{stem}.truth.csv",
                         "--config", f"{stem}.ini"]
            self.ops.append((kind, argv))

    @staticmethod
    def _cli(argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"adclust {' '.join(argv)} exited {code}")

    def run(self, op):
        out = os.path.join(self.workdir, f"op{self.count}")
        self.count += 1
        self._cli(op[1] + ["--out", out])
        return out

    def digest(self, op, out) -> str:
        """Hash of every file written except the wall-clock sidecar."""
        h = hashlib.sha256()
        for name in sorted(os.listdir(out)):
            if name != "timing.json":
                with open(os.path.join(out, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
        return h.hexdigest()

    def discard(self, op, out) -> None:
        shutil.rmtree(out)

    def check(self, index, op, out):
        import checks
        verdicts = [checks.check_aggregate(out)]
        if op[0] == "weight":
            verdicts.append(checks.check_weight_trend(out))
        return verdicts


WORKLOADS = {"cluster_q2": cluster_q2, "cluster_q8": cluster_q8,
             "game_solve": Game, "preset_sweep": Sweep}
