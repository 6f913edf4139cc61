"""Two-player Monte-Carlo game between a wall-building defender and
contraction attackers.

An attacker of strength t moves each object X to mu_g + (1 - t)(X -
mu_g), paying the Euclidean movement cost. The defender fits a wall on
its normal sample at level alpha. Utilities are sample means under
common random numbers: one fixed draw per population, reused for every
strategy pair, precomputed into per-adversary tables over the (t, alpha)
lattice. Both solvers run plain grid search over those tables:

- leader: the defender commits to alpha; each attacker best-responds in
  t; the defender picks the alpha maximizing its utility given those
  responses (ties toward smaller alpha, then smaller t).
- follower: for every attack profile the defender best-responds in
  alpha; attackers jointly pick the profile maximizing the sum of their
  utilities (ties toward smaller total t, then smaller alpha).

Every payoff entry is one row of a mean along the sample axis, which
numpy sums exactly as the 1-d mean of direct evaluation does, and every
pass fraction is an exact count over the sorted scores, so direct
evaluation and table lookup agree bitwise, and results do not depend on
BLAS threading.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import GridBudgetError, ValidationError
from .walls import RegionStats, Wall, chi2_quantile, fit_region_stats, \
    sample_gaussian

# Radii whose payoff means build_tables takes in one (chunk, sample) array.
_ALPHA_CHUNK = 16


@dataclass
class UtilitySpec:
    """Payoff for one adversary object that passes the wall.

    family log:    max(k_max - a ln(cost + 1), 0)
    family linear: max(k_max - a cost, 0)
    family exp:    max(k_max - exp(a cost), 0)
    Blocked objects contribute 0 regardless.
    """

    family: str
    a: float
    k_max: float = 7.0

    def __post_init__(self) -> None:
        if self.family not in ("log", "linear", "exp"):
            raise ValidationError(f"unknown utility family {self.family!r}")
        if self.a <= 0 or self.k_max <= 0:
            raise ValidationError("utility parameters must be positive")

    def payoff(self, costs: np.ndarray) -> np.ndarray:
        costs = np.asarray(costs, dtype=np.float64)
        if self.family == "log":
            raw = self.k_max - self.a * np.log1p(costs)
        elif self.family == "linear":
            raw = self.k_max - self.a * costs
        else:
            raw = self.k_max - np.exp(self.a * costs)
        return np.maximum(raw, 0.0)


@dataclass
class PopulationSpec:
    mean: tuple[float, ...]
    cov: tuple[tuple[float, ...], ...]
    sample_size: int
    seed: object = 0

    def __post_init__(self) -> None:
        if self.sample_size < 2:
            raise ValidationError("sample_size must be at least 2")


def sample_population(spec: PopulationSpec) -> np.ndarray:
    rng = np.random.default_rng(spec.seed)
    mean = np.asarray(spec.mean, dtype=np.float64)
    cov = np.asarray(spec.cov, dtype=np.float64)
    ell = np.linalg.cholesky(cov)
    z = rng.standard_normal((spec.sample_size, mean.size))
    return mean + z @ ell.T


def apply_attack(points: np.ndarray, mu_g: np.ndarray, t: float) -> np.ndarray:
    """Contract objects toward mu_g by strength t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValidationError("t must be in [0, 1]")
    return mu_g + (1.0 - t) * (points - mu_g)


def movement_cost(original: np.ndarray, moved: np.ndarray) -> np.ndarray:
    diffs = original - moved
    return np.sqrt((diffs * diffs).sum(axis=1))


def _grid_count(step: float) -> int:
    inv = 1.0 / step
    if abs(inv - round(inv)) > 1e-9:
        raise ValidationError("grid step must divide [0, 1] evenly")
    return round(inv)


@dataclass
class GameConfig:
    normal: PopulationSpec
    adversaries: list[PopulationSpec]
    utilities: list[UtilitySpec]
    cost_c: float
    wall_kind: str = "euclidean"
    alpha_step: float = 0.01
    t_step: float = 0.01
    joint_t_step: float = 0.05
    seed: int = 0
    joint_budget: int = 2_000_000
    eta_sample_size: int = 100_000

    def __post_init__(self) -> None:
        if not self.adversaries:
            raise ValidationError("need at least one adversary")
        if len(self.utilities) != len(self.adversaries):
            raise ValidationError("one utility spec per adversary")
        if self.cost_c < 0:
            raise ValidationError("cost_c must be nonnegative")
        if self.wall_kind not in ("euclidean", "manhattan"):
            raise ValidationError(f"unknown wall kind {self.wall_kind!r}")
        for step in (self.alpha_step, self.t_step, self.joint_t_step):
            _grid_count(step)


@dataclass
class GameTables:
    """Precomputed utility and error tables on the strategy lattice.

    attacker[i][it, ih] is adversary i's expected payoff, adv_error[i]
    its pass fraction, normal_error the normal mass outside the wall.
    """

    alphas: np.ndarray
    radii: np.ndarray
    ts: np.ndarray
    attacker: list[np.ndarray]
    adv_error: list[np.ndarray]
    normal_error: np.ndarray
    stats: RegionStats
    mu_g: np.ndarray
    config: GameConfig
    _score_wall: Wall = field(repr=False, default=None)

    def wall_at(self, ih: int) -> Wall:
        wall = Wall(kind=self.config.wall_kind, stats=self.stats,
                    level=float(self.alphas[ih]), radius=float(self.radii[ih]),
                    _cho=self._score_wall._cho)
        return wall


@dataclass
class Equilibrium:
    orientation: str
    wall_kind: str
    alpha: float
    radius: float
    t: tuple[float, ...]
    defender_utility: float
    attacker_utilities: tuple[float, ...]
    alpha_index: int
    t_indices: tuple[int, ...]


def _wall_scores(wall: Wall, points: np.ndarray) -> np.ndarray:
    if wall.kind == "euclidean":
        return wall.mahalanobis_sq(points)
    return wall.scaled_l1(points)


def attacker_utility(util: UtilitySpec, adversary_sample: np.ndarray,
                     mu_g: np.ndarray, t: float, wall: Wall) -> float:
    """Mean payoff over the sample; objects outside the wall pay 0."""
    moved = apply_attack(adversary_sample, mu_g, t)
    pay = util.payoff(movement_cost(adversary_sample, moved))
    s = _wall_scores(wall, moved)
    return float(np.where(s <= wall.radius, pay, 0.0).mean())


def defender_utility(normal_error: float, adversary_error: float,
                     cost_c: float) -> float:
    return -100.0 * (normal_error + cost_c * adversary_error)


def build_tables(config: GameConfig) -> GameTables:
    """Sample the populations once and fill every lattice cell."""
    normal_sample = sample_population(config.normal)
    stats = fit_region_stats(normal_sample)
    mu_g = stats.mean

    n_alpha = _grid_count(config.alpha_step)
    alphas = np.array([round(i * config.alpha_step, 10)
                       for i in range(1, n_alpha)])
    n_t = _grid_count(config.t_step) + 1
    ts = np.array([round(i * config.t_step, 10) for i in range(n_t)])
    ts[-1] = 1.0

    if config.wall_kind == "euclidean":
        q = mu_g.size
        radii = np.array([chi2_quantile(q, a) for a in alphas])
    else:
        cal = sample_gaussian(stats, config.eta_sample_size,
                              seed=[config.seed, 99])
        s_cal = (np.abs(cal - stats.mean) / stats.stddevs).sum(axis=1)
        radii = np.quantile(s_cal, alphas)
    score_wall = Wall(kind=config.wall_kind, stats=stats, level=0.5,
                      radius=float(radii[len(radii) // 2]))

    s_normal = _wall_scores(score_wall, normal_sample)
    normal_error = np.array([float((s_normal > r).mean()) for r in radii])

    attacker: list[np.ndarray] = []
    adv_error: list[np.ndarray] = []
    for spec, util in zip(config.adversaries, config.utilities):
        sample = sample_population(spec)
        a_tab = np.empty((n_t, len(alphas)))
        e_tab = np.empty((n_t, len(alphas)))
        for it, t in enumerate(ts):
            moved = apply_attack(sample, mu_g, float(t))
            pay = util.payoff(movement_cost(sample, moved))
            s = _wall_scores(score_wall, moved)
            for lo in range(0, len(radii), _ALPHA_CHUNK):
                inside = s <= radii[lo:lo + _ALPHA_CHUNK, None]
                a_tab[it, lo:lo + _ALPHA_CHUNK] = \
                    np.where(inside, pay, 0.0).mean(axis=1)
            e_tab[it] = np.searchsorted(np.sort(s), radii, side="right") / s.size
        attacker.append(a_tab)
        adv_error.append(e_tab)
    return GameTables(alphas=alphas, radii=radii, ts=ts, attacker=attacker,
                      adv_error=adv_error, normal_error=normal_error,
                      stats=stats, mu_g=mu_g, config=config,
                      _score_wall=score_wall)


def _pooled_error(tables: GameTables, t_indices, ih=None) -> np.ndarray:
    """Adversary pass rates pooled over populations, weighted by sample
    size. With ih=None returns the whole alpha row."""
    sizes = np.array([s.sample_size for s in tables.config.adversaries],
                     dtype=np.float64)
    cols = [tab[tidx] if ih is None else tab[tidx, ih]
            for tab, tidx in zip(tables.adv_error, t_indices)]
    return sum(w * c for w, c in zip(sizes, cols)) / sizes.sum()


def solve_leader(tables: GameTables) -> Equilibrium:
    """Defender commits to alpha; attackers best-respond independently."""
    config = tables.config
    m = len(config.adversaries)
    n_alpha = len(tables.alphas)
    best_t = np.empty((m, n_alpha), dtype=np.int64)
    for i in range(m):
        best_t[i] = tables.attacker[i].argmax(axis=0)
    d_vals = np.empty(n_alpha)
    for ih in range(n_alpha):
        pooled = _pooled_error(tables, best_t[:, ih], ih)
        d_vals[ih] = defender_utility(float(tables.normal_error[ih]),
                                      float(pooled), config.cost_c)
    ih = int(d_vals.argmax())
    t_idx = tuple(int(best_t[i, ih]) for i in range(m))
    return Equilibrium(
        orientation="leader", wall_kind=config.wall_kind,
        alpha=float(tables.alphas[ih]), radius=float(tables.radii[ih]),
        t=tuple(float(tables.ts[j]) for j in t_idx),
        defender_utility=float(d_vals[ih]),
        attacker_utilities=tuple(float(tables.attacker[i][t_idx[i], ih])
                                 for i in range(m)),
        alpha_index=ih, t_indices=t_idx)


def solve_follower(tables: GameTables) -> Equilibrium:
    """Attackers commit to a joint profile; the defender best-responds."""
    config = tables.config
    m = len(config.adversaries)
    if m == 1:
        stride = 1
    else:
        ratio = config.joint_t_step / config.t_step
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValidationError("joint_t_step must be a multiple of t_step")
        stride = round(ratio)
    t_indices = list(range(0, len(tables.ts), stride))
    if tables.ts[t_indices[-1]] != 1.0:
        t_indices.append(len(tables.ts) - 1)
    if len(t_indices) ** m > config.joint_budget:
        raise GridBudgetError("grid budget exceeded; increase step")

    c = config.cost_c
    best = None
    for combo in product(t_indices, repeat=m):
        pooled = _pooled_error(tables, combo)
        d_row = -100.0 * (tables.normal_error + c * pooled)
        ih = int(d_row.argmax())
        score = math.fsum(tables.attacker[i][combo[i], ih] for i in range(m))
        sum_t = math.fsum(tables.ts[j] for j in combo)
        key = (score, -sum_t, -ih, tuple(-j for j in combo))
        if best is None or key > best[0]:
            best = (key, combo, ih, score, float(d_row[ih]))
    _, combo, ih, score, d_val = best
    return Equilibrium(
        orientation="follower", wall_kind=config.wall_kind,
        alpha=float(tables.alphas[ih]), radius=float(tables.radii[ih]),
        t=tuple(float(tables.ts[j]) for j in combo),
        defender_utility=d_val,
        attacker_utilities=tuple(float(tables.attacker[i][combo[i], ih])
                                 for i in range(m)),
        alpha_index=ih, t_indices=tuple(int(j) for j in combo))


def solve_game(config: GameConfig, orientation: str,
               tables: GameTables | None = None
               ) -> tuple[Equilibrium, GameTables]:
    if orientation not in ("leader", "follower"):
        raise ValidationError(f"unknown orientation {orientation!r}")
    if tables is None:
        tables = build_tables(config)
    solver = solve_leader if orientation == "leader" else solve_follower
    return solver(tables), tables
