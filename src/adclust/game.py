"""Two-player Monte-Carlo game between a wall-building defender and
contraction attackers.

An attacker of strength t moves each object X to mu_g + (1 - t)(X -
mu_g), paying the Euclidean movement cost. The defender fits a wall on
its normal sample at level alpha. Utilities are sample means under
common random numbers: one fixed draw per population (walls.sample_gaussian,
which also draws the Manhattan radii through eta_of_alpha), reused for
every strategy pair, precomputed into per-adversary tables over the
(t, alpha) lattice. Both solvers run plain grid search over those tables:

- leader: the defender commits to alpha; each attacker best-responds in
  t; the defender picks the alpha maximizing its utility given those
  responses (ties toward smaller alpha, then smaller t).
- follower: for every attack profile the defender best-responds in
  alpha; attackers jointly pick the profile maximizing the sum of their
  utilities (ties toward smaller total t, then smaller alpha).

Every pass fraction is an exact count of the objects inside the wall,
and every payoff entry is a correctly rounded mean: the exact sum of the
payoffs of the objects inside the wall, rounded once, divided by the
sample size. Both depend only on which objects pass, and build_tables
finds those sets without a wall score per t row. In exact arithmetic,
contraction toward the wall's own mean scales every score by (1 - t)^2
(Mahalanobis) or (1 - t) (scaled L1), so each adversary sample is scored
once, by the wall's own kind score, and held once in the order of those
scores (dimension-major, so the attack and its cost step along the
sample), with its deviations fl(x - mu_g). walls.contraction_counts
bounds the float error of the scaling and gives each (t, alpha) cell
two counts in that order: the first sure objects pass the cell's radius
and the objects from reach on do not. Between them lies the cell's
band, the objects a few roundings from the radius that only their score
decides. Bands are rare (none on the three_adv_* presets at seeds
0-39). A row only needs the objects up to its widest reach, its width
w. The rows are filled in blocks of consecutive t rows, each block at
most exact.BLOCK_ELEMENTS payoffs (rows times its widest row; a wider
row is a block of its own): a block attacks and costs its objects for
all its rows in one broadcast array, with apply_attack's and
movement_cost's elementwise formulas, and sets each row's payoffs past
its own width to +0. A row without a band passes each cell's sure
objects. Where some cell of a row has a band (where a guard of
contraction_counts fails, every cell has one), the row's w objects are
scored at once and its payoffs put in the order of those scores; a cell
passes the objects whose score is at most its radius (one search in the
sorted scores), and the objects past w fail every radius, as reach <= w.
Tied scores pass together at every radius, so the order among them does
not matter. Either way every radius passes a prefix of the row, so a block
fills all its rows' entries from one exact prefix sum
(exact.prefix_sums); a row that nothing can reach is in no block and
keeps its zero entries. At t = 1 every object lands on the mean and
scores +-0 (contraction_counts proves it), so that row passes every
object at every radius with no score.
Direct evaluation sums the masked payoffs of the whole sample with
exact.row_sums; both sums are bitwise math.fsum of the same values, so
direct evaluation and table lookup agree bitwise whatever the order of
the sample, and results do not depend on BLAS threading. A wall score
does not depend on the layout of its input or on the other objects
scored with it, so the direct evaluation of a row-major draw and the
score of a banded row give the same bits.

The follower search streams the joint profiles in lexicographic order,
in chunks of consecutive flat profile ids (np.unravel_index), and takes
the defender's best responses for a whole chunk at once, through the same
elementwise operations as for one profile: every entry is bitwise the
one-profile value, and memory is bounded by the chunk, not the lattice.
Only the profiles whose float attacker sum, widened by its rounding
bound, can reach the best correctly rounded sum (math.fsum) so far build
the exact tie-break key.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridBudgetError, ValidationError
from .exact import BLOCK_ELEMENTS, prefix_sums, row_sums, sq_distances
from .walls import RegionStats, Wall, chi2_quantile, contraction_counts, \
    eta_of_alpha, fit_region_stats, sample_gaussian

# Attack profiles whose defender responses solve_follower takes in one
# (chunk, alpha) array.
_PROFILE_CHUNK = 128


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
        if not (0.0 < self.a < math.inf and 0.0 < self.k_max < math.inf):
            raise ValidationError("utility parameters must be positive and "
                                  "finite")

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


def _population_dim(spec: PopulationSpec) -> int:
    """q of a population whose mean is a finite q-vector and whose cov a
    finite (q, q) matrix that np.linalg.cholesky accepts."""
    try:
        mean = np.asarray(spec.mean, dtype=np.float64)
        cov = np.asarray(spec.cov, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError("population mean and cov must be numeric") \
            from None
    if mean.ndim != 1 or mean.size == 0 or not np.isfinite(mean).all():
        raise ValidationError("population mean must be a finite vector")
    if cov.shape != (mean.size, mean.size) or not np.isfinite(cov).all():
        raise ValidationError("population cov must be a finite q x q matrix "
                              "for a mean of length q")
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValidationError("population cov must be positive definite") \
            from None
    return mean.size


def apply_attack(points: np.ndarray, mu_g: np.ndarray, t: float) -> np.ndarray:
    """Contract objects toward mu_g by strength t in [0, 1]: each
    coordinate fl(m + fl(c fl(x - m))), c = fl(1 - t). The steps run
    along the objects, on one dimension-major copy, whatever the layout
    of points; the (n, q) result is a view of that copy."""
    if not 0.0 <= t <= 1.0:
        raise ValidationError("t must be in [0, 1]")
    center = np.asarray(mu_g, dtype=np.float64)[:, None]
    moved = np.subtract(np.asarray(points, dtype=np.float64).T, center,
                        order="C")
    moved *= 1.0 - t
    moved += center
    return moved.T


def movement_cost(original: np.ndarray, moved: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distance under exact.py's distance convention."""
    return np.sqrt(sq_distances(original.T, moved.T))


def _grid_count(step: float) -> int:
    if not 0.0 < step <= 1.0:
        raise ValidationError("grid step must be in (0, 1]")
    inv = 1.0 / step
    if abs(inv - round(inv)) > 1e-9:
        raise ValidationError("grid step must divide [0, 1] evenly")
    return round(inv)


def _joint_stride(config: GameConfig) -> int:
    if len(config.adversaries) == 1:
        return 1
    ratio = config.joint_t_step / config.t_step
    if abs(ratio - round(ratio)) > 1e-9:
        raise ValidationError("joint_t_step must be a multiple of t_step")
    return round(ratio)


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
        dims = {_population_dim(spec)
                for spec in [self.normal, *self.adversaries]}
        if len(dims) > 1:
            raise ValidationError("every population must have the "
                                  "dimension of the normal one")
        if not 0.0 <= self.cost_c < math.inf:
            raise ValidationError("cost_c must be nonnegative and finite")
        if self.wall_kind not in ("euclidean", "manhattan"):
            raise ValidationError(f"unknown wall kind {self.wall_kind!r}")
        for step in (self.t_step, self.joint_t_step):
            _grid_count(step)
        _joint_stride(self)
        if self.joint_budget < 1:
            raise ValidationError("joint_budget must be at least 1")
        if _grid_count(self.alpha_step) < 2:
            raise ValidationError("alpha_step must leave at least one wall "
                                  "level in (0, 1)")
        if self.eta_sample_size < 2:
            raise ValidationError("eta_sample_size must be at least 2")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")


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


def attacker_utility(util: UtilitySpec, adversary_sample: np.ndarray,
                     mu_g: np.ndarray, t: float, wall: Wall) -> float:
    """Mean payoff over the sample; objects outside the wall pay 0. The
    payoffs' sum is correctly rounded (bitwise math.fsum) before the
    division, so the mean does not depend on the order of the sample and
    equals build_tables' entry bitwise."""
    moved = apply_attack(adversary_sample, mu_g, t)
    pay = util.payoff(movement_cost(adversary_sample, moved))
    s = wall.score(moved)
    inside = np.where(s <= wall.radius, pay, 0.0)
    return float(row_sums(inside[None, :])[0] / s.size)


def defender_utility(normal_error, adversary_error, cost_c: float):
    """Defender payoff; elementwise over arrays of errors."""
    return -100.0 * (normal_error + cost_c * adversary_error)


def _row_blocks(widths: list[int]):
    """(rows, widest): runs of consecutive t rows of nonzero width, in
    order, each holding at most BLOCK_ELEMENTS payoffs (its row count
    times its widest row), and that widest row; a row wider than
    BLOCK_ELEMENTS is a block of its own."""
    rows, widest = [], 0
    for it, width in enumerate(widths):
        if width == 0:
            continue
        if rows and (len(rows) + 1) * max(widest, width) > BLOCK_ELEMENTS:
            yield rows, widest
            rows, widest = [], 0
        rows.append(it)
        widest = max(widest, width)
    if rows:
        yield rows, widest


def build_tables(config: GameConfig) -> GameTables:
    """Sample the populations once and fill every lattice cell."""
    normal = config.normal
    normal_sample = sample_gaussian(normal.mean, normal.cov,
                                    normal.sample_size, normal.seed)
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
        radii = eta_of_alpha(stats, alphas, config.eta_sample_size,
                             seed=[config.seed, 99])
    # scores depend on the wall's kind and stats only, not on its level
    wall = Wall(kind=config.wall_kind, stats=stats, level=float(alphas[0]),
                radius=float(radii[0]))

    s_normal = wall.score(normal_sample)
    passed = np.searchsorted(np.sort(s_normal), radii, side="right")
    normal_error = (s_normal.size - passed) / s_normal.size

    attacker: list[np.ndarray] = []
    adv_error: list[np.ndarray] = []
    for spec, util in zip(config.adversaries, config.utilities):
        raw = sample_gaussian(spec.mean, spec.cov, spec.sample_size, spec.seed)
        # at ts[it] and radius ih, the first sure[it, ih] samples in the
        # wall's reference order pass and those from reach[it, ih] on do
        # not (c = fl(1 - t), as apply_attack takes it)
        order, reach, sure = contraction_counts(wall, raw, radii, 1.0 - ts)
        # held once, in that order and dimension-major, with its
        # deviations fl(x - m), so each block of rows attacks and costs
        # stepping along the sample
        sample = np.empty(raw.shape, order="F")
        np.take(raw, order, axis=0, out=sample)
        del raw
        x = sample.T
        dev = x - mu_g[:, None]
        n = spec.sample_size
        # a row only works on the samples up to its widest reach; a row
        # that nothing can reach keeps its entries at the empty sum, +0.0
        widths = reach.max(axis=1)
        banded = (reach > sure).any(axis=1)
        passed = sure.copy()
        a_tab = np.zeros((n_t, len(alphas)))
        for rows, width in _row_blocks(widths.tolist()):
            # fl(m + fl(c fl(x - m))), c = fl(1 - t), as apply_attack
            # moves each row, and the cost as movement_cost takes it; the
            # moved block holds q coordinates per payoff
            moved = dev[:, None, :width] * (1.0 - ts[rows, None])
            moved += mu_g[:, None, None]
            pay = util.payoff(np.sqrt(sq_distances(x[:, None, :width],
                                                   moved)))
            for r, it in enumerate(rows):
                w = widths[it]
                pay[r, w:] = 0.0
                if banded[it]:
                    # a cell passes the row's objects whose moved score is
                    # at most its radius: in score order, a prefix
                    scores = wall.score(moved[:, r, :w].T)
                    by = np.argsort(scores)
                    pay[r, :w] = pay[r, by]
                    passed[it] = np.searchsorted(scores[by], radii,
                                                 side="right")
            # the samples that pass radius ih are the first passed[it, ih],
            # so every entry is one prefix of its row of pay
            a_tab[rows] = prefix_sums(pay, passed[rows]) / n
        attacker.append(a_tab)
        adv_error.append(passed / n)
    return GameTables(alphas=alphas, radii=radii, ts=ts, attacker=attacker,
                      adv_error=adv_error, normal_error=normal_error,
                      stats=stats, mu_g=mu_g, config=config)


def _pooled_error(tables: GameTables, rows) -> np.ndarray:
    """Adversary pass rates pooled over populations, weighted by sample
    size; rows holds one error row per adversary."""
    sizes = np.array([s.sample_size for s in tables.config.adversaries],
                     dtype=np.float64)
    return sum(w * r for w, r in zip(sizes, rows)) / sizes.sum()


def _equilibrium(tables: GameTables, orientation: str, ih: int, t_idx,
                 d_val: float) -> Equilibrium:
    """The solvers' result at alpha index ih and per-adversary t indices."""
    t_idx = tuple(int(j) for j in t_idx)
    return Equilibrium(
        orientation=orientation, wall_kind=tables.config.wall_kind,
        alpha=float(tables.alphas[ih]), radius=float(tables.radii[ih]),
        t=tuple(float(tables.ts[j]) for j in t_idx),
        defender_utility=float(d_val),
        attacker_utilities=tuple(float(tab[j, ih]) for tab, j
                                 in zip(tables.attacker, t_idx)),
        alpha_index=ih, t_indices=t_idx)


def solve_leader(tables: GameTables) -> Equilibrium:
    """Defender commits to alpha; attackers best-respond independently."""
    best_t = np.array([tab.argmax(axis=0) for tab in tables.attacker])
    cols = np.arange(len(tables.alphas))
    pooled = _pooled_error(tables, [tab[t, cols] for tab, t
                                    in zip(tables.adv_error, best_t)])
    d_vals = defender_utility(tables.normal_error, pooled,
                              tables.config.cost_c)
    ih = int(d_vals.argmax())
    return _equilibrium(tables, "leader", ih, best_t[:, ih], d_vals[ih])


def solve_follower(tables: GameTables) -> Equilibrium:
    """Attackers commit to a joint profile; the defender best-responds."""
    config = tables.config
    m = len(config.adversaries)
    t_indices = list(range(0, len(tables.ts), _joint_stride(config)))
    if tables.ts[t_indices[-1]] != 1.0:
        t_indices.append(len(tables.ts) - 1)
    lattice = np.array(t_indices)
    size = lattice.size ** m
    if size > config.joint_budget:
        raise GridBudgetError("grid budget exceeded; increase step")

    best = None
    shrink = 1.0 - 2 * m * np.finfo(np.float64).epsneg
    # profiles in lexicographic order, each chunk from its flat ids
    for lo in range(0, size, _PROFILE_CHUNK):
        ids = np.arange(lo, min(lo + _PROFILE_CHUNK, size))
        combos = lattice[np.stack(np.unravel_index(ids, (lattice.size,) * m),
                                  axis=1)]
        # the same elementwise operations as for one profile, so each
        # (profile, alpha) entry is bitwise the one-profile value
        pooled = _pooled_error(tables, [tab[combos[:, i]] for i, tab
                                        in enumerate(tables.adv_error)])
        d_rows = defender_utility(tables.normal_error, pooled, config.cost_c)
        best_ih = d_rows.argmax(axis=1)
        pays = np.stack([tab[combos[:, i], best_ih] for i, tab
                         in enumerate(tables.attacker)], axis=1)
        # payoffs are >= 0, so a float row sum in any order is within a
        # factor (1 +- u)^(m - 1) of the exact sum and fsum within 1 +- u;
        # shrink = 1 - 2mu covers both and the roundings of the products
        # below. floor never exceeds the largest fsum of the rows seen so
        # far, and a row whose float sum is below floor * shrink has an
        # fsum below floor: it cannot win, so only the other rows build
        # the exact key
        approx = pays.sum(axis=1)
        floor = approx.max() * shrink
        if best is not None:
            floor = max(floor, best[0][0])
        for r in np.flatnonzero(approx >= floor * shrink).tolist():
            combo, ih = combos[r].tolist(), int(best_ih[r])
            key = (math.fsum(pays[r].tolist()),
                   -math.fsum(tables.ts[j] for j in combo),
                   -ih, tuple(-j for j in combo))
            if best is None or key > best[0]:
                best = (key, combo, ih, d_rows[r, ih])
    _, combo, ih, d_val = best
    return _equilibrium(tables, "follower", ih, combo, d_val)


def solve_game(config: GameConfig, orientation: str,
               tables: GameTables | None = None
               ) -> tuple[Equilibrium, GameTables]:
    if orientation not in ("leader", "follower"):
        raise ValidationError(f"unknown orientation {orientation!r}")
    if tables is None:
        tables = build_tables(config)
    solver = solve_leader if orientation == "leader" else solve_follower
    return solver(tables), tables
