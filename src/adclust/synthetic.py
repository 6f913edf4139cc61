"""Gaussian mixture generators and the bundled experiment presets.

Every random draw derives from a per-component seed sequence
([seed, component] for points, drawn by walls.sample_gaussian; [seed,
101, class] for label retention), so a preset regenerates
byte-identically for a given seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import AdclustParams
from .dataset import LABEL_ABNORMAL, LABEL_NONE, LABEL_NORMAL, TRUTH_UNKNOWN, Dataset
from .errors import ValidationError
from .game import GameConfig, PopulationSpec, UtilitySpec
from .walls import sample_gaussian

_CLASS_CODE = {"normal": LABEL_NORMAL, "abnormal": LABEL_ABNORMAL,
               "unknown": TRUTH_UNKNOWN}


@dataclass
class Component:
    mean: tuple[float, ...]
    cov: tuple[tuple[float, ...], ...]
    count: int
    class_tag: str  # normal | abnormal | unknown

    def __post_init__(self) -> None:
        if self.class_tag not in _CLASS_CODE:
            raise ValidationError(f"unknown class tag {self.class_tag!r}")
        if self.count < 1:
            raise ValidationError("component count must be positive")


@dataclass
class MixtureSpec:
    """Gaussian mixture with per-class label retention.

    label_fraction: one fraction for both labeled classes, or a mapping
    {"normal": f, "abnormal": f}. Unequal class sizes skew the kernel
    score's decision contour toward the smaller class, so balanced
    LABEL COUNTS (not balanced fractions) are often what an experiment
    needs; the mapping form allows that.
    """

    components: list[Component]
    label_fraction: float | dict = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.components:
            raise ValidationError("need at least one component")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        fractions = (self.label_fraction.values()
                     if isinstance(self.label_fraction, dict)
                     else [self.label_fraction])
        for f in fractions:
            if not 0.0 <= f <= 1.0:
                raise ValidationError("label_fraction must be in [0, 1]")
        if isinstance(self.label_fraction, dict):
            unknown = set(self.label_fraction) - {"normal", "abnormal"}
            if unknown:
                raise ValidationError(
                    f"label_fraction keys must be classes, got {unknown}")

    def fraction_of(self, class_tag: str) -> float:
        if isinstance(self.label_fraction, dict):
            return self.label_fraction.get(class_tag, 0.0)
        return self.label_fraction


def generate(spec: MixtureSpec) -> tuple[Dataset, np.ndarray]:
    """Draw the mixture; returns (dataset, truth).

    truth carries the generator class of every point (unknown included);
    dataset.labels keeps labels on round(label_fraction * class size)
    uniformly chosen points per eligible class, at least one per class
    when label_fraction > 0. Unknown components are never labeled.
    """
    blocks = []
    truth_parts = []
    for idx, comp in enumerate(spec.components):
        blocks.append(sample_gaussian(comp.mean, comp.cov, comp.count,
                                      [spec.seed, idx]))
        truth_parts.append(np.full(comp.count, _CLASS_CODE[comp.class_tag],
                                   dtype=np.int8))
    points = np.vstack(blocks)
    truth = np.concatenate(truth_parts)

    labels = np.full(points.shape[0], LABEL_NONE, dtype=np.int8)
    for cls, tag in ((LABEL_NORMAL, "normal"), (LABEL_ABNORMAL, "abnormal")):
        fraction = spec.fraction_of(tag)
        if fraction <= 0:
            continue
        ids = np.flatnonzero(truth == cls)
        if ids.size == 0:
            continue
        keep = max(1, round(fraction * ids.size))
        rng = np.random.default_rng([spec.seed, 101, cls])
        chosen = rng.choice(ids, size=keep, replace=False)
        labels[chosen] = cls
    return Dataset(points, labels), truth


_COV = ((0.4, 0.0), (0.0, 0.4))

_SIMULATIONS = {
    "sim1": [Component((0.0, -1.0), _COV, 300, "normal"),
             Component((1.0, -1.0), _COV, 300, "abnormal")],
    "sim2": [Component((-1.0, -1.0), _COV, 300, "normal"),
             Component((0.0, 0.0), _COV, 300, "abnormal"),
             Component((1.0, 1.0), _COV, 300, "normal")],
    "sim3": [Component((0.5, -1.0), _COV, 300, "normal"),
             Component((1.0, -1.0), _COV, 300, "abnormal"),
             Component((1.0, 1.0), _COV, 300, "normal"),
             Component((3.0, 3.0), _COV, 100, "unknown")],
}

# Calibrated pipeline settings for the bundled layouts. The default
# coefficient coef_rt=20 yields a merge radius an order of magnitude
# below the nearest-neighbor spacing of these mixtures (nothing merges),
# and the all-labels pairwise-median bandwidth spans the whole
# constellation (every score leans normal), so the presets carry values
# tuned to reproduce the documented structure. Library defaults are
# untouched.
#
# coef_rt 0.9 keeps adjacent 0.4-covariance blobs separate while still
# merging within-blob; sim3 needs 1.6 so the remote blob forms one
# unlabeled component instead of shattering. sim1 raises coef_dt so
# low-density fringe fragments dissolve into outliers rather than
# persisting as satellite clusters. min_wall_size=20 drops stray
# anchored fragments that would otherwise earn their own wall.
_SIM_PARAMS = {
    "sim1": dict(coef_rt=0.9, coef_dt=2.5, bandwidth=0.45,
                 min_wall_size=20),
    "sim2": dict(coef_rt=0.9, bandwidth=0.45, min_wall_size=20),
    "sim3": dict(coef_rt=1.6, bandwidth=0.45, min_wall_size=20),
}

# Labeling 2% of each class leaves the larger class with double the
# label mass, which drags the score midline into the smaller class and
# contaminates its walls; balancing label counts (12 vs 12 here) keeps
# the midline centered.
_SIM_LABEL_FRACTION = {"normal": 0.02, "abnormal": 0.04}


def simulation_names() -> tuple[str, ...]:
    return tuple(sorted(_SIMULATIONS))


def simulation_preset(name: str, seed: int = 0,
                      k: float = 10.0, alpha: float = 0.6,
                      wall_kind: str = "euclidean"
                      ) -> tuple[Dataset, np.ndarray, AdclustParams]:
    """Build a bundled two-dimensional layout plus tuned parameters."""
    if name not in _SIMULATIONS:
        raise ValidationError(f"unknown simulation preset {name!r}")
    spec = MixtureSpec(components=list(_SIMULATIONS[name]), seed=seed,
                       label_fraction=dict(_SIM_LABEL_FRACTION))
    dataset, truth = generate(spec)
    params = AdclustParams(k=k, alpha=alpha, wall_kind=wall_kind, seed=seed,
                           **_SIM_PARAMS[name])
    return dataset, truth, params


# k_max=7 everywhere. Above ~7.5 the follower regime degenerates (deep
# contraction stays profitable for the near tail, so attackers commit
# to near-total contraction that no wall on the grid can exclude).
_ONE_ADV = {
    "log": UtilitySpec("log", a=4.0, k_max=7.0),
    "linear": UtilitySpec("linear", a=1.5, k_max=7.0),
    "exp": UtilitySpec("exp", a=0.75, k_max=7.0),
}
_THREE_ADV_A = {"log": (1.75, 1.25, 1.25),
                "linear": (0.5, 0.25, 0.5),
                "exp": (4.5, 4.0, 4.5)}


def game_names() -> tuple[str, ...]:
    return tuple(f"one_adv_{f}" for f in ("log", "linear", "exp")) + \
        tuple(f"three_adv_{f}" for f in ("log", "linear", "exp"))


def game_preset(name: str, wall_kind: str = "euclidean",
                seed: int = 54, sample_size: int = 10_000) -> GameConfig:
    """Monte-Carlo game setups: one or three adversary populations
    against a diag(1, 2) normal population centered at the origin.

    The one-adversary leader optimum sits on a shallow plateau whose
    argmax wanders with the Monte-Carlo draw; the default seed is one
    whose draw lands mid-plateau in both orientations (leader/follower
    orderings hold for every draw tested)."""
    normal = PopulationSpec(mean=(0.0, 0.0), cov=((1.0, 0.0), (0.0, 2.0)),
                            sample_size=sample_size, seed=[seed, 0])
    if name.startswith("one_adv_"):
        family = name.removeprefix("one_adv_")
        if family not in _ONE_ADV:
            raise ValidationError(f"unknown game preset {name!r}")
        adversaries = [PopulationSpec(mean=(6.0, 6.0),
                                      cov=((1.0, 1.0), (1.0, 2.0)),
                                      sample_size=sample_size, seed=[seed, 1])]
        utilities = [_ONE_ADV[family]]
        cost_c = 20.0
    elif name.startswith("three_adv_"):
        family = name.removeprefix("three_adv_")
        if family not in _THREE_ADV_A:
            raise ValidationError(f"unknown game preset {name!r}")
        means = ((6.0, 6.0), (-7.0, -7.0), (-6.0, 6.0))
        covs = (((1.0, 1.0), (1.0, 2.0)),
                ((1.0, -0.5), (-0.5, 1.0)),
                ((1.0, 0.0), (0.0, 2.0)))
        adversaries = [PopulationSpec(mean=m, cov=c, sample_size=sample_size,
                                      seed=[seed, i + 1])
                       for i, (m, c) in enumerate(zip(means, covs))]
        utilities = [UtilitySpec(family, a=a, k_max=7.0)
                     for a in _THREE_ADV_A[family]]
        cost_c = 10.0
    else:
        raise ValidationError(f"unknown game preset {name!r}")
    return GameConfig(normal=normal, adversaries=adversaries,
                      utilities=utilities, cost_c=cost_c, wall_kind=wall_kind,
                      seed=seed)
