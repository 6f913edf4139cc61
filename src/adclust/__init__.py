"""Grid-density clustering with partial labels, defensive walls, and
Monte-Carlo wall-sizing games."""
from .core import (AdclustParams, ClusterComposition, ClusteringResult,
                   REGION_NAMES, SubCluster, adclust, match, merge)
from .dataset import (Dataset, IngestInfo, LABEL_ABNORMAL, LABEL_NONE,
                      LABEL_NORMAL, TRUTH_UNKNOWN, ingest_csv,
                      read_truth_csv, write_csv)
from .errors import (DegenerateGeometryError, DegenerateRegionError,
                     GridBudgetError, InsufficientLabelsError,
                     ValidationError)
from .game import (Equilibrium, GameConfig, GameTables, PopulationSpec,
                   UtilitySpec, attacker_utility, build_tables,
                   defender_utility, solve_follower, solve_game, solve_leader)
from .grid import (Grid, Thresholds, build_grid, compute_density, compute_dt,
                   compute_rt)
from .kernel import KernelClassifier, fit_kernel, median_pairwise_distance, \
    weight
from .synthetic import (Component, MixtureSpec, game_names, game_preset,
                        generate, simulation_names, simulation_preset)
from .walls import (RegionStats, Wall, chi2_quantile, eta_of_alpha,
                    fit_euclidean_wall, fit_manhattan_wall, fit_region_stats,
                    stats_from_moments)

__all__ = [
    "AdclustParams", "ClusterComposition", "ClusteringResult", "Component",
    "Dataset", "DegenerateGeometryError", "DegenerateRegionError",
    "Equilibrium", "GameConfig", "GameTables", "Grid", "GridBudgetError",
    "IngestInfo", "InsufficientLabelsError", "KernelClassifier",
    "LABEL_ABNORMAL", "LABEL_NONE", "LABEL_NORMAL", "MixtureSpec",
    "PopulationSpec", "REGION_NAMES", "RegionStats", "SubCluster",
    "TRUTH_UNKNOWN", "Thresholds", "UtilitySpec", "ValidationError", "Wall",
    "adclust", "attacker_utility", "build_grid", "build_tables",
    "chi2_quantile", "compute_density", "compute_dt", "compute_rt",
    "defender_utility", "eta_of_alpha", "fit_euclidean_wall",
    "fit_kernel", "fit_manhattan_wall", "fit_region_stats", "game_names",
    "game_preset", "generate", "ingest_csv", "match",
    "median_pairwise_distance", "merge", "read_truth_csv",
    "simulation_names", "simulation_preset", "solve_follower", "solve_game",
    "solve_leader", "stats_from_moments", "weight", "write_csv",
]

__version__ = "0.1.0"
