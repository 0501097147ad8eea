"""k-nearest-neighbour classification of compositional data on the simplex.

Compositions (non-negative vectors summing to 1) are compared under a family
of metrics: the square root of the Jensen-Shannon divergence and the taxicab
metric, both generalised through a power transformation, plus the Aitchison
log-ratio, Hellinger and angular distances. The Jensen-Shannon and taxicab
families handle zero parts natively, so no zero replacement is ever applied.

On top of the metrics sit a deterministic k-NN classifier, a repeated
stratified-holdout tuning harness for the (alpha, k) grid, leave-one-out ROC
machinery, and ternary distance-field generation. Everything is pure and
seeded: identical inputs give bit-identical outputs.
"""

__version__ = "0.1.0"

from importlib import import_module

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    InfeasibleStratification,
    IngestionError,
    InsufficientTraining,
    NegativeComponent,
    SimplexKnnError,
    UndefinedRoc,
    ZeroInAitchison,
    ZeroUnderNegativePower,
)

# Every other public name loads its module on first use (PEP 562), so
# `import simplexknn` loads no numpy: a program that imports the package
# first can still fix numpy's thread pool in its environment, as cli does.
_HOMES = {
    "simplex": ("closure", "as_composition", "power_transform", "perturb", "barycentre"),
    "metrics": (
        "FAMILIES",
        "MetricSpec",
        "esov_distance",
        "esov_alpha_distance",
        "taxicab_distance",
        "taxicab_alpha_distance",
        "aitchison_distance",
        "hellinger_distance",
        "angular_distance",
        "distance",
    ),
    "dataset": ("LabeledDataset", "ingest_csv", "write_csv"),
    "knn": ("NeighborConfig", "pairwise_distances", "classify", "membership_scores"),
    "evaluation": (
        "allocate_test_counts",
        "stratified_holdout",
        "confusion_matrix",
        "sensitivity_specificity",
        "GridCell",
        "GridResult",
        "grid_search",
        "loocv_scores",
        "RocCurve",
        "roc_curve",
        "auc",
    ),
    "loci": ("ternary_embed", "DistanceField", "distance_field"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [
    "__version__",
    # errors
    "SimplexKnnError",
    "DegenerateInput",
    "NegativeComponent",
    "ZeroUnderNegativePower",
    "DimensionMismatch",
    "ZeroInAitchison",
    "InsufficientTraining",
    "InfeasibleStratification",
    "UndefinedRoc",
    "IngestionError",
    *_HOME,
]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_HOME))
