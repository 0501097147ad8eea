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
from .simplex import as_composition, barycentre, closure, perturb, power_transform
from .metrics import (
    FAMILIES,
    MetricSpec,
    aitchison_distance,
    angular_distance,
    distance,
    esov_alpha_distance,
    esov_distance,
    hellinger_distance,
    taxicab_alpha_distance,
    taxicab_distance,
)
from .dataset import LabeledDataset, ingest_csv, write_csv
from .knn import NeighborConfig, classify, membership_scores, pairwise_distances
from .evaluation import (
    GridCell,
    GridResult,
    RocCurve,
    allocate_test_counts,
    auc,
    confusion_matrix,
    grid_search,
    loocv_scores,
    roc_curve,
    sensitivity_specificity,
    stratified_holdout,
)
from .loci import (
    DistanceField,
    distance_field,
    ternary_embed,
)

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
    # simplex
    "closure",
    "as_composition",
    "power_transform",
    "perturb",
    "barycentre",
    # metrics
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
    # data
    "LabeledDataset",
    "ingest_csv",
    "write_csv",
    # knn
    "NeighborConfig",
    "pairwise_distances",
    "classify",
    "membership_scores",
    # evaluation
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
    # loci
    "ternary_embed",
    "DistanceField",
    "distance_field",
]
