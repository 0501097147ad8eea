"""The package's public surface: lazily loaded, the same names and objects."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import simplexknn

# each public name in __all__ order, under the module that defines it
HOMES = {
    "errors": [
        "SimplexKnnError", "DegenerateInput", "NegativeComponent",
        "ZeroUnderNegativePower", "DimensionMismatch", "ZeroInAitchison",
        "InsufficientTraining", "InfeasibleStratification", "UndefinedRoc",
        "IngestionError",
    ],
    "simplex": ["closure", "as_composition", "power_transform", "perturb", "barycentre"],
    "metrics": [
        "FAMILIES", "MetricSpec", "esov_distance", "esov_alpha_distance",
        "taxicab_distance", "taxicab_alpha_distance", "aitchison_distance",
        "hellinger_distance", "angular_distance", "distance",
    ],
    "dataset": ["LabeledDataset", "ingest_csv", "write_csv"],
    "knn": ["NeighborConfig", "pairwise_distances", "classify", "membership_scores"],
    "evaluation": [
        "allocate_test_counts", "stratified_holdout", "confusion_matrix",
        "sensitivity_specificity", "GridCell", "GridResult", "grid_search",
        "loocv_scores", "RocCurve", "roc_curve", "auc",
    ],
    "loci": ["ternary_embed", "DistanceField", "distance_field"],
}


def test_all_lists_every_public_name_in_order():
    assert simplexknn.__all__ == ["__version__"] + [n for ns in HOMES.values() for n in ns]


@pytest.mark.parametrize("module, name", [(m, n) for m, ns in HOMES.items() for n in ns])
def test_name_is_its_home_modules_object(module, name):
    home = importlib.import_module(f"simplexknn.{module}")
    assert getattr(simplexknn, name) is getattr(home, name)


def test_dir_and_star_import():
    assert "__all__" in dir(simplexknn)
    assert set(simplexknn.__all__) <= set(dir(simplexknn))
    namespace: dict = {}
    exec("from simplexknn import *", namespace)
    for name in simplexknn.__all__:
        assert namespace[name] is getattr(simplexknn, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'simplexknn' has no attribute 'nope'"):
        simplexknn.nope


def test_import_loads_no_numpy():
    code = "import sys, simplexknn\nassert 'numpy' not in sys.modules, 'numpy loaded'\n"
    env = dict(os.environ, PYTHONPATH=str(Path(simplexknn.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
