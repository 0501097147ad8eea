"""Shared fixtures: synthetic compositional datasets and the optional
UCI glass file (never bundled; users fetch it themselves).

bench/ goes on the import path, so tests take their oracle from
bench/reference.py, the one restatement of the documented formulas that the
benchmark also checks every output against.
"""

import os
import sys
from pathlib import Path

import numpy as np
import pytest

from simplexknn import LabeledDataset, ingest_csv
from simplexknn.simplex import closure

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

GLASS_HEADER = ("Id", "RI", "Na", "Mg", "Al", "Si", "K", "Ca", "Ba", "Fe", "Type")


def find_glass_file():
    env = os.environ.get("SIMPLEXKNN_GLASS")
    candidates = [Path(env)] if env else []
    candidates += [ROOT / "data" / "glass.data", ROOT / "data" / "glass.csv"]
    for path in candidates:
        if path.is_file():
            return path
    return None


GLASS_MISSING = (
    "UCI glass file not found; set SIMPLEXKNN_GLASS or place it at "
    "data/glass.data (see README)"
)


def materialize_glass_csv(target_dir):
    """Headered CSV copy of the UCI glass file, or None when unavailable."""
    raw = find_glass_file()
    if raw is None:
        return None
    text = raw.read_text()
    first = text.splitlines()[0]
    target = Path(target_dir) / "glass.csv"
    if "Type" in first:
        target.write_text(text)
    else:
        target.write_text(",".join(GLASS_HEADER) + "\n" + text.strip() + "\n")
    return target


@pytest.fixture(scope="session")
def glass_csv(tmp_path_factory):
    target = materialize_glass_csv(tmp_path_factory.mktemp("glass"))
    if target is None:
        pytest.skip(GLASS_MISSING)
    return target


@pytest.fixture(scope="session")
def glass_data(glass_csv):
    return ingest_csv(glass_csv, "Type", drop_columns=("Id", "RI"))


def positive_compositions(rng, n, n_parts, floor=1e-3):
    """Strictly positive compositions with every part >= floor."""
    x = rng.dirichlet(np.ones(n_parts), size=n)
    return (1.0 - floor * n_parts) * x + floor


def sparse_compositions(rng, n, n_parts, zero_fraction=0.3):
    """Compositions with exact zero parts (at least one positive per row)."""
    x = rng.dirichlet(np.ones(n_parts), size=n)
    mask = rng.random((n, n_parts)) < zero_fraction
    keep_col = rng.integers(0, n_parts, size=n)
    mask[np.arange(n), keep_col] = False
    x[mask] = 0.0
    return closure(x)


def compositional_blobs(rng, class_sizes, n_parts, spread=8.0, floor=0.0):
    """Separable classes: gamma draws with a class-specific dominant part."""
    rows, labels = [], []
    for c, size in enumerate(class_sizes):
        conc = np.ones(n_parts)
        conc[c % n_parts] = spread
        draw = rng.gamma(shape=conc, scale=1.0, size=(size, n_parts)) + floor
        rows.append(draw)
        labels += [c] * size
    classes = tuple(f"class{c}" for c in range(len(class_sizes)))
    return LabeledDataset(closure(np.vstack(rows)), np.array(labels), classes)


@pytest.fixture
def blob_dataset():
    rng = np.random.default_rng(20240811)
    return compositional_blobs(rng, (12, 10, 8), n_parts=4, floor=1e-3)


@pytest.fixture
def sparse_dataset():
    rng = np.random.default_rng(555)
    rows = sparse_compositions(rng, 24, 5, zero_fraction=0.35)
    labels = np.arange(24) % 3
    return LabeledDataset(rows, labels, ("a", "b", "c"))
