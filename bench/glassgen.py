"""Seeded input generators for the benchmark.

The UCI glass file is not in the repository, so a glass-shaped stand-in is
generated instead: six classes in the UCI proportions 70/76/17/13/9/29, eight
oxide parts written as weight percentages (ingest closes them to unit sum),
an RI column that the CLI drops by default, and real zero parts (about a
quarter of all parts, most rows holding at least one). The ternary generator
makes a large 3-part percentage file for the plot-preparation path.

Every function takes the seed as an argument and returns CSV text; the same
seed always gives the same bytes.
"""

from __future__ import annotations

import csv
import io

import numpy as np

GLASS_CLASSES = ("1", "2", "3", "5", "6", "7")
GLASS_SIZES = (70, 76, 17, 13, 9, 29)
GLASS_PARTS = ("Na", "Mg", "Al", "Si", "K", "Ca", "Ba", "Fe")
GLASS_LABEL = "Type"

# per-class mean weight percent of each part, shaped after the UCI classes
_MEANS = np.array([
    [13.24, 3.55, 1.16, 72.62, 0.45, 8.80, 0.20, 0.10],
    [13.11, 3.00, 1.41, 72.60, 0.52, 9.07, 0.25, 0.12],
    [13.44, 3.54, 1.20, 72.40, 0.41, 8.78, 0.15, 0.10],
    [12.83, 0.77, 2.03, 72.37, 1.47, 10.12, 0.60, 0.15],
    [14.65, 1.31, 1.37, 73.21, 0.10, 9.36, 0.10, 0.05],
    [14.44, 0.54, 2.12, 72.97, 0.33, 8.49, 1.04, 0.05],
])
# per-class probability that a part is exactly zero, in rows not drawn clean
_ZERO_P = np.array([
    [0.0, 0.30, 0.0, 0.0, 0.30, 0.0, 0.95, 0.75],
    [0.0, 0.30, 0.0, 0.0, 0.30, 0.0, 0.95, 0.75],
    [0.0, 0.30, 0.0, 0.0, 0.30, 0.0, 0.95, 0.75],
    [0.0, 0.40, 0.0, 0.0, 0.10, 0.0, 0.85, 0.70],
    [0.0, 0.25, 0.0, 0.0, 1.00, 0.0, 1.00, 1.00],
    [0.0, 0.80, 0.0, 0.0, 0.45, 0.0, 0.20, 0.90],
])
# share of rows with no zero part; zeros cluster in the other rows, as in the
# UCI file, where about 25% of parts but 88% of rows are zero-bearing
_CLEAN_P = np.array([0.14, 0.14, 0.14, 0.10, 0.0, 0.10])
# log-normal spread: tight for the major oxides, wide for the trace ones
_SPREAD = np.array([0.05, 0.25, 0.25, 0.01, 0.5, 0.1, 0.6, 0.6])

TERNARY_PARTS = ("sand", "silt", "clay")
TERNARY_LABEL = "texture"

# stream tags keep each generator's draws independent of the others
_GLASS_STREAM = 1
_TERNARY_STREAM = 2


def class_sizes(n_rows: int) -> np.ndarray:
    """Glass class sizes scaled to n_rows by largest remainder."""
    base = np.asarray(GLASS_SIZES)
    quota = n_rows * base / base.sum()
    sizes = np.floor(quota).astype(int)
    order = np.lexsort((np.arange(base.size), sizes - quota))
    sizes[order[: n_rows - sizes.sum()]] += 1
    return sizes


def _csv_text(header, records) -> str:
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(records)
    return out.getvalue()


def _glass_record(rng, c: int) -> list[str]:
    values = _MEANS[c] * np.exp(rng.normal(0.0, _SPREAD))
    zero = rng.random(len(GLASS_PARTS)) < _ZERO_P[c]
    if rng.random() < _CLEAN_P[c]:
        zero[:] = False
    parts = ["0.00" if z else f"{max(v, 0.01):.2f}" for v, z in zip(values, zero)]
    ri = f"{1.5175 + rng.normal(0.0, 0.002):.5f}"
    return [ri] + parts + [GLASS_CLASSES[c]]


def glass_csv(seed: int, n_rows: int = 214, dup_share: float = 0.0) -> str:
    """Glass-shaped CSV: RI, eight oxide percentages and the Type label.

    dup_share of the rows (rounded) are exact copies of other rows of the
    same class, so class sizes stay those of class_sizes(n_rows). Rows are
    shuffled, so duplicates do not sit next to their originals.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _GLASS_STREAM]))
    sizes = class_sizes(n_rows)
    dups = np.floor(round(dup_share * n_rows) * sizes / n_rows).astype(int)
    records = []
    for c, (size, n_dup) in enumerate(zip(sizes, dups)):
        unique = [_glass_record(rng, c) for _ in range(size - n_dup)]
        copies = rng.integers(0, len(unique), n_dup)
        records += unique + [list(unique[i]) for i in copies]
    order = rng.permutation(len(records))
    header = ["RI", *GLASS_PARTS, GLASS_LABEL]
    return _csv_text(header, [records[i] for i in order])


def ternary_csv(seed: int, n_rows: int) -> str:
    """3-part percentage CSV (sand/silt/clay) with a texture label.

    About 5% of rows have one part exactly zero, the boundary case the power
    transform and the plot embedding must keep.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TERNARY_STREAM]))
    parts = rng.gamma(shape=(2.0, 1.5, 1.0), size=(n_rows, 3))
    zeroed = rng.random(n_rows) < 0.05
    parts[zeroed, rng.integers(0, 3, n_rows)[zeroed]] = 0.0
    parts = 100.0 * parts / parts.sum(axis=1, keepdims=True)
    labels = np.asarray(TERNARY_PARTS)[parts.argmax(axis=1)]
    records = (
        [f"{a:.3f}", f"{b:.3f}", f"{c:.3f}", lab]
        for (a, b, c), lab in zip(parts.tolist(), labels.tolist())
    )
    return _csv_text([*TERNARY_PARTS, TERNARY_LABEL], records)
