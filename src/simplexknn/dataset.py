"""Labeled compositional datasets and CSV ingestion.

CSV files need a header row; every non-label column must be numeric and
non-negative. Rows whose parts already sum to 1 (within 1e-9) are kept
bit-for-bit; anything else (percentages, raw amounts) is closed to unit sum
on ingestion.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import IngestionError
from .simplex import _as_composition, _domain_fault

__all__ = ["LabeledDataset", "ingest_csv", "write_csv", "DEFAULT_DROP_COLUMNS"]

# the refractive-index column of the UCI glass file is not a chemical part
DEFAULT_DROP_COLUMNS = ("RI",)


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Rows of compositions with one class label per row.

    rows is an (n, D) float64 matrix whose rows lie on the simplex, labels an
    (n,) integer vector indexing into the ordered class catalog. Arrays are
    made read-only so a dataset can be shared freely across threads.
    """

    rows: np.ndarray
    labels: np.ndarray
    classes: tuple[str, ...]
    feature_names: tuple[str, ...] | None = field(default=None)

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float)
        labels = np.array(self.labels, dtype=np.intp)
        if rows.ndim != 2 or rows.shape[1] < 2:
            raise ValueError(f"rows must be (n, D>=2), got shape {rows.shape}")
        if labels.ndim != 1 or labels.shape[0] != rows.shape[0]:
            raise ValueError("labels must be one per row")
        if rows.shape[0] < 1:
            raise ValueError("a dataset needs at least one row")
        classes = tuple(str(c) for c in self.classes)
        if len(classes) < 1:
            raise ValueError("class catalog is empty")
        if labels.size and (labels.min() < 0 or labels.max() >= len(classes)):
            raise ValueError("labels must index into the class catalog")
        names = self.feature_names
        if names is not None:
            names = tuple(str(c) for c in names)
            if len(names) != rows.shape[1]:
                raise ValueError("one feature name per column required")
        rows.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "feature_names", names)

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def n_parts(self) -> int:
        return self.rows.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def class_counts(self) -> np.ndarray:
        """Number of rows per catalog class."""
        return np.bincount(self.labels, minlength=self.n_classes)

    def subset(self, indices) -> "LabeledDataset":
        """A new dataset holding the given rows; catalog and names carry over."""
        idx = np.asarray(indices, dtype=np.intp)
        return LabeledDataset(
            self.rows[idx], self.labels[idx], self.classes, self.feature_names
        )

    def equals(self, other: "LabeledDataset") -> bool:
        """Bit-exact equality of rows, labels, catalog and feature names."""
        return (
            np.array_equal(self.rows, other.rows)
            and np.array_equal(self.labels, other.labels)
            and self.classes == other.classes
            and self.feature_names == other.feature_names
        )


def ingest_csv(
    path,
    label_column: str,
    drop_columns: tuple[str, ...] = DEFAULT_DROP_COLUMNS,
) -> LabeledDataset:
    """Read a header-bearing CSV into a LabeledDataset.

    Every column except the label and the dropped ones becomes a part.
    Columns listed in drop_columns are ignored when present (by default just
    "RI"). Rows are validated (numeric, finite, non-negative, not all zero)
    and closed to unit sum unless already within 1e-9 of it. The class
    catalog follows first appearance order.
    """
    return _read_csv(path, label_column, drop_columns)[0]


def _read_csv(
    path, label_column: str, drop_columns: tuple[str, ...]
) -> tuple[LabeledDataset, list[str]]:
    """ingest_csv plus the drop columns that were present in the header."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise IngestionError(f"{path}: duplicate header columns {dupes}")
        if label_column not in header:
            raise IngestionError(
                f"{path}: label column {label_column!r} not in header {header}"
            )
        dropped = [c for c in drop_columns if c in header and c != label_column]
        feature_names = [
            c for c in header if c != label_column and c not in dropped
        ]
        if len(feature_names) < 2:
            raise IngestionError(
                f"{path}: need at least 2 part columns, got {feature_names}"
            )
        label_pos = header.index(label_column)
        feature_pos = [header.index(c) for c in feature_names]

        parts: list[list[float]] = []
        raw_labels: list[str] = []
        for line_no, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise IngestionError(
                    f"{path}: line {line_no}: expected {len(header)} fields, "
                    f"got {len(record)}"
                )
            label = record[label_pos].strip()
            if not label:
                raise IngestionError(f"{path}: line {line_no}: empty label")
            row = []
            for col, pos in zip(feature_names, feature_pos):
                token = record[pos].strip()
                try:
                    row.append(float(token))
                except ValueError:
                    raise IngestionError(
                        f"{path}: line {line_no}, column {col!r}: "
                        f"not numeric: {token!r}"
                    ) from None
            parts.append(row)
            raw_labels.append(label)

    if not parts:
        raise IngestionError(f"{path}: no data rows")

    matrix = np.asarray(parts, dtype=float)
    fault = _domain_fault(matrix)
    if fault is not None:
        _, row, col, reason = fault
        where = f"line {row + 2}"
        if col is not None:
            where += f", column {feature_names[col]!r}"
        raise IngestionError(f"{path}: {where} {reason}")
    matrix = _as_composition(matrix)

    catalog: list[str] = []
    index = {}
    labels = np.empty(len(raw_labels), dtype=np.intp)
    for i, lab in enumerate(raw_labels):
        if lab not in index:
            index[lab] = len(catalog)
            catalog.append(lab)
        labels[i] = index[lab]

    data = LabeledDataset(matrix, labels, tuple(catalog), tuple(feature_names))
    return data, dropped


def write_csv(data: LabeledDataset, path, label_column: str = "class") -> None:
    """Write a dataset back to CSV; re-ingesting reproduces it bit-for-bit."""
    names = data.feature_names or tuple(
        f"part{i + 1}" for i in range(data.n_parts)
    )
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + [label_column])
        for row, lab in zip(data.rows, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [data.classes[lab]])
