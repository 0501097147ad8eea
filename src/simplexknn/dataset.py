"""Labeled compositional datasets and CSV input and output.

CSV files need a header row; every non-label column must be numeric and
non-negative. Rows whose parts already sum to 1 (within 1e-9) are kept
bit-for-bit; anything else (percentages, raw amounts) is closed to unit sum
on ingestion. Input is parsed a block of _READ_ROWS rows at a time, so no
Python object per row outlives its block.

Output format, for write_csv and every CSV the command line writes: floats
are Python repr (the shortest text that reads back to the same bits), rows
end in \\r\\n, and text is quoted only when it holds a comma, a double quote
or a line break, as csv's default dialect does; an empty field is written
as nothing. Input and output files are UTF-8 whatever the locale. Rows are
formatted a block of at most _BLOCK_FIELDS fields at a time, and each
distinct float of a block is formatted once.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import IngestionError
from .simplex import _as_composition, _domain_fault

__all__ = ["LabeledDataset", "ingest_csv", "write_csv", "DEFAULT_DROP_COLUMNS"]

# the refractive-index column of the UCI glass file is not a chemical part
DEFAULT_DROP_COLUMNS = ("RI",)

# rows parsed into one float array before the next block is read
_READ_ROWS = 4096
# fields formatted and written at once, whatever the row width (like
# knn._TILE_FLOATS): a dist matrix of n columns holds one block of strings
_BLOCK_FIELDS = 16 * 1024


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
    # (spec, rows prepared by it): one entry, the latest spec's, replaced
    # whole by knn._training_rows; rows are read-only, so it never goes stale
    _prepared_rows: tuple = field(default=(None, None), init=False, repr=False)

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
    # utf-8-sig drops the byte-order mark of an Excel "CSV UTF-8" export
    with path.open(newline="", encoding="utf-8-sig") as fh:
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

        catalog: dict[str, int] = {}  # label -> class id, in first-appearance order
        row_blocks, label_blocks = [], []
        # errors name a record by the physical line it starts on; a quoted
        # field can span lines, so keep (row, first line) of each row that
        # follows a record spanning lines, and of row 0
        starts = [(0, reader.line_num + 1)]
        end = reader.line_num  # the last line read
        n_rows = 0
        while True:
            values: list[float] = []  # this block's parts, row after row
            ids: list[int] = []
            for record in islice(reader, _READ_ROWS):
                line_no, end = end + 1, reader.line_num
                if len(record) != len(header):
                    raise IngestionError(
                        f"{path}: line {line_no}: expected {len(header)} fields, "
                        f"got {len(record)}"
                    )
                label = record[label_pos].strip()
                if not label:
                    raise IngestionError(f"{path}: line {line_no}: empty label")
                for col, pos in zip(feature_names, feature_pos):
                    token = record[pos].strip()
                    try:
                        values.append(float(token))
                    except ValueError:
                        raise IngestionError(
                            f"{path}: line {line_no}, column {col!r}: "
                            f"not numeric: {token!r}"
                        ) from None
                ids.append(catalog.setdefault(label, len(catalog)))
                if end != line_no:
                    starts.append((n_rows + len(ids), end + 1))
            if not ids:
                break
            n_rows += len(ids)
            row_blocks.append(np.asarray(values, dtype=float))
            label_blocks.append(np.asarray(ids, dtype=np.intp))

    if not row_blocks:
        raise IngestionError(f"{path}: no data rows")

    matrix = np.concatenate(row_blocks).reshape(-1, len(feature_names))
    del row_blocks  # not held while the matrix is checked and closed
    fault = _domain_fault(matrix)
    if fault is not None:
        _, row, col, reason = fault
        first_row, line = max(start for start in starts if start[0] <= row)
        where = f"line {line + row - first_row}"
        if col is not None:
            where += f", column {feature_names[col]!r}"
        raise IngestionError(f"{path}: {where} {reason}")
    matrix = _as_composition(matrix)

    labels = np.concatenate(label_blocks)
    data = LabeledDataset(matrix, labels, tuple(catalog), tuple(feature_names))
    return data, dropped


def write_csv(data: LabeledDataset, path, label_column: str = "class") -> None:
    """Write a dataset back to CSV; re-ingesting reproduces it bit-for-bit."""
    names = data.feature_names or tuple(
        f"part{i + 1}" for i in range(data.n_parts)
    )
    labels = np.asarray(data.classes, dtype=object)[data.labels]
    _write_table(path, [*names, label_column], [data.rows, labels])


def _float_fields(block: np.ndarray) -> np.ndarray:
    """repr of every value of a float block, as an object array of its shape.

    repr runs once per distinct bit pattern: keying on the bits keeps -0.0
    apart from 0.0.
    """
    bits = np.array(block, dtype=float).reshape(-1).view(np.int64)  # a copy
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    return text[inverse].reshape(block.shape)


def _quoted(texts) -> dict[str, str]:
    """Each distinct str of texts -> the field csv.writer writes for it in a row."""
    out = {}
    buf = io.StringIO()
    writer = csv.writer(buf)
    for text in dict.fromkeys(texts):
        if not text:
            # csv.writer writes a lone empty field as "", but an empty field
            # of a longer row as nothing
            out[text] = text
            continue
        buf.seek(0)
        buf.truncate()
        writer.writerow((text,))
        out[text] = buf.getvalue()[:-2]  # less the \r\n
    return out


def _write_table(path, header: list[str], columns: list) -> None:
    """Write a header and rows to path in the module's CSV output format.

    columns give each row's fields, left to right: a float array of shape
    (n,) or (n, w) gives one or w float fields, any other sequence of n str
    one text field. Rows are formatted and written a block of at most
    _BLOCK_FIELDS fields at a time.
    """
    floats = [isinstance(c, np.ndarray) and c.dtype == float for c in columns]
    widths = [
        c.shape[1] if f and c.ndim == 2 else 1 for c, f in zip(columns, floats)
    ]
    quoted = [None if f else _quoted(c) for c, f in zip(columns, floats)]
    n = len(columns[0])
    step = max(1, _BLOCK_FIELDS // sum(widths))
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for r0 in range(0, n, step):
            r1 = min(r0 + step, n)
            table = np.empty((r1 - r0, sum(widths)), dtype=object)
            j = 0
            for column, width, texts in zip(columns, widths, quoted):
                block = column[r0:r1]
                if texts is None:
                    table[:, j : j + width] = _float_fields(block).reshape(-1, width)
                else:
                    table[:, j] = [texts[t] for t in block]
                j += width
            fh.write("".join([",".join(row) + "\r\n" for row in table.tolist()]))
