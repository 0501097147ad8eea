"""Labeled compositional datasets and CSV input and output.

CSV files need a header row; every non-label column must be numeric and
non-negative. Rows whose parts already sum to 1 (within 1e-9) are kept
bit-for-bit; anything else (percentages, raw amounts) is closed to unit sum
on ingestion. The one parser, _read_blocks, yields closed blocks of at most
_READ_ROWS rows, so no Python object per row outlives its block and a
caller that streams the blocks (the transform command) holds one block at
a time. Errors come as a whole-file read gives them: a parse error (field
count, empty label, non-numeric part) when its line is reached; else, once
the last row is read, the file's domain fault as simplex._domain_fault
ranks it (the first non-finite part, else the first negative one, else the
first all-zero row). No block is yielded after a block with a domain fault.

Output format, for write_csv and every CSV the command line writes: floats
are Python repr (the shortest text that reads back to the same bits), rows
end in \\r\\n, and text is quoted only when it holds a comma, a double quote
or a line break, as csv's default dialect does; an empty field is written
as nothing. Input and output files are UTF-8 whatever the locale. The one
writer, _write_table, takes rows as an iterable of blocks and writes them
in pieces of at most _BLOCK_FIELDS fields, each built from one text list per
column, with each distinct float of a piece formatted once. A regular file
is written whole or not at all: the rows go to a new file beside it, which
replaces it only once the last block is written.
"""

from __future__ import annotations

import csv
import io
import os
import stat
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import IngestionError
from .simplex import _as_composition, _domain_fault

__all__ = ["LabeledDataset", "ingest_csv", "write_csv", "DEFAULT_DROP_COLUMNS"]

# the refractive-index column of the UCI glass file is not a chemical part
DEFAULT_DROP_COLUMNS = ("RI",)

# rows parsed into one float array before the next block is read; transform
# holds a block's Python floats, so this sets its peak (2.4 MiB less than 4,096)
_READ_ROWS = 1024
# fields formatted and written at once, whatever the row width (like
# metrics._TILE_FLOATS): a dist matrix of n columns holds one block of strings
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
        labels = _whole(self.labels, "labels")
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
        """A new dataset holding the given rows; catalog and names carry over.

        indices are row numbers or, as in numpy indexing, a boolean mask.
        """
        idx = np.asarray(indices)
        if idx.dtype != bool:
            idx = _whole(idx, "indices")
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


def _whole(values, name: str) -> np.ndarray:
    """values as an intp array, by simplex._integer's rule for each value: a
    whole float such as 1.0 is kept, while a bool or a fraction is an error."""
    array = np.asarray(values)
    with np.errstate(invalid="ignore"):  # nan and inf fail the comparison
        whole = array.astype(np.intp)
    if array.dtype == bool or not np.array_equal(whole, array):
        raise ValueError(f"{name} must be whole numbers")
    return whole


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
    blocks = _read_blocks(path, label_column, drop_columns)
    feature_names, dropped, catalog = next(blocks)
    rows, labels = zip(*blocks)
    data = LabeledDataset(
        np.concatenate(rows), np.concatenate(labels), tuple(catalog), feature_names
    )
    return data, dropped


def _read_blocks(path, label_column: str, drop_columns: tuple[str, ...]):
    """Parse a CSV as ingest_csv does, a block of rows at a time.

    Yields (feature_names, dropped, catalog) once the header is checked:
    the part columns, the drop columns present in the header, and the dict
    label -> class id, which grows in first-appearance order as blocks are
    read. Then yields each block of at most _READ_ROWS rows as (rows, ids):
    a closed (b, D) float array and the (b,) class ids of its labels. Errors
    come in the order the module docstring gives.
    """
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
        n_fields = len(header)
        label_pos = header.index(label_column)
        feature_pos = [header.index(c) for c in feature_names]
        parts_of = itemgetter(*feature_pos)  # a tuple: there are 2 or more

        catalog: dict[str, int] = {}  # label -> class id, in first-appearance order
        yield tuple(feature_names), dropped, catalog
        # errors name a record by the physical line it starts on; a quoted
        # field can span lines, so keep (row, first line) of each row that
        # follows a record spanning lines, and of row 0
        starts = [(0, reader.line_num + 1)]
        end = reader.line_num  # the last line read
        n_rows = 0
        fault = None  # the file's domain fault so far: (rank, row, part, reason)
        while True:
            values: list[float] = []  # this block's parts, row after row
            ids: list[int] = []
            for record in islice(reader, _READ_ROWS):
                line_no, end = end + 1, reader.line_num
                if len(record) != n_fields:
                    raise IngestionError(
                        f"{path}: line {line_no}: expected {n_fields} fields, "
                        f"got {len(record)}"
                    )
                label = record[label_pos].strip()
                if not label:
                    raise IngestionError(f"{path}: line {line_no}: empty label")
                try:
                    values.extend(map(float, parts_of(record)))
                except ValueError:
                    # float strips what str.strip does but \x1c-\x1f: parse
                    # the row's stripped parts again, naming the first bad one
                    del values[len(ids) * len(feature_pos) :]
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
            rows = np.asarray(values, dtype=float).reshape(-1, len(feature_names))
            found = _domain_fault(rows)
            if found is not None:
                # the whole file's fault: the highest-ranked, then the first
                rank, _, row, col, reason = found
                found = rank, n_rows + row, col, reason
                fault = found if fault is None else min(fault, found)
            if fault is None:
                yield _as_composition(rows), np.asarray(ids, dtype=np.intp)
            n_rows += len(ids)

    if not n_rows:
        raise IngestionError(f"{path}: no data rows")
    if fault is not None:
        _, row, col, reason = fault
        first_row, line = max(start for start in starts if start[0] <= row)
        where = f"line {line + row - first_row}"
        if col is not None:
            where += f", column {feature_names[col]!r}"
        raise IngestionError(f"{path}: {where} {reason}")


def write_csv(data: LabeledDataset, path, label_column: str = "class") -> None:
    """Write a dataset back to CSV; re-ingesting reproduces it bit-for-bit."""
    names = data.feature_names or tuple(
        f"part{i + 1}" for i in range(data.n_parts)
    )
    labels = np.asarray(data.classes, dtype=object)[data.labels]
    _write_table(path, [*names, label_column], [[data.rows, labels]])


def _float_fields(block: np.ndarray, width: int) -> list[list[str]]:
    """repr of each value of a float block of width columns, a list per column.

    repr runs once per distinct bit pattern: keying on the bits keeps -0.0
    apart from 0.0.
    """
    bits = np.array(block, dtype=float).reshape(-1).view(np.int64)  # a copy
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    return text[inverse].reshape(len(block), width).T.tolist()


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


@contextmanager
def _output(path, rows):
    """path opened to write rows, an iterator, as text in the output encoding.

    A regular file, or a path not there yet, is written to a new file beside
    it, which replaces it only when the with block ends without an error,
    else is removed: path then keeps what it held, or is not made. The new
    file has the mode opening path for writing leaves: an existing file's,
    or the umask's for a new one. A device or a FIFO (such as /dev/stdout),
    and a path with no room for a new file beside it, are written in place.
    Where path cannot be opened, rows are drained first: an error in them is
    raised before path's, as when every row was made before path was opened.
    """
    path = Path(path)
    target = Path(os.path.realpath(path))  # a symlink's target is replaced
    temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    fh = None
    if path.is_file() or not path.exists():
        with suppress(OSError):
            fh = temp.open("x", newline="", encoding="utf-8")
    if fh is None:
        # in place; an error opening path names path, not the new file
        try:
            fh = path.open("w", newline="", encoding="utf-8")
        except OSError:
            for _ in rows:
                pass
            raise
        with fh:
            yield fh
        return
    try:
        with fh:
            if target.exists():
                os.chmod(temp, stat.S_IMODE(target.stat().st_mode))
            yield fh
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _write_table(path, header: list[str], blocks) -> None:
    """Write a header and row blocks to path in the module's CSV output format.

    Each block is a list of columns, the same for every block, giving its
    rows' fields left to right: a float array of shape (b,) or (b, w) gives
    one or w float fields, any other sequence of b str one text field. Rows
    are written in pieces of at most _BLOCK_FIELDS fields, each joined from
    one text list per column, and path is written whole or not at all (see
    _output).
    """
    quoted: dict[str, str] = {}  # every text written so far -> its field
    blocks = iter(blocks)
    with _output(path, blocks) as fh:
        csv.writer(fh).writerow(header)
        for columns in blocks:
            floats = [isinstance(c, np.ndarray) and c.dtype == float for c in columns]
            widths = [
                c.shape[1] if f and c.ndim == 2 else 1 for c, f in zip(columns, floats)
            ]
            for column, f in zip(columns, floats):
                if not f:
                    quoted |= _quoted(t for t in column if t not in quoted)
            n = len(columns[0])
            step = max(1, _BLOCK_FIELDS // sum(widths))
            for r0 in range(0, n, step):
                piece = []  # one text list per field of rows r0 to r0 + step
                for column, width, f in zip(columns, widths, floats):
                    block = column[r0 : r0 + step]
                    if f:
                        piece += _float_fields(block, width)
                    else:
                        piece.append([quoted[t] for t in block])
                fh.write("\r\n".join(map(",".join, zip(*piece))) + "\r\n")
