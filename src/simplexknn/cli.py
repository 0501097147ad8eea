"""Batch command line front door.

Five subcommands:

  dist       pairwise distance matrix of a dataset under one metric
  transform  power-transform a dataset (adds plot coordinates for 3 parts)
  tune       repeated stratified-holdout accuracy over an (alpha, k) grid
  roc        leave-one-out membership scores -> one-vs-rest ROC per class
  loci       distance field over the ternary lattice from a reference point

Grids use the inclusive start:end:step syntax (step defaults to 1), or a
comma list. Note that values starting with a minus sign must be attached
with '=', e.g. --alphas=-1:1:0.1. Every JSON report (or .meta.json sidecar
of a CSV) echoes the tool version, the full configuration and the seed, so
any output can be regenerated bit-identically.

The CLI runs numpy's OpenBLAS with one thread unless OPENBLAS_NUM_THREADS is
already set: every command is single-threaded, and an idle pool's workers
busy-wait, costing CPU time in each process. Importing the library leaves the
variable alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# before numpy loads, which sizes the pool once; a value the caller set wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .dataset import (
    _BLOCK_FIELDS,
    DEFAULT_DROP_COLUMNS,
    LabeledDataset,
    _output,
    _read_blocks,
    _read_csv,
    _write_table,
)
from .errors import SimplexKnnError
from .evaluation import auc, grid_search, loocv_scores, roc_curve
from .knn import NeighborConfig, pairwise_distances
from .loci import DEFAULT_RESOLUTION, _lattice, ternary_embed
from .metrics import FAMILIES, POWER_FAMILIES, MetricSpec
from .simplex import _checked_power_transform, _integer, barycentre

__all__ = ["main", "build_parser", "parse_grid"]

_GRID_EPS = 1e-12
_GRID_STEPS = 10_000  # per range: a tiny step would loop until memory runs out


def _snap(value: float) -> float:
    # cosmetic: -1 + 17*0.1 prints as 0.7, not 0.7000000000000002
    return round(value, 10)


def _number(entry: str, where: str) -> float:
    """float(entry), where a failure names the entry and where it is."""
    try:
        return float(entry)
    except ValueError:
        raise ValueError(f"entry {entry!r} of {where} is not a number") from None


def parse_grid(text: str, integer: bool = False) -> list:
    """Parse 'start:end:step' (inclusive ends) and comma lists; integer: k values."""
    values: list[float] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty entry in grid {text!r}")
        if ":" in chunk:
            fields = chunk.split(":")
            if len(fields) == 2:
                fields.append("1")
            if len(fields) != 3:
                raise ValueError(f"bad grid syntax {chunk!r}, want start:end:step")
            start, end, step = (_number(f, f"grid {text!r}") for f in fields)
            if not np.isfinite([start, end, step]).all():  # the loop would never end
                raise ValueError(f"grid range must be finite in {chunk!r}")
            if step <= 0:
                raise ValueError(f"grid step must be positive in {chunk!r}")
            if end < start - _GRID_EPS:
                raise ValueError(f"grid end below start in {chunk!r}")
            if (end - start) / step > _GRID_STEPS:  # may be inf
                raise ValueError(f"grid range {chunk!r} takes over {_GRID_STEPS} steps")
            i = 0
            while True:
                v = start + i * step
                if v > end + _GRID_EPS:
                    break
                values.append(_snap(v))
                i += 1
        else:
            values.append(_snap(_number(chunk, f"grid {text!r}")))
    if integer:  # whole values as ints, so a k of 0 is reported as typed
        values = [_integer(int(v) if v.is_integer() else v, "k") for v in values]
    deduped = list(dict.fromkeys(values))
    if not deduped:
        raise ValueError(f"grid {text!r} is empty")
    return deduped


def _drop_columns(args) -> tuple[str, ...]:
    requested = () if args.keep_all else DEFAULT_DROP_COLUMNS
    return tuple(dict.fromkeys(requested + tuple(args.drop or ())))


def _meta(args, names, dropped, n_rows: int, classes) -> dict:
    return {
        "input": str(args.input),
        "label_column": args.label_column,
        "columns_used": list(names),
        "columns_dropped": dropped,
        "n_rows": n_rows,
        "classes": list(classes),
    }


def _load_dataset(args) -> tuple[LabeledDataset, dict]:
    data, dropped = _read_csv(args.input, args.label_column, _drop_columns(args))
    return data, _meta(args, data.feature_names, dropped, len(data), data.classes)


def _envelope(command: str, config: dict) -> dict:
    return {
        "tool": "simplexknn",
        "version": __version__,
        "command": command,
        "config": config,
    }


def _write_json(path, payload: dict) -> None:
    """payload as indented JSON, written whole or not at all (see dataset._output)."""
    with _output(path, ()) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_report(args, report: dict, body, header: list[str], blocks) -> None:
    """Write report | body() as JSON, or a CSV plus report as sidecar.

    The CSV is header and the rows of blocks, an iterable of row blocks
    (see dataset._write_table), written whole or not at all; the sidecar is
    written after the last row, so a report that blocks complete as they
    are drained (transform's row count, loci's point count) is complete, as
    is report | body(), joined once body() has run. body is called only for
    JSON, blocks only for CSV.
    """
    if args.format == "json":
        _write_json(args.output, report | body())
    else:
        _write_table(args.output, header, blocks)
        _write_json(f"{args.output}.meta.json", report)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cmd_dist(args) -> int:
    data, meta = _load_dataset(args)
    spec = MetricSpec(args.family, args.alpha)
    matrix = pairwise_distances(data, data.rows, spec)
    config = dict(meta, family=args.family, alpha=spec.alpha, format=args.format)
    _write_report(
        args,
        _envelope("dist", config),
        lambda: {"matrix": matrix.tolist()},
        ["row"] + [f"r{j}" for j in range(len(data))],
        [[[str(i) for i in range(len(data))], matrix]],
    )
    return 0


def _cmd_transform(args) -> int:
    blocks = _read_blocks(args.input, args.label_column, _drop_columns(args))
    names, dropped, catalog = next(blocks)
    config = dict(
        _meta(args, names, dropped, 0, ()), alpha=args.alpha, format=args.format
    )
    ternary = len(names) == 3

    def transformed():
        """The rows' blocks as [parts, labels, plot coordinates], (b, 0) for
        other than 3 parts; once drained, config holds the count and classes.
        A transform fault is raised after the last block, as reading the
        whole file first would give it, naming the row by its place in the
        file."""
        fault = None
        n_rows = 0
        for rows, ids in blocks:
            if fault is None:
                try:
                    parts = _checked_power_transform(
                        rows, args.alpha, "dataset", names, n_rows
                    )
                except (SimplexKnnError, ValueError) as exc:
                    fault = exc
                else:
                    labels = np.asarray(tuple(catalog), dtype=object)[ids]
                    coords = ternary_embed(parts) if ternary else parts[:, :0]
                    yield [parts, labels, coords]
            n_rows += len(ids)
        config.update(n_rows=n_rows, classes=list(catalog))
        if fault is not None:
            raise fault

    _write_report(
        args,
        _envelope("transform", config),
        lambda: {"rows": [
            {"parts": p, "label": label, **dict(zip(("x", "y"), xy))}
            for parts, labels, coords in transformed()
            for p, label, xy in zip(parts.tolist(), labels.tolist(), coords.tolist())
        ]},
        list(names) + [args.label_column] + (["x", "y"] if ternary else []),
        transformed(),
    )
    return 0


def _grid_cells_csv(result):
    """The tune CSV's header and a generator of its one block, whose cells
    are formatted only when the CSV is written."""
    header = ["alpha", "k", "mean_accuracy", "sd_accuracy"]
    for cls in result.classes:
        header += [
            f"sensitivity_mean_{cls}",
            f"sensitivity_sd_{cls}",
            f"specificity_mean_{cls}",
            f"specificity_sd_{cls}",
        ]
    header.append("error")

    def row(cell):
        out = [_fmt(cell.alpha), _fmt(cell.k), _fmt(cell.mean_accuracy),
               _fmt(cell.sd_accuracy)]
        for c in range(len(result.classes)):
            for stats in (cell.sensitivity_mean, cell.sensitivity_sd,
                          cell.specificity_mean, cell.specificity_sd):
                out.append(_fmt(stats[c]) if stats is not None else "")
        out.append(cell.error or "")
        return out

    def blocks():
        # one text column per field: None and the absent error are empty
        yield list(zip(*map(row, result.cells)))

    return header, blocks()


def _cmd_tune(args) -> int:
    data, meta = _load_dataset(args)
    alphas = parse_grid(args.alphas)
    ks = parse_grid(args.k, integer=True)
    result = grid_search(
        data,
        alphas,
        ks,
        args.family,
        B=args.B,
        test_total=args.test_n,
        seed=args.seed,
    )
    config = dict(
        meta,
        family=args.family,
        alphas=alphas,
        ks=ks,
        B=args.B,
        test_total=args.test_n,
        seed=args.seed,
        format=args.format,
    )
    report = _envelope("tune", config)
    # the sidecar of a CSV leaves out the cells, which are the CSV's rows
    report["result"] = summary = result.to_dict()
    cells = summary.pop("cells")
    best = result.best()
    report["best"] = {"alpha": best.alpha, "k": best.k,
                      "mean_accuracy": best.mean_accuracy}
    _write_report(
        args, report, lambda: {"result": summary | {"cells": cells}},
        *_grid_cells_csv(result)
    )
    return 0


def _slug(name: str) -> str:
    return "".join(ch if ch.isalnum() else "-" for ch in name).strip("-") or "class"


def _cmd_roc(args) -> int:
    data, meta = _load_dataset(args)
    spec = MetricSpec(args.family, args.alpha)
    config = NeighborConfig(args.k, spec)
    scores = loocv_scores(data, config)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    aucs = {}
    files = {}
    for c, cls in enumerate(data.classes):
        curve = roc_curve(scores, data.labels, c, k=args.k)
        name = f"roc_{c:02d}_{_slug(cls)}.csv"
        _write_table(
            out_dir / name,
            ["threshold", "fpr", "tpr"],
            [[np.column_stack([curve.thresholds, curve.fpr, curve.tpr])]],
        )
        aucs[cls] = auc(curve)
        files[cls] = name
    report = _envelope(
        "roc", dict(meta, family=args.family, alpha=spec.alpha, k=args.k)
    )
    report["auc"] = aucs
    report["files"] = files
    _write_json(out_dir / "roc_summary.json", report)
    return 0


def _cmd_loci(args) -> int:
    text = args.reference
    reference = (
        barycentre(3)
        if text is None
        else np.asarray([_number(t, f"--reference {text!r}") for t in text.split(",")])
    )
    spec = MetricSpec(args.family, args.alpha)
    header = ["c1", "c2", "c3", "x", "y", "value"]
    # runs the writer formats whole, checked before any output is opened
    _, reference, runs = _lattice(spec, reference, args.n, _BLOCK_FIELDS // len(header))
    config = {
        "family": args.family,
        "alpha": spec.alpha,
        "n": args.n,
        "reference": list(reference),
        "format": args.format,
    }
    report = _envelope("loci", config)
    report["n_points"] = 0

    def blocks():
        for parts, values in runs:
            report["n_points"] += len(values)
            yield [parts, ternary_embed(parts), values]

    _write_report(
        args,
        report,
        lambda: {"points": [
            dict(zip(header, row))
            for columns in blocks()
            for row in np.column_stack(columns).tolist()
        ]},
        header,
        blocks(),
    )
    return 0


def _add_dataset_flags(sub) -> None:
    sub.add_argument("--input", required=True, help="CSV file with a header row")
    sub.add_argument(
        "--label-column", required=True, help="name of the class column"
    )
    sub.add_argument(
        "--drop",
        action="append",
        metavar="COLUMN",
        help="ignore this column (repeatable); 'RI' is dropped by default",
    )
    sub.add_argument(
        "--keep-all",
        action="store_true",
        help="disable the default drop of the 'RI' column",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexknn",
        description="k-NN classification of compositional data on the simplex",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_dist = subs.add_parser("dist", help="pairwise distance matrix of a dataset")
    _add_dataset_flags(p_dist)
    p_dist.add_argument("--family", choices=FAMILIES, default="esov")
    p_dist.add_argument("--alpha", type=float, default=1.0)
    p_dist.add_argument("--output", required=True)
    p_dist.add_argument("--format", choices=("json", "csv"), default="csv")
    p_dist.set_defaults(func=_cmd_dist)

    p_tr = subs.add_parser("transform", help="power-transform a dataset")
    _add_dataset_flags(p_tr)
    p_tr.add_argument("--alpha", type=float, required=True)
    p_tr.add_argument("--output", required=True)
    p_tr.add_argument("--format", choices=("json", "csv"), default="csv")
    p_tr.set_defaults(func=_cmd_transform)

    p_tune = subs.add_parser(
        "tune", help="grid search over (alpha, k) with repeated stratified holdout"
    )
    _add_dataset_flags(p_tune)
    p_tune.add_argument("--family", choices=FAMILIES, required=True)
    p_tune.add_argument(
        "--alphas",
        default="-1:1:0.1",
        help="alpha grid, e.g. --alphas=-1:1:0.1; used by "
        + " and ".join(POWER_FAMILIES)
        + ", ignored by the families without a power parameter",
    )
    p_tune.add_argument("--k", default="1:15", help="k grid, e.g. 1:15 or 2,3")
    p_tune.add_argument("--B", type=int, default=200, help="number of replications")
    p_tune.add_argument(
        "--test-n", type=int, required=True, help="test rows per replication"
    )
    p_tune.add_argument(
        "--seed", type=int, required=True, help="RNG seed (recorded in the report)"
    )
    p_tune.add_argument("--output", required=True)
    p_tune.add_argument("--format", choices=("json", "csv"), default="json")
    p_tune.set_defaults(func=_cmd_tune)

    p_roc = subs.add_parser(
        "roc", help="leave-one-out ROC curves, one CSV per class"
    )
    _add_dataset_flags(p_roc)
    p_roc.add_argument("--family", choices=FAMILIES, required=True)
    p_roc.add_argument("--alpha", type=float, default=1.0)
    p_roc.add_argument("--k", type=int, required=True)
    p_roc.add_argument("--output-dir", required=True)
    p_roc.set_defaults(func=_cmd_roc)

    p_loci = subs.add_parser(
        "loci", help="distance field over the ternary lattice"
    )
    p_loci.add_argument("--family", choices=FAMILIES, required=True)
    p_loci.add_argument("--alpha", type=float, default=1.0)
    p_loci.add_argument("--n", type=int, default=DEFAULT_RESOLUTION)
    p_loci.add_argument(
        "--reference",
        help="comma-separated 3-part reference, default the barycentre",
    )
    p_loci.add_argument("--output", required=True)
    p_loci.add_argument("--format", choices=("json", "csv"), default="csv")
    p_loci.set_defaults(func=_cmd_loci)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SimplexKnnError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the allocation it could not make
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
