"""Result digests that ignore the report envelope.

Reports echo the input path, the tool version and the configuration, so
hashing whole files would make two checkouts of the same code disagree. A
digest covers only result content:

  tune       the cells' statistics, whether each cell failed (not the error
             wording, which carries diagnostics), split_digest and best
  roc        auc per class and the bytes of every per-class ROC CSV
  transform  the bytes of the CSV (the .meta.json sidecar is envelope)
  loci       the bytes of the CSV

A missing output gives None, which never equals an expected digest.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

CELL_FIELDS = (
    "alpha",
    "k",
    "mean_accuracy",
    "sd_accuracy",
    "sensitivity_mean",
    "sensitivity_sd",
    "specificity_mean",
    "specificity_sd",
)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_digest(obj) -> str:
    """sha256 of the canonical JSON text of obj (sorted keys, no spaces)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return sha256_hex(text.encode())


def tune_content(report: dict) -> dict:
    """The result part of a tune JSON report, in a fixed shape."""
    result = report["result"]
    cells = [
        [cell.get(name) for name in CELL_FIELDS] + [cell.get("error") is not None]
        for cell in result["cells"]
    ]
    best = report["best"]
    return {
        "cells": cells,
        "split_digest": result["split_digest"],
        "best": [best["alpha"], best["k"], best["mean_accuracy"]],
    }


def roc_content(auc: dict, csv_bytes: dict) -> dict:
    """auc per class plus a sha256 per ROC CSV file name."""
    return {
        "auc": auc,
        "csv": {name: sha256_hex(data) for name, data in sorted(csv_bytes.items())},
    }


def tune_digest(path) -> str | None:
    try:
        report = json.loads(Path(path).read_text())
        return canonical_digest(tune_content(report))
    except (OSError, ValueError, KeyError, TypeError):
        return None


def roc_digest(out_dir) -> str | None:
    out_dir = Path(out_dir)
    try:
        summary = json.loads((out_dir / "roc_summary.json").read_text())
        csv_bytes = {p.name: p.read_bytes() for p in out_dir.glob("roc_*.csv")}
        if not csv_bytes:
            return None
        return canonical_digest(roc_content(summary["auc"], csv_bytes))
    except (OSError, ValueError, KeyError, TypeError):
        return None


def file_digest(path) -> str | None:
    try:
        return sha256_hex(Path(path).read_bytes())
    except OSError:
        return None
