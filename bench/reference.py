"""Reference results for the benchmark's operations, computed without the package.

The benchmark checks every CLI output against these. They restate the
documented contracts (closure on ingest, the power transform, the five metric
formulas, the (distance, row index) neighbour order, the vote tie rules, the
seeded stratified split and the report's aggregation) with NumPy, using the
same floating-point operation on every element, so a correct program matches
them byte for byte. The structure differs from the package's: tune computes
one full distance matrix per alpha and slices it per replication, and LOOCV
works in blocks of query rows.

Run as a script to print the digests of the default seed, which are
committed in expected.json.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np

import digests
import workloads

SUM_TOLERANCE = 1e-9
HEIGHT = math.sqrt(3.0) / 2.0
POWER_FAMILIES = ("esov", "tc")
LOOCV_BLOCK = 128


def read_csv(text: str, label_column: str, drop=("RI",)):
    """(rows closed to unit sum, label indices, classes, part names)."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = [h.strip() for h in next(reader)]
    names = [h for h in header if h != label_column and h not in drop]
    pos = [header.index(h) for h in names]
    label_pos = header.index(label_column)
    parts, raw = [], []
    for record in reader:
        parts.append([float(record[i]) for i in pos])
        raw.append(record[label_pos].strip())
    rows = np.asarray(parts, dtype=float)
    sums = rows.sum(axis=1, keepdims=True)
    rows = np.where(np.abs(sums - 1.0) <= SUM_TOLERANCE, rows, rows / sums)
    classes = list(dict.fromkeys(raw))
    index = {c: i for i, c in enumerate(classes)}
    labels = np.asarray([index[c] for c in raw], dtype=np.intp)
    return rows, labels, classes, names


def power(x: np.ndarray, alpha: float) -> np.ndarray:
    """x_i^alpha / sum_j x_j^alpha, rescaled first by the row max (min if alpha < 0)."""
    positive = x > 0
    if alpha == 0:
        return positive / positive.sum(axis=-1, keepdims=True)
    scale = x.min(axis=-1, keepdims=True) if alpha < 0 else x.max(axis=-1, keepdims=True)
    y = (x / scale) ** alpha
    return y / y.sum(axis=-1, keepdims=True)


def esov(x, w):
    s = x + w
    with np.errstate(divide="ignore", invalid="ignore"):
        tx = np.where(x > 0, x * np.log(2.0 * x / s), 0.0)
        tw = np.where(w > 0, w * np.log(2.0 * w / s), 0.0)
    return np.sqrt(np.maximum((tx + tw).sum(axis=-1), 0.0))


def taxicab(x, w):
    return np.abs(x - w).sum(axis=-1)


def aitchison(x, w):
    lx, lw = np.log(x), np.log(w)
    cx = lx - lx.mean(axis=-1, keepdims=True)
    cw = lw - lw.mean(axis=-1, keepdims=True)
    return np.sqrt(((cx - cw) ** 2).sum(axis=-1))


def hellinger(x, w):
    return np.sqrt(0.5 * ((np.sqrt(x) - np.sqrt(w)) ** 2).sum(axis=-1))


def angular(x, w):
    return np.arccos(np.clip((x * w).sum(axis=-1), -1.0, 1.0))


KERNELS = {
    "esov": esov,
    "tc": taxicab,
    "aitchison": aitchison,
    "hellinger": hellinger,
    "angular": angular,
}


def prepared(rows: np.ndarray, family: str, alpha: float) -> np.ndarray:
    if family in POWER_FAMILIES and alpha != 1.0:
        return power(rows, alpha)
    return rows


def needs_positive(family: str, alpha: float) -> bool:
    return family == "aitchison" or (family in POWER_FAMILIES and alpha < 0)


def csv_bytes(header, records) -> bytes:
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(records)
    return out.getvalue().encode()


# -- tune -------------------------------------------------------------------


def allocate(counts: np.ndarray, test_total: int) -> np.ndarray:
    """Largest-remainder test rows per class, remainder ties to the lower index."""
    quota = test_total * counts / counts.sum()
    alloc = np.floor(quota).astype(np.intp)
    order = np.lexsort((np.arange(counts.size), -(quota - alloc)))
    alloc[order[: test_total - int(alloc.sum())]] += 1
    if np.any(alloc < 1) or np.any(alloc > counts - 1):
        raise ValueError("allocation needs clamping, which the reference omits")
    return alloc


def split(labels, alloc, seed: int, b: int):
    """(train, test) row indices of replication b, both ascending."""
    rng = np.random.default_rng(np.random.SeedSequence([seed % 2**64, b % 2**64]))
    picks = [
        rng.permutation(np.flatnonzero(labels == c))[: alloc[c]]
        for c in range(alloc.size)
    ]
    test = np.sort(np.concatenate(picks))
    mask = np.ones(labels.size, dtype=bool)
    mask[test] = False
    return np.flatnonzero(mask), test


def _mean_sd(values: np.ndarray):
    good = values[~np.isnan(values)]
    if good.size == 0:
        return None, None
    return float(good.mean()), float(good.std(ddof=1)) if good.size > 1 else 0.0


def _cell_stats(values: np.ndarray) -> tuple[list, list]:
    """Per-class mean and sd lists of a (B, C) array."""
    stats = [_mean_sd(values[:, c]) for c in range(values.shape[1])]
    return [s[0] for s in stats], [s[1] for s in stats]


def tune_content(text, label_column, family, alphas, ks, B, test_total, seed) -> dict:
    """The digests.tune_content shape of a tune report."""
    rows, labels, classes, _ = read_csv(text, label_column)
    n_classes = len(classes)
    alloc = allocate(np.bincount(labels, minlength=n_classes), test_total)
    splits = [split(labels, alloc, seed, b) for b in range(B)]
    train = np.stack([s[0] for s in splits])
    test = np.stack([s[1] for s in splits])
    sha = hashlib.sha256()
    for b in range(B):
        sha.update(np.int64(b).tobytes())
        sha.update(np.ascontiguousarray(test[b], dtype="<i8").tobytes())
    truth = labels[test]
    train_labels = labels[train]
    bb, mm = np.indices(truth.shape)
    kmax = max(ks)

    cells = []
    for alpha in alphas:
        if needs_positive(family, alpha) and np.any(rows == 0):
            cells += [[alpha, k] + [None] * 6 + [True] for k in ks]
            continue
        t = prepared(rows, family, alpha)
        full = KERNELS[family](t[:, None, :], t[None, :, :])
        dist = full[test[:, :, None], train[:, None, :]]
        order = np.argsort(dist, axis=-1, kind="stable")[..., :kmax]
        near_d = np.take_along_axis(dist, order, axis=-1)
        near_l = np.take_along_axis(train_labels[:, None, :], order, axis=-1)
        counts = np.zeros(truth.shape + (n_classes,), dtype=np.intp)
        sums = np.zeros(truth.shape + (n_classes,))
        for k in range(1, kmax + 1):
            lab = near_l[..., k - 1]
            counts[bb, mm, lab] += 1
            sums[bb, mm, lab] += near_d[..., k - 1]
            if k not in ks:
                continue
            top = counts.max(axis=-1, keepdims=True)
            winners = np.where(counts == top, sums, np.inf).argmin(axis=-1)
            acc = 100.0 * np.mean(winners == truth, axis=-1)
            cm = np.zeros((B, n_classes, n_classes), dtype=np.intp)
            np.add.at(cm, (bb, truth, winners), 1)
            tp = np.diagonal(cm, axis1=1, axis2=2).astype(float)
            per_true = cm.sum(axis=2).astype(float)
            fp = cm.sum(axis=1).astype(float) - tp
            total = cm.sum(axis=(1, 2))[:, None]
            tn = total - per_true - fp
            with np.errstate(invalid="ignore", divide="ignore"):
                sens = np.where(per_true > 0, tp / per_true, np.nan)
                spec = np.where(total - per_true > 0, tn / (tn + fp), np.nan)
            mean, sd = _mean_sd(acc)
            cells.append(
                [alpha, k, mean, sd, *_cell_stats(sens), *_cell_stats(spec), False]
            )
    # cells arrive in the report's alpha-major, k-minor order
    scored = [c for c in cells if not c[-1]]
    best = max(scored, key=lambda c: c[2])
    return {
        "cells": cells,
        "split_digest": sha.hexdigest()[:16],
        "best": [best[0], best[1], best[2]],
    }


# -- roc --------------------------------------------------------------------


def _slug(name: str) -> str:
    return "".join(ch if ch.isalnum() else "-" for ch in name).strip("-") or "class"


def loocv_counts(rows, labels, n_classes, family, alpha, k) -> np.ndarray:
    """Class counts among each row's k nearest other rows."""
    t = prepared(rows, family, alpha)
    n = len(rows)
    counts = np.zeros((n, n_classes), dtype=np.intp)
    for start in range(0, n, LOOCV_BLOCK):
        stop = min(start + LOOCV_BLOCK, n)
        dist = KERNELS[family](t[start:stop, None, :], t[None, :, :])
        dist[np.arange(stop - start), np.arange(start, stop)] = np.inf
        near = np.argsort(dist, axis=1, kind="stable")[:, :k]
        np.add.at(counts[start:stop], (np.arange(stop - start)[:, None], labels[near]), 1)
    return counts


def roc_content(text, label_column, family, alpha, k) -> dict:
    """The digests.roc_content shape of a roc output directory."""
    rows, labels, classes, _ = read_csv(text, label_column)
    scores = loocv_counts(rows, labels, len(classes), family, alpha, k) / k
    thresholds = np.concatenate(([2.0], np.arange(k, -1, -1) / k))
    aucs, files = {}, {}
    for c, cls in enumerate(classes):
        col = scores[:, c]
        positive = labels == c
        n_pos = int(positive.sum())
        n_neg = col.size - n_pos
        tpr = np.array([int(((col >= t) & positive).sum()) / n_pos for t in thresholds])
        fpr = np.array([int(((col >= t) & ~positive).sum()) / n_neg for t in thresholds])
        name = f"roc_{c:02d}_{_slug(cls)}.csv"
        files[name] = csv_bytes(
            ["threshold", "fpr", "tpr"],
            [[repr(a), repr(b), repr(p)] for a, b, p in zip(
                thresholds.tolist(), fpr.tolist(), tpr.tolist())],
        )
        aucs[cls] = float(np.trapezoid(tpr, fpr))
    return digests.roc_content(aucs, files)


# -- plot preparation ---------------------------------------------------------


def transform_bytes(text, label_column, alpha) -> bytes:
    """The transform CSV of a 3-part dataset: parts, label, plot x and y."""
    rows, labels, classes, names = read_csv(text, label_column)
    t = power(rows, alpha)
    x = t[:, 1] + 0.5 * t[:, 2]
    y = HEIGHT * t[:, 2]
    records = [
        [repr(a), repr(b), repr(c), classes[lab], repr(px), repr(py)]
        for (a, b, c), lab, px, py in zip(t.tolist(), labels.tolist(), x.tolist(), y.tolist())
    ]
    return csv_bytes(names + [label_column, "x", "y"], records)


def loci_bytes(family, alpha, n) -> bytes:
    ref = np.full(3, 1.0 / 3)
    ii = np.concatenate([np.full(n + 1 - i, i) for i in range(n + 1)])
    jj = np.concatenate([np.arange(n + 1 - i) for i in range(n + 1)])
    parts = np.stack([ii, jj, n - ii - jj], axis=1) / n
    if needs_positive(family, alpha):
        parts = parts[(parts > 0).all(axis=1)]
    values = KERNELS[family](prepared(parts, family, alpha), prepared(ref, family, alpha))
    x = parts[:, 1] + 0.5 * parts[:, 2]
    y = HEIGHT * parts[:, 2]
    columns = zip(*(a.tolist() for a in (parts[:, 0], parts[:, 1], parts[:, 2], x, y, values)))
    return csv_bytes(
        ["c1", "c2", "c3", "x", "y", "value"],
        [[repr(v) for v in row] for row in columns],
    )


def expected_digest(check: tuple) -> str:
    """Digest of the correct output of one workload operation."""
    kind, args = check[0], check[1:]
    if kind == "tune":
        return digests.canonical_digest(tune_content(*args))
    if kind == "roc":
        return digests.canonical_digest(roc_content(*args))
    if kind == "transform":
        return digests.sha256_hex(transform_bytes(*args))
    if kind == "loci":
        return digests.sha256_hex(loci_bytes(*args))
    raise ValueError(f"unknown check {kind!r}")


if __name__ == "__main__":
    seed = workloads.DEFAULT_SEED
    table = {
        name: {op.name: expected_digest(op.check) for op in build(seed).ops}
        for name, build in workloads.WORKLOADS.items()
    }
    print(json.dumps({"seed": seed, "digests": table}, indent=2))
