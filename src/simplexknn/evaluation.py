"""Tuning and evaluation harness.

Implements the repeated stratified-holdout procedure: split the data into a
training and a test part with every class represented, classify the test rows
for each (alpha, k) combination, repeat B times and average the per-replication
percentages. The same B splits are reused across all grid cells (paired
comparison), so cell differences are not inflated by split noise.

Randomness comes from numpy's PCG64 generator seeded with
SeedSequence((seed, replication_index)), which is documented, 64-bit and
platform independent.

The grid is evaluated by one shared-split engine. Per alpha, the rows are
validated and power-transformed once, and the dataset is measured against
itself in tiles, each distance computed once (see knn). Each row keeps only
its first max(ks) + test_total columns in (distance, row index) order, so
memory is O(n * (max(ks) + test_total)) plus one tile, never n x n. A
replication removes test_total columns, the row itself among them, so each
test row's first max(ks) training columns lie in that prefix; filtering it
down to the training columns gives exactly the order of a per-replication
matrix. Every k is voted from one prefix sum over the ranked
neighbours, so results are bit-identical to classifying each (replication,
alpha, k) cell separately.

Also here: confusion statistics, leave-one-out membership scores and
one-vs-rest ROC curves with trapezoidal AUC.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .errors import (
    InfeasibleStratification,
    InsufficientTraining,
    SimplexKnnError,
    UndefinedRoc,
)
from .knn import NeighborConfig, _nearest, _positive_k, _vote
from .metrics import POWER_FAMILIES, MetricSpec

__all__ = [
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
]

def allocate_test_counts(class_counts, test_total: int) -> np.ndarray:
    """Largest-remainder allocation of test rows over classes.

    Every class contributes at least 1 test row and keeps at least 1 training
    row, so the split is feasible only when C <= test_total <= N - C.
    Remainder ties go to the lower class index.
    """
    counts = np.asarray(class_counts, dtype=np.intp)
    n_classes = counts.size
    total = int(counts.sum())
    if np.any(counts < 2):
        raise InfeasibleStratification(
            "every class needs at least two rows (one per side of the split)"
        )
    if test_total < n_classes:
        raise InfeasibleStratification(
            f"test_total={test_total} cannot cover {n_classes} classes"
        )
    if test_total > total - n_classes:
        raise InfeasibleStratification(
            f"test_total={test_total} leaves no training row for some class "
            f"(dataset has {total} rows over {n_classes} classes)"
        )
    quota = test_total * counts / total
    alloc = np.floor(quota).astype(np.intp)
    remainder = quota - alloc
    order = np.lexsort((np.arange(n_classes), -remainder))
    leftover = test_total - int(alloc.sum())
    alloc[order[:leftover]] += 1
    # clamp to 1 <= alloc_c <= counts_c - 1 (a class must appear on both
    # sides) and rebalance the difference along the remainder order
    cap = counts - 1
    clamped = np.clip(alloc, 1, cap)
    delta = int((alloc - clamped).sum())
    alloc = clamped
    if delta > 0:
        for idx in order:
            add = min(int(cap[idx] - alloc[idx]), delta)
            alloc[idx] += add
            delta -= add
            if delta == 0:
                break
    elif delta < 0:
        for idx in order[::-1]:
            take = min(int(alloc[idx] - 1), -delta)
            alloc[idx] -= take
            delta += take
            if delta == 0:
                break
    assert int(alloc.sum()) == test_total
    return alloc


def _split_indices(
    data: LabeledDataset, alloc: np.ndarray, seed: int, replication_index: int
) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed) % 2**64, int(replication_index) % 2**64])
    )
    picks = []
    for c in range(data.n_classes):
        members = np.flatnonzero(data.labels == c)
        picks.append(rng.permutation(members)[: alloc[c]])
    test_idx = np.sort(np.concatenate(picks))
    mask = np.ones(len(data), dtype=bool)
    mask[test_idx] = False
    return np.flatnonzero(mask), test_idx


def stratified_holdout(
    data: LabeledDataset, test_total: int, seed: int, replication_index: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """One deterministic stratified train/test split.

    Test rows are drawn uniformly without replacement within each class,
    proportionally to class sizes (largest remainder, at least one per
    class). The stream is fully determined by (seed, replication_index).
    """
    alloc = allocate_test_counts(data.class_counts(), test_total)
    train_idx, test_idx = _split_indices(data, alloc, seed, replication_index)
    return data.subset(train_idx), data.subset(test_idx)


def confusion_matrix(truth, predicted, n_classes: int | None = None) -> np.ndarray:
    """Counts[t][p] of true class t predicted as p."""
    truth = np.asarray(truth, dtype=np.intp)
    predicted = np.asarray(predicted, dtype=np.intp)
    if truth.shape != predicted.shape:
        raise ValueError("truth and predicted must have equal length")
    if n_classes is None:
        n_classes = int(max(truth.max(), predicted.max())) + 1
    for labels in (truth, predicted):
        outside = labels[(labels < 0) | (labels >= n_classes)]
        if outside.size:
            raise ValueError(f"label {outside[0]} is outside [0, {n_classes})")
    cm = np.zeros((n_classes, n_classes), dtype=np.intp)
    np.add.at(cm, (truth, predicted), 1)
    return cm


def sensitivity_specificity(cm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-vs-rest TP/(TP+FN) and TN/(TN+FP) per class.

    cm is one (C, C) confusion matrix or a stack (..., C, C) of them; the
    results have shape (..., C). A class with no true instance has undefined
    sensitivity, reported as NaN (absent), never as 0. Same for specificity
    when a class covers the whole sample.
    """
    cm = np.asarray(cm)
    total = cm.sum(axis=(-2, -1))[..., None]
    tp = np.diagonal(cm, axis1=-2, axis2=-1).astype(float)
    per_true = cm.sum(axis=-1).astype(float)
    per_pred = cm.sum(axis=-2).astype(float)
    fp = per_pred - tp
    tn = total - per_true - fp
    with np.errstate(invalid="ignore", divide="ignore"):
        sens = np.where(per_true > 0, tp / per_true, np.nan)
        spec = np.where(total - per_true > 0, tn / (tn + fp), np.nan)
    return sens, spec


@dataclass(frozen=True)
class GridCell:
    """Aggregated statistics of one (alpha, k) combination over B replications."""

    alpha: float | None
    k: int
    mean_accuracy: float | None
    sd_accuracy: float | None
    sensitivity_mean: tuple[float | None, ...] | None
    sensitivity_sd: tuple[float | None, ...] | None
    specificity_mean: tuple[float | None, ...] | None
    specificity_sd: tuple[float | None, ...] | None
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "k": self.k,
            "mean_accuracy": self.mean_accuracy,
            "sd_accuracy": self.sd_accuracy,
            "sensitivity_mean": _opt_list(self.sensitivity_mean),
            "sensitivity_sd": _opt_list(self.sensitivity_sd),
            "specificity_mean": _opt_list(self.specificity_mean),
            "specificity_sd": _opt_list(self.specificity_sd),
            "error": self.error,
        }


def _opt_list(values):
    return None if values is None else list(values)


@dataclass(frozen=True)
class GridResult:
    """All cells of one tuning run plus the provenance needed to repeat it."""

    family: str
    alphas: tuple[float, ...] | None
    ks: tuple[int, ...]
    B: int
    test_total: int
    seed: int
    classes: tuple[str, ...]
    split_digest: str
    cells: tuple[GridCell, ...]

    def cell(self, alpha: float | None, k: int) -> GridCell:
        for c in self.cells:
            if c.k == k and (
                (c.alpha is None and alpha is None) or c.alpha == alpha
            ):
                return c
        raise KeyError(f"no cell for alpha={alpha!r}, k={k}")

    def best(self) -> GridCell:
        """The cell with the highest mean accuracy (first on ties)."""
        scored = [c for c in self.cells if c.error is None]
        if not scored:
            raise SimplexKnnError("every grid cell failed")
        return max(scored, key=lambda c: c.mean_accuracy)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "alphas": None if self.alphas is None else list(self.alphas),
            "ks": list(self.ks),
            "B": self.B,
            "test_total": self.test_total,
            "seed": self.seed,
            "classes": list(self.classes),
            "split_digest": self.split_digest,
            "cells": [c.to_dict() for c in self.cells],
        }


def _replication_stats(data, indices, dists, splits, ks):
    """Per-replication statistics of every k from one metric's ranking.

    indices and dists are each row's first max(ks) + test_total columns in
    (distance, row index) order, from _nearest over the whole dataset; each
    test row's first max(ks) training columns lie in that prefix. Returns
    accuracy (B, K) in percent and sensitivity and specificity (B, K, C).
    """
    n_classes = data.n_classes
    kmax = max(ks)
    n_ks = len(ks)
    B = len(splits)
    acc = np.empty((B, n_ks))
    cms = np.empty((B, n_ks, n_classes, n_classes), dtype=np.intp)
    k_offset = np.arange(n_ks)[:, None] * n_classes
    for b, (train_mask, test_idx) in enumerate(splits):
        ranked = indices[test_idx]
        # every row keeps its first kmax training columns, in global order
        keep = train_mask[ranked]
        keep &= np.cumsum(keep, axis=1) <= kmax
        sel = ranked[keep].reshape(test_idx.size, kmax)
        ranked_dists = dists[test_idx][keep].reshape(test_idx.size, kmax)
        winners, _ = _vote(ranked_dists, data.labels[sel], ks, n_classes)
        truth = data.labels[test_idx]
        acc[b] = 100.0 * ((winners == truth).sum(axis=1) / test_idx.size)
        flat = ((k_offset + truth) * n_classes + winners).ravel()
        cms[b] = np.bincount(flat, minlength=n_ks * n_classes**2).reshape(
            n_ks, n_classes, n_classes
        )
    sens, spec = sensitivity_specificity(cms)
    return acc, sens, spec


def _mean_sd(values: np.ndarray) -> tuple[list, list]:
    """Mean and sample sd over axis 0 (replications), as nested lists; None if NaN.

    A column is NaN in every replication or in none: every class has a test
    row in every split, so sensitivity is never NaN, and specificity is NaN
    only for a single class, then in every split. On the contiguous last
    axis each column sums in the pairwise order of its own 1-D array.
    """
    cols = np.ascontiguousarray(np.moveaxis(values, 0, -1))
    mean = cols.mean(axis=-1)
    sd = cols.std(axis=-1, ddof=1) if cols.shape[-1] > 1 else np.zeros(mean.shape)
    absent = np.isnan(mean)
    return np.where(absent, None, mean).tolist(), np.where(absent, None, sd).tolist()


def grid_search(
    data: LabeledDataset,
    alphas,
    ks,
    family: str,
    B: int,
    test_total: int,
    seed: int,
) -> GridResult:
    """Repeated stratified-holdout accuracy over an (alpha, k) grid.

    For each of the B replications one split is drawn and reused for every
    grid cell. Reported accuracy is the mean of the per-replication correct-
    classification percentages; the sd column is their sample standard
    deviation. Per-class sensitivity/specificity are averaged the same way;
    a statistic that is undefined in every replication (specificity of a
    single class) is None.

    A metric error (for instance the log-ratio family meeting a zero part)
    fails every cell of the offending alpha with a diagnostic naming the
    first offending dataset row and column; other cells are unaffected.
    Every row is in some replication's split, so the domain is checked once
    on the whole dataset. Families without a power parameter ignore the
    alpha grid and their cells carry alpha=None.
    """
    power = family in POWER_FAMILIES
    if power:
        specs = tuple(dict.fromkeys(MetricSpec(family, a) for a in alphas))
        if not specs:
            raise ValueError("alphas must be non-empty")
    else:
        specs = (MetricSpec(family),)
    if B < 1:
        raise ValueError("B must be at least 1")
    ks = tuple(dict.fromkeys(_positive_k(k) for k in ks))
    if not ks:
        raise ValueError("ks must be non-empty")
    alloc = allocate_test_counts(data.class_counts(), test_total)
    train_size = len(data) - test_total
    if max(ks) > train_size:
        raise InsufficientTraining(
            f"k={max(ks)} exceeds the training size {train_size}"
        )

    splits = []
    digest = hashlib.sha256()
    for b in range(B):
        train_idx, test_idx = _split_indices(data, alloc, seed, b)
        train_mask = np.zeros(len(data), dtype=bool)
        train_mask[train_idx] = True
        splits.append((train_mask, test_idx))
        digest.update(np.int64(b).tobytes())
        digest.update(np.ascontiguousarray(test_idx, dtype="<i8").tobytes())

    cells = []
    for mspec in specs:
        alpha = mspec.alpha if power else None
        try:
            prepared = mspec.prepare(data.rows, "dataset", data.feature_names)
        except SimplexKnnError as exc:
            error = f"{type(exc).__name__}: {exc}"
            cells.extend(
                GridCell(alpha, k, None, None, None, None, None, None, error=error)
                for k in ks
            )
            continue
        indices, dists = _nearest(prepared, prepared, mspec, max(ks) + test_total)
        acc, sens, spec = _replication_stats(data, indices, dists, splits, ks)
        acc_mean, acc_sd = _mean_sd(acc)
        per_class = _mean_sd(sens) + _mean_sd(spec)  # in GridCell's field order
        for i, k in enumerate(ks):
            class_stats = (tuple(stat[i]) for stat in per_class)
            cells.append(GridCell(alpha, k, acc_mean[i], acc_sd[i], *class_stats))
    return GridResult(
        family=family,
        alphas=tuple(s.alpha for s in specs) if power else None,
        ks=ks,
        B=B,
        test_total=test_total,
        seed=seed,
        classes=data.classes,
        split_digest=digest.hexdigest()[:16],
        cells=tuple(cells),
    )


def loocv_scores(data: LabeledDataset, config: NeighborConfig) -> np.ndarray:
    """Leave-one-out membership scores, one row of per-class fractions per row.

    Row i is scored against the dataset minus row i: ranking it with the
    diagonal excluded preserves the (distance, row index) ordering of an
    explicit per-row holdout. Distances are streamed in tiles, each pair
    computed once, so memory is O(n * k) plus one tile. Deterministic.
    """
    k = config.k
    prepared = config.spec.prepare(data.rows, "dataset", data.feature_names)
    indices, dists = _nearest(prepared, prepared, config.spec, k, exclude_self=True)
    _, counts = _vote(dists, data.labels[indices], (k,), data.n_classes)
    return counts[0] / k


@dataclass(frozen=True)
class RocCurve:
    """One-vs-rest ROC polyline for one class.

    Points run from (0, 0) to (1, 1) with both coordinates non-decreasing;
    thresholds[i] is the score cut-off that produced point i (descending,
    starting from a sentinel above every achievable score).
    """

    class_index: int
    fpr: tuple[float, ...]
    tpr: tuple[float, ...]
    thresholds: tuple[float, ...]


def roc_curve(scores, truth, class_index: int, k: int | None = None) -> RocCurve:
    """Sweep score thresholds for one class, predicting positive at score >= t.

    With k given, thresholds are the k+1 achievable membership levels
    0, 1/k, ..., 1 plus a sentinel above 1; otherwise the observed score
    values are used (same polyline). The sentinel yields (0, 0) and the zero
    threshold yields (1, 1), so the curve always spans both corners.
    """
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=np.intp)
    col = scores[:, class_index]
    positive = truth == class_index
    n_pos = int(positive.sum())
    n_neg = int(col.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedRoc(
            f"class {class_index} has {n_pos} positive and {n_neg} negative rows"
        )
    if k is not None:
        k = _positive_k(k)
        levels = np.arange(k, -1, -1) / k
    else:
        levels = np.unique(col)[::-1]
        if levels[-1] != 0.0:
            levels = np.append(levels, 0.0)
    thresholds = np.concatenate(([2.0], levels))
    fpr = np.empty(thresholds.size)
    tpr = np.empty(thresholds.size)
    for i, t in enumerate(thresholds):
        predicted = col >= t
        tpr[i] = int((predicted & positive).sum()) / n_pos
        fpr[i] = int((predicted & ~positive).sum()) / n_neg
    # thresholds descend, so fpr and tpr are already non-decreasing
    return RocCurve(
        class_index=int(class_index),
        fpr=tuple(float(v) for v in fpr),
        tpr=tuple(float(v) for v in tpr),
        thresholds=tuple(float(v) for v in thresholds),
    )


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under the ROC polyline; in [0, 1]."""
    return float(np.trapezoid(np.asarray(curve.tpr), np.asarray(curve.fpr)))
