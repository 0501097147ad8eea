"""Tuning and evaluation harness.

Implements the repeated stratified-holdout procedure: split the data into a
training and a test part with every class represented, classify the test rows
for each (alpha, k) combination, repeat B times and average the per-replication
percentages. The same B splits are reused across all grid cells (paired
comparison), so cell differences are not inflated by split noise.

Randomness comes from numpy's PCG64 generator seeded with
SeedSequence((seed, replication_index)), which is documented, 64-bit and
platform independent.

The grid is evaluated by one shared-split engine. Per alpha, the rows come
through knn's training rows (knn._training_rows), validated and
power-transformed once and held parts-first, and the dataset is measured
against itself in strips, each distance computed once (see knn). Each row
keeps only its first max(ks) + m columns in (distance, row index) order, so
memory is O(n * (max(ks) + m)) plus one strip, never n x n. A replication
removes test_total columns, the row itself among them; filtering a test row's
prefix down to the training columns gives exactly the order of a
per-replication matrix as long as it holds max(ks) of them. The margin m
(_prefix_margin) is set by the hypergeometric tail of the number of test
rows in a prefix, so that fewer than one (row, replication) pair is
expected to run short over all B splits; a pair that does is ranked again
against the whole dataset over max(ks) + test_total columns, which always
hold enough, with the same kernels and keys, so it gets the same bits and
order. Replications go in blocks sized like a tile (metrics._TILE_FLOATS), so
memory does not grow with B: one gather, mask lookup and cumsum filter a
block, one knn._vote votes every k, and two bincounts count the true
positives and the predictions of every (k, replication, class), from which
the rates follow by _rates, sensitivity_specificity's formula.

Also here: confusion statistics, leave-one-out membership scores, which
hold each row out by the replications' filter, and one-vs-rest ROC curves
with trapezoidal AUC.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import comb

import numpy as np

from .dataset import LabeledDataset
from .errors import (
    InfeasibleStratification,
    InsufficientTraining,
    SimplexKnnError,
    UndefinedRoc,
)
from . import knn, metrics
from .knn import NeighborConfig, _nearest, _vote
from .metrics import POWER_FAMILIES, MetricSpec
from .simplex import _integer, _whole

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
    test_total = _integer(test_total, "test_total")
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


def _class_members(data) -> list[np.ndarray]:
    """The rows of each class, in row order."""
    return [np.flatnonzero(data.labels == c) for c in range(data.n_classes)]


def _test_rows(members, alloc: np.ndarray, seed: int, replication_index: int):
    """Sorted test rows of one replication: alloc[c] rows drawn from members[c]."""
    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed) % 2**64, int(replication_index) % 2**64])
    )
    picks = [rng.permutation(rows)[:count] for rows, count in zip(members, alloc)]
    return np.sort(np.concatenate(picks))


def stratified_holdout(
    data: LabeledDataset, test_total: int, seed: int, replication_index: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """One deterministic stratified train/test split.

    Test rows are drawn uniformly without replacement within each class,
    proportionally to class sizes (largest remainder, at least one per
    class). The stream is fully determined by (seed, replication_index).
    """
    seed = _integer(seed, "seed", positive=False)
    replication_index = _integer(replication_index, "replication_index", positive=False)
    alloc = allocate_test_counts(data.class_counts(), test_total)
    test_idx = _test_rows(_class_members(data), alloc, seed, replication_index)
    train_idx = np.setdiff1d(np.arange(len(data)), test_idx)
    return data.subset(train_idx), data.subset(test_idx)


def confusion_matrix(truth, predicted, n_classes: int | None = None) -> np.ndarray:
    """Counts[t][p] of true class t predicted as p; labels are whole numbers."""
    truth = _whole(truth, "truth")
    predicted = _whole(predicted, "predicted")
    if truth.shape != predicted.shape:
        raise ValueError("truth and predicted must have equal length")
    if n_classes is None:
        n_classes = int(max(truth.max(initial=-1), predicted.max(initial=-1))) + 1
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
    return _rates(
        np.diagonal(cm, axis1=-2, axis2=-1).astype(float),
        cm.sum(axis=-1).astype(float),
        cm.sum(axis=-2).astype(float),
        cm.sum(axis=(-2, -1))[..., None],
    )


def _rates(tp, per_true, per_pred, total):
    """(sensitivity, specificity) from true positives, true and predicted
    counts per class and the sample size: the one rate formula, for
    sensitivity_specificity and the tuner. Each is NaN where undefined; the
    np.where keeps that NaN positive, which 0/0 is not on x86."""
    fp = per_pred - tp
    neg = total - per_true
    tn = neg - fp
    with np.errstate(invalid="ignore", divide="ignore"):
        sens = np.where(per_true > 0, tp / per_true, np.nan)
        spec = np.where(neg > 0, tn / (tn + fp), np.nan)
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
        return _as_dict(self)


def _as_dict(result) -> dict:
    """A GridCell's or GridResult's fields in order, each tuple as a list and
    each cell as its own dict: the one rule for both reports, so a field
    added to either class appears in its report."""
    out = {}
    for f in fields(result):
        value = getattr(result, f.name)
        if isinstance(value, tuple):
            value = [v.to_dict() if isinstance(v, GridCell) else v for v in value]
        out[f.name] = value
    return out


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
            if c.k == k and c.alpha == alpha:
                return c
        raise KeyError(f"no cell for alpha={alpha!r}, k={k}")

    def best(self) -> GridCell:
        """The cell with the highest mean accuracy (first on ties).

        If every cell failed, the error names the first one's alpha and cause.
        """
        scored = [c for c in self.cells if c.error is None]
        if not scored:
            message = "every grid cell failed"
            if self.cells:
                first = self.cells[0]
                message += f", the first at alpha={first.alpha}: {first.error}"
            raise SimplexKnnError(message)
        return max(scored, key=lambda c: c.mean_accuracy)

    def to_dict(self) -> dict:
        return _as_dict(self)


def _prefix_margin(n: int, test_total: int, kmax: int, B: int) -> int:
    """m: how many columns past kmax each row keeps for the replications.

    A test row's first kmax + m columns, itself among them, hold fewer than
    kmax training columns only when m other test rows lie there too. Over
    the splits, the number X of test rows among those kmax + m - 1 other
    rows is about hypergeometric: kmax + m - 1 draws from n - 1 rows, of
    which test_total - 1 are test rows. m is the smallest margin for which
    the expected number of short (row, replication) pairs, B * test_total *
    P(X >= m), is below one, compared exactly in integers; at most
    test_total, with which no row is ever short.
    """
    others, tests = n - 1, test_total - 1
    for m in range(test_total):
        draws = kmax + m - 1
        tail = sum(
            comb(tests, x) * comb(others - tests, draws - x)
            for x in range(m, min(tests, draws) + 1)
        )
        if B * test_total * tail < comb(others, draws):
            return m
    return test_total


def _replication_stats(data, spec, indices, dists, tests, ks):
    """Per-replication statistics of every k from one metric's ranking.

    indices and dists are each row's first max(ks) + m columns, from
    _nearest over data's training rows under spec; tests is (B,
    test_total). A block of replications keeps its (rows, columns) arrays
    within metrics._TILE_FLOATS. Logs how many (row, replication) pairs were
    ranked again at DEBUG. Returns accuracy (K, B) in percent, sensitivity and
    specificity (K, C, B).
    """
    B, test_n = tests.shape
    width = indices.shape[1]
    per_block = max(1, metrics._TILE_FLOATS // (test_n * width))
    acc = np.empty((len(ks), B))
    rates = np.empty((2, len(ks), data.n_classes, B))  # sensitivity, specificity
    again = 0
    for b0 in range(0, B, per_block):
        reps = slice(b0, b0 + per_block)
        out = acc[:, reps], rates[..., reps]
        again += _score_block(data, spec, indices, dists, tests[reps], ks, *out)
    knn._debug(
        "tune prefix: %d columns, %d of %d (row, replication) pairs ranked again",
        width, again, B * test_n,
    )
    return acc, rates[0], rates[1]


def _first_kept(keep, kmax):
    """(keep, found): keep (True where a column is not held out, overwritten)
    cut to each row's first kmax such columns, and how many each row had."""
    count = np.cumsum(keep, axis=1)
    keep &= count <= kmax
    return keep, count[:, -1]


def _score_block(data, spec, indices, dists, tests, ks, acc, rates):
    """Fill acc (K, reps) and rates (2, K, C, reps) for one block of replications.

    A function of its own, so every work array of a block is freed before
    the next block is built. Returns how many (row, replication) pairs were
    ranked again.
    """
    n_classes, kmax, n_ks = data.n_classes, max(ks), len(ks)
    (reps, test_n), n = tests.shape, len(data)
    rows = tests.ravel()
    rep = np.arange(rows.size) // test_n  # each test row's replication
    train = np.ones((reps, n), dtype=bool)
    train[rep, rows] = False
    train = train.reshape(-1)
    offsets = rep * n
    ranked, near = indices[rows], dists[rows]
    # every row keeps its first kmax training columns, in global order
    keep, found = _first_kept(train[ranked + offsets[:, None]], kmax)
    short = np.flatnonzero(found < kmax)
    if short.size:
        # too many test rows in the prefix: rank these rows again over
        # kmax + test_n columns, which always hold kmax training ones. The
        # kernels are bitwise symmetric and the keys (distance, row index),
        # so the query path gives the self walk's bits and order
        prepared = knn._training_rows(data, spec)
        idx, d = _nearest(prepared[:, rows[short]], prepared, spec, kmax + test_n)
        mask, _ = _first_kept(train[idx + offsets[short, None]], kmax)
        ranked[short, :kmax] = idx[mask].reshape(-1, kmax)
        near[short, :kmax] = d[mask].reshape(-1, kmax)
        keep[short] = np.arange(ranked.shape[1]) < kmax
    sel = ranked[keep].reshape(rows.size, kmax)
    ranked_dists = near[keep].reshape(rows.size, kmax)
    winners, _ = _vote(ranked_dists.T, data.labels[sel].T, ks, n_classes)
    # each replication's true counts per class are its allocation, so only
    # the true positives and the predictions of each (k, replication, class)
    # are counted, and _rates turns the counts into rates
    truth = data.labels[rows]
    alloc = np.bincount(truth[:test_n], minlength=n_classes)
    cells = (np.arange(n_ks)[:, None] * reps + rep) * n_classes
    size, shape = n_ks * reps * n_classes, (n_ks, reps, n_classes)
    tp = np.bincount((cells + truth)[winners == truth], minlength=size).reshape(shape)
    predicted = np.bincount((cells + winners).ravel(), minlength=size).reshape(shape)
    acc[...] = 100.0 * (tp.sum(axis=2) / test_n)
    sens, spec = _rates(tp, alloc, predicted, test_n)
    rates[0], rates[1] = sens.swapaxes(1, 2), spec.swapaxes(1, 2)
    return short.size


def _mean_sd(values: np.ndarray) -> tuple[list, list]:
    """Mean and sample sd over the last axis (replications) as lists; None if NaN.

    A column is NaN in every replication or in none: every class has a test
    row in every split, so sensitivity is never NaN, and specificity is NaN
    only for a single class, then in every split. values is C-contiguous, so
    each column sums in the pairwise order of its own 1-D array.
    """
    mean = values.mean(axis=-1)
    sd = values.std(axis=-1, ddof=1) if values.shape[-1] > 1 else np.zeros(mean.shape)
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
    B = _integer(B, "B")
    test_total = _integer(test_total, "test_total")
    seed = _integer(seed, "seed", positive=False)
    ks = tuple(dict.fromkeys(_integer(k, "k") for k in ks))
    if not ks:
        raise ValueError("ks must be non-empty")
    alloc = allocate_test_counts(data.class_counts(), test_total)
    train_size = len(data) - test_total
    if max(ks) > train_size:
        raise InsufficientTraining(
            f"k={max(ks)} exceeds the training size {train_size}"
        )

    # imported here, not with the module: hashlib loads OpenSSL's libcrypto,
    # 3.5 MiB of RSS that every other command would pay for nothing
    import hashlib

    members = _class_members(data)
    tests = np.empty((B, test_total), dtype=np.intp)
    digest = hashlib.sha256()
    for b in range(B):
        tests[b] = _test_rows(members, alloc, seed, b)
        digest.update(np.int64(b).tobytes())
        digest.update(tests[b].astype("<i8").tobytes())

    width = max(ks) + _prefix_margin(len(data), test_total, max(ks), B)
    cells = []
    for mspec in specs:
        alpha = mspec.alpha if power else None
        try:
            prepared = knn._training_rows(data, mspec)
        except SimplexKnnError as exc:
            error = f"{type(exc).__name__}: {exc}"
            cells.extend(
                GridCell(alpha, k, None, None, None, None, None, None, error=error)
                for k in ks
            )
            continue
        indices, dists = _nearest(prepared, prepared, mspec, width)
        acc, sens, spec = _replication_stats(data, mspec, indices, dists, tests, ks)
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


def _loocv_neighbours(prepared, spec: MetricSpec, k: int):
    """(indices, distances), each (n, k): the first k others of each row of
    prepared (D, n).

    Each row is ranked over k + 1 columns, its own among them, and keeps
    the first k that are not its own. Dropping one key from a list sorted
    by (distance, row index) leaves the rest in order, so these are an
    explicit per-row holdout's neighbours and bits, also under angular.
    """
    n = prepared.shape[1]
    if k > n - 1:
        raise InsufficientTraining(f"k={k} exceeds {n - 1} training rows")
    indices, dists = _nearest(prepared, prepared, spec, k + 1)
    keep, _ = _first_kept(indices != np.arange(n)[:, None], k)
    return indices[keep].reshape(n, k), dists[keep].reshape(n, k)


def loocv_scores(data: LabeledDataset, config: NeighborConfig) -> np.ndarray:
    """Leave-one-out membership scores, one row of per-class fractions per row.

    Row i is scored against the dataset minus row i (_loocv_neighbours).
    Distances are streamed in strips, each pair computed once, so memory is
    O(n * k) plus one strip. Deterministic.
    """
    k = config.k
    prepared = knn._training_rows(data, config.spec)
    indices, dists = _loocv_neighbours(prepared, config.spec, k)
    _, counts = _vote(dists.T, data.labels[indices].T, (k,), data.n_classes)
    return np.ascontiguousarray(counts.T) / k


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
    threshold yields (1, 1), so the curve always spans both corners. scores
    is (n, C), one row per whole-number truth label, and class_index lies in
    [0, C).
    """
    scores = np.asarray(scores, dtype=float)
    truth = _whole(truth, "truth")
    if scores.ndim != 2 or truth.shape != scores.shape[:1]:
        raise ValueError(
            f"scores must be 2-D with one row per truth label, got shape "
            f"{scores.shape} for truth of shape {truth.shape}"
        )
    class_index = _integer(class_index, "class_index", positive=False)
    if not 0 <= class_index < scores.shape[1]:
        raise ValueError(f"class_index {class_index} is outside [0, {scores.shape[1]})")
    col = scores[:, class_index]
    positive = truth == class_index
    n_pos = int(positive.sum())
    n_neg = int(col.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedRoc(
            f"class {class_index} has {n_pos} positive and {n_neg} negative rows"
        )
    if k is not None:
        k = _integer(k, "k")
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
        class_index=class_index,
        fpr=tuple(float(v) for v in fpr),
        tpr=tuple(float(v) for v in tpr),
        thresholds=tuple(float(v) for v in thresholds),
    )


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under the ROC polyline; in [0, 1]."""
    return float(np.trapezoid(np.asarray(curve.tpr), np.asarray(curve.fpr)))
