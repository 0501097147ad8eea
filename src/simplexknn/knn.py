"""Deterministic k-nearest-neighbour classification over simplex metrics.

Neighbour selection and voting are fully specified so results are
reproducible across runs, platforms and thread schedules:

  * neighbours are ordered by (distance, training-row index), so ties on
    the k-th distance go to the lower row index;
  * the majority class wins; vote ties go to the class whose in-neighbourhood
    members have the smaller distance sum, residual ties to the lower class
    index;
  * votes are unweighted, and the membership score of class c is simply
    (neighbours labeled c) / k, so scores sum to 1 and their argmax under the
    same tie rules reproduces classify().

Distances are computed in tiles of at most _BLOCK_ROWS query rows, sized
by a float budget: rows * columns * parts <= _TILE_FLOATS, so every kernel
temporary (one float per part of each pair) stays under 128 KiB. The rows
go to the kernels parts-first, the query block as (D, rows, 1) against
(D, 1, columns), so each elementwise pass runs along the columns. A dataset
measured against itself (LOOCV, tune, the dist command) computes only the
tiles from each diagonal block rightwards and mirrors them, since every
kernel is bitwise symmetric, so each distance is computed once. Each row
keeps a running set of its k best (distance, row index) keys, updated from
every tile by one argpartition, and sorts it once at the end; no row is
ever fully sorted, and memory is O(n * k) plus one tile, independent of n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .errors import DimensionMismatch, InsufficientTraining
from .metrics import MetricSpec

__all__ = [
    "NeighborConfig",
    "pairwise_distances",
    "classify",
    "membership_scores",
]


def _positive_k(k) -> int:
    """k as an int: the one rule for a neighbour count (a bool is not one)."""
    if isinstance(k, (bool, np.bool_)) or int(k) != k or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return int(k)


@dataclass(frozen=True)
class NeighborConfig:
    """Number of neighbours and the metric they are measured with."""

    k: int
    spec: MetricSpec

    def __post_init__(self):
        object.__setattr__(self, "k", _positive_k(self.k))


# One kernel call measures a tile of at most _BLOCK_ROWS query rows, with at
# most _TILE_FLOATS floats in each (D, rows, columns) kernel temporary: 64 x
# 30 for LOOCV and tune on 8 parts, one row by 1,920 columns for classify.
# 120 KiB keeps each temporary below glibc's 128 KiB mmap threshold; at 256
# KiB every tile's temporaries were mapped, or trimmed off the heap, and
# faulted in afresh. Memory per call is fixed, whatever the number of rows.
_BLOCK_ROWS = 64
_TILE_FLOATS = 15 * 1024


def _tiles(queries: np.ndarray, train: np.ndarray, spec: MetricSpec):
    """Yield (r0, c0, d) with d[i, j] = distance(queries[r0 + i], train[c0 + j]).

    Both arguments are already prepared by spec.prepare. Each is copied
    parts-first once, unless its transpose is already contiguous, and every
    kernel call gets a (D, rows, 1) block against (D, 1, columns). The items
    cover the (m, n) matrix exactly once. When queries is train, each pair
    is computed once: row block [r0, r1) is measured against the columns
    from r0 on, and the part of each such tile past r1 is yielded again,
    transposed, for the rows it covers. All kernels are bitwise symmetric,
    so the mirror equals measuring those rows; the diagonal blocks are
    computed in full (angular has d(x, x) > 0). Each entry is computed
    exactly as an unblocked kernel call would.
    """
    kernel = spec.kernel
    same = queries is train
    q = np.ascontiguousarray(queries.T)
    t = q if same else np.ascontiguousarray(train.T)
    parts = q.shape[0]
    height = max(1, min(_BLOCK_ROWS, _TILE_FLOATS // parts))
    for r0 in range(0, q.shape[1], height):
        block = q[:, r0 : r0 + height, None]
        r1 = r0 + block.shape[1]
        width = max(1, _TILE_FLOATS // (parts * block.shape[1]))
        for c0 in range(r0 if same else 0, t.shape[1], width):
            tile = kernel(block, t[:, None, c0 : c0 + width])
            yield r0, c0, tile
            if same and c0 + tile.shape[1] > r1:
                skip = max(r1 - c0, 0)
                yield c0 + skip, r0, tile[:, skip:].T


def _nearest(
    queries, train, spec: MetricSpec, kmax: int, exclude_self: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Each query row's first kmax training columns by (distance, row index).

    Rows are prepared by spec.prepare; pass the same array as queries and
    train to measure a dataset against itself, so each pair is computed
    once (see _tiles). With exclude_self, query row i is training row i and
    never its own neighbour (the LOOCV diagonal, masked inside its tile).

    Each candidate is one complex key, distance + 1j * row index. numpy
    orders complex numbers by real part, then imaginary part, so the keys
    sort in (distance, row index) order, and no two candidates of a row
    share a key. One argpartition at kmax - 1 therefore keeps each row's
    kmax best exactly, ties included, with no tie fallback. Every tile's
    keys are merged this way into a running set per row, seeded with
    (inf, n) sentinels, so the result does not depend on tile order; the
    kept keys are sorted once at the end. Returns (indices, distances),
    each (m, kmax); memory is O(m * kmax) plus one tile.
    """
    n = train.shape[0]
    if kmax > n - exclude_self:
        raise InsufficientTraining(
            f"k={kmax} exceeds {n - exclude_self} training rows"
        )
    best = np.full((queries.shape[0], kmax), complex(np.inf, n))
    for r0, c0, d in _tiles(queries, train, spec):
        h, w = d.shape
        if exclude_self:
            diag = np.arange(max(r0, c0), min(r0 + h, c0 + w))
            d[diag - r0, diag - c0] = np.inf
        rows = slice(r0, r0 + h)
        keys = np.empty((h, kmax + w), dtype=complex)
        keys[:, :kmax] = best[rows]
        keys.real[:, kmax:] = d  # a copy; d + 1j * index would turn -0.0 into 0.0
        keys.imag[:, kmax:] = np.arange(c0, c0 + w)
        keep = np.argpartition(keys, kmax - 1, axis=1)[:, :kmax]
        best[rows] = keys[np.arange(h)[:, None], keep]
    best.sort(axis=1)
    return best.imag.astype(np.intp), best.real.copy()


def _training_rows(train: LabeledDataset, spec: MetricSpec) -> np.ndarray:
    """train.rows prepared by spec, once per (dataset, spec): kept on the dataset.

    The rows are stored parts-first, as _tiles reads them, and returned as
    the transposed (n, D) view.
    """
    rows = train._prepared_rows.get(spec)
    if rows is None:
        prepared = spec.prepare(train.rows, "training", train.feature_names)
        rows = np.ascontiguousarray(prepared.T).T
        rows.setflags(write=False)
        train._prepared_rows[spec] = rows
    return rows


def _prepared(train: LabeledDataset, queries, spec: MetricSpec):
    """(query rows, training rows) prepared by spec; queries is one row or a stack.

    queries that are train.rows itself are returned as both, so _tiles
    computes each pair once.
    """
    if queries is train.rows:
        rows = _training_rows(train, spec)
        return rows, rows
    q = np.asarray(queries, dtype=float)
    if q.ndim not in (1, 2):
        raise DimensionMismatch(f"queries must be 1-D or 2-D, got shape {q.shape}")
    if q.shape[-1] != train.n_parts:
        raise DimensionMismatch(
            f"queries have {q.shape[-1]} parts, training rows have {train.n_parts}"
        )
    return (
        spec.prepare(q.reshape(-1, train.n_parts), "query"),
        _training_rows(train, spec),
    )


def pairwise_distances(
    train: LabeledDataset, queries, spec: MetricSpec
) -> np.ndarray:
    """Matrix of distance(spec, queries[i], train.rows[j]).

    queries is a single composition or a stack of them. Rows are prepared
    once up front, which is equivalent to (and much faster than) preparing
    them inside every scalar distance call. The matrix is filled tile by
    tile, so no (m, n, D) temporary is built; for queries that are
    train.rows itself each pair is computed once and mirrored.
    """
    prepared, train_rows = _prepared(train, queries, spec)
    out = np.empty((prepared.shape[0], train_rows.shape[0]))
    for r0, c0, d in _tiles(prepared, train_rows, spec):
        out[r0 : r0 + d.shape[0], c0 : c0 + d.shape[1]] = d
    return out[0] if np.ndim(queries) == 1 else out


def _vote(
    ranked_dists: np.ndarray,
    ranked_labels: np.ndarray,
    ks: tuple[int, ...],
    n_classes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vote among the first k ranked neighbours of each row, for every k in ks.

    ranked_dists and ranked_labels are (m, kmax) in neighbour order, with
    kmax >= max(ks). Returns (winners (K, m), neighbour counts per class
    (K, m, C)). Implements the tie rules documented in the module docstring.
    Counts and distance sums for every k come from one prefix sum each; a
    class's sum adds its members' distances in neighbour order, exactly like
    accumulating them one neighbour at a time.
    """
    onehot = ranked_labels[:, :, None] == np.arange(n_classes)
    at_k = np.asarray(ks, dtype=np.intp) - 1
    counts = np.cumsum(onehot, axis=1, dtype=np.intp)[:, at_k].swapaxes(0, 1)
    member_dists = np.where(onehot, ranked_dists[:, :, None], 0.0)
    dist_sums = np.cumsum(member_dists, axis=1)[:, at_k].swapaxes(0, 1)
    top = counts.max(axis=-1, keepdims=True)
    tiebreak = np.where(counts == top, dist_sums, np.inf)
    winners = tiebreak.argmin(axis=-1)  # argmin keeps the lower class index on ties
    return winners, counts


def _knn_vote(
    train: LabeledDataset, query, config: NeighborConfig
) -> tuple[int, np.ndarray]:
    # one query row: a 2-D query becomes 3-D and fails the shared shape rule
    prepared = _prepared(train, np.asarray(query, dtype=float)[None], config.spec)
    indices, dists = _nearest(*prepared, config.spec, config.k)
    winners, counts = _vote(
        dists, train.labels[indices], (config.k,), train.n_classes
    )
    return int(winners[0, 0]), counts[0, 0]


def classify(train: LabeledDataset, query, config: NeighborConfig) -> int:
    """Class index of the majority vote among the k nearest training rows."""
    return _knn_vote(train, query, config)[0]


def membership_scores(train: LabeledDataset, query, config: NeighborConfig) -> np.ndarray:
    """Per-class neighbour fractions for one query; sums to 1.

    argmax under the classify() tie rules equals classify()'s output.
    """
    return _knn_vote(train, query, config)[1] / config.k
