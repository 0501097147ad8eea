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
    same tie rules reproduces classify();
  * one vote serves classify, LOOCV and tune: it reads the ranked neighbours
    neighbour-major, so every query's first k form one prefix, and decides
    each k over class-first (C, m) counts and distance sums.

Distances are computed in strips: one block of at most _BLOCK_ROWS query
rows against a run of whole kernel tiles of columns. A kernel call measures
one tile, sized by a float budget: rows * columns * parts <= _TILE_FLOATS,
so every kernel temporary (one float per part of each pair) stays under 128
KiB; a strip holds as many tiles as fit in _TILE_FLOATS distances. The rows
go to the kernels parts-first: each block of several query rows is
broadcast once into a cached (D, rows, columns) buffer, and every tile of
its strips is that buffer against a (D, 1, columns) view of the training
rows, so each elementwise pass runs along whole tiles. The strips are written into one
buffer per call, so each is valid until the next. A dataset against itself
(LOOCV, tune, dist) computes only the strips from each diagonal block
rightwards and mirrors them, as every kernel is bitwise symmetric. Each row
keeps a running set of its k best (distance, row index) keys and its k-th
distance; a strip is merged by one partition into the rows whose smallest
distance in it is at or below that distance, and the sets are sorted once
at the end. So memory is O(n * k) plus one strip and a few buffers of its
size, independent of n.
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
    bad = isinstance(k, (bool, np.bool_)) or k in (np.inf, -np.inf) or k != k  # nan
    if bad or int(k) != k or k < 1:
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
# faulted in afresh. A strip holds as many whole tiles as fit in
# _TILE_FLOATS distances: 64 x 240, and 1 x 15,360 for classify. Memory per
# call is fixed, whatever the number of rows.
_BLOCK_ROWS = 64
_TILE_FLOATS = 15 * 1024


def _tiles(queries: np.ndarray, train: np.ndarray, spec: MetricSpec):
    """Yield strips (r0, c0, d), d[i, j] = distance(queries[r0 + i], train[c0 + j]).

    Both arguments are already prepared by spec.prepare. Each is copied
    parts-first once, unless its transpose is already contiguous. A strip
    is one block of query rows against a run of whole tiles of columns;
    the block is broadcast once into a (D, rows, columns) buffer, and each
    kernel call takes that buffer, sliced for a narrower last tile, against
    a (D, 1, columns) view. The kernels' tiles are copied into one strip
    buffer per call, so an item is valid only until the next one is asked
    for; copy it to keep it. The items cover the (m, n) matrix exactly
    once. When queries is train, each pair is computed once: row block
    [r0, r1) is measured against the columns from r0 on, and the part of
    each such strip past r1 is yielded again, transposed, for the rows it
    covers. All kernels are bitwise symmetric, so the mirror equals
    measuring those rows; the diagonal blocks are computed in full
    (angular has d(x, x) > 0). Each entry is computed exactly as an
    unblocked kernel call would.
    """
    kernel = spec.kernel
    same = queries is train
    q = np.ascontiguousarray(queries.T)
    t = q if same else np.ascontiguousarray(train.T)
    (parts, m), n = q.shape, t.shape[1]
    height = max(1, min(_BLOCK_ROWS, _TILE_FLOATS // parts, m))
    width = max(1, _TILE_FLOATS // (parts * height))
    span = width * max(1, _TILE_FLOATS // (height * width))
    # one query row broadcasts along whole tile rows as it is, so it stays
    # one column wide; more rows are broadcast to the tile width once
    block = np.empty((parts, height, width if height > 1 else 1))
    strip = np.empty((height, min(span, n)))
    for r0 in range(0, m, height):
        r1 = min(r0 + height, m)
        h = r1 - r0
        block[:, :h] = q[:, r0:r1, None]
        for s0 in range(r0 if same else 0, n, span):
            s1 = min(s0 + span, n)
            d = strip[:h, : s1 - s0]
            for c0 in range(s0, s1, width):
                c1 = min(c0 + width, s1)
                tile = kernel(block[:, :h, : c1 - c0], t[:, None, c0:c1])
                d[:, c0 - s0 : c1 - s0] = tile
            yield r0, s0, d
            if same and s1 > r1:
                skip = max(r1 - s0, 0)
                yield s0 + skip, r0, d[:, skip:].T


def _nearest(
    queries, train, spec: MetricSpec, kmax: int, exclude_self: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Each query row's first kmax training columns by (distance, row index).

    Rows are prepared by spec.prepare; pass the same array as queries and
    train to measure a dataset against itself, so each pair is computed
    once (see _tiles). With exclude_self, query row i is training row i and
    never its own neighbour (the LOOCV diagonal, masked inside its strip).

    Each candidate is one complex key, distance + 1j * row index. numpy
    orders complex numbers by real part, then imaginary part, so the keys
    sort in (distance, row index) order, and no two candidates of a row
    share a key. One partition at kmax - 1 therefore keeps each row's kmax
    best exactly, ties included, with no tie fallback. Each row keeps a
    running set, seeded with (inf, n) sentinels, and its k-th distance, the
    real part of the set's key at kmax - 1. A strip is merged only into the
    rows whose smallest distance in it is at or below that distance: a
    larger one cannot enter, and an equal one may, with a lower row index.
    So the result does not depend on the order of the strips; the kept keys
    are sorted once at the end. Returns (indices, distances), each (m,
    kmax); memory is O(m * kmax) plus one strip and one key array.
    """
    n = train.shape[0]
    if kmax > n - exclude_self:
        raise InsufficientTraining(
            f"k={kmax} exceeds {n - exclude_self} training rows"
        )
    best = np.full((queries.shape[0], kmax), complex(np.inf, n))
    kth = np.full(queries.shape[0], np.inf)
    # the keys of every merge, grown as needed: a strip's keys pass 128 KiB,
    # and a fresh array per merge is faulted in again (17.6k against 11.6k
    # minor faults in an esov roc on 3,000 rows)
    buf = np.empty(0, dtype=complex)
    for r0, c0, d in _tiles(queries, train, spec):
        h, w = d.shape
        if exclude_self:
            diag = np.arange(max(r0, c0), min(r0 + h, c0 + w))
            d[diag - r0, diag - c0] = np.inf
        kept, near = best[r0 : r0 + h], kth[r0 : r0 + h]
        rows = np.flatnonzero(d.min(axis=1) <= near)
        count = rows.size
        if count == 0:
            continue
        if count == h:
            rows = slice(None)  # every row: views, not gathers
        if buf.size < h * (kmax + w):
            buf = np.empty(h * (kmax + w), dtype=complex)
        keys = buf[: count * (kmax + w)].reshape(count, kmax + w)
        keys.real[:, kmax:] = d[rows]  # a copy; d + 1j * index would turn -0.0 into 0.0
        keys.imag[:, kmax:] = np.arange(c0, c0 + w)
        keys[:, :kmax] = kept[rows]
        keys.partition(kmax - 1, axis=1)
        kept[rows] = keys[:, :kmax]
        near[rows] = keys[:, kmax - 1].real
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
    them inside every scalar distance call. The matrix is filled strip by
    strip, so no (m, n, D) temporary is built; for queries that are
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
    """Vote among the first k ranked neighbours of each query, for every k in ks.

    ranked_dists and ranked_labels are (kmax, m), neighbour-major. Returns
    (winners (K, m), class counts (C, m) of the last k). Bincounts over the
    prefix give each (class, query) count and distance sum, added in
    neighbour order; over the class axis 0, argmin takes the first class
    with the smallest sum among those with the most votes (module rules).
    """
    m = np.shape(ranked_labels)[1]
    cells = (ranked_labels * m + np.arange(m)).ravel()
    dists = np.ravel(ranked_dists)
    winners = np.empty((len(ks), m), dtype=np.intp)
    for i, k in enumerate(ks):
        prefix = cells[: k * m]
        counts = np.bincount(prefix, minlength=n_classes * m).reshape(n_classes, m)
        sums = np.bincount(prefix, dists[: k * m], n_classes * m).reshape(n_classes, m)
        winners[i] = np.where(counts == counts.max(axis=0), sums, np.inf).argmin(axis=0)
    return winners, counts


def _knn_vote(
    train: LabeledDataset, query, config: NeighborConfig
) -> tuple[int, np.ndarray]:
    # one query row: a 2-D query becomes 3-D and fails the shared shape rule
    prepared = _prepared(train, np.asarray(query, dtype=float)[None], config.spec)
    indices, dists = _nearest(*prepared, config.spec, config.k)
    winners, counts = _vote(
        dists.T, train.labels[indices].T, (config.k,), train.n_classes
    )
    return int(winners[0, 0]), counts[:, 0]


def classify(train: LabeledDataset, query, config: NeighborConfig) -> int:
    """Class index of the majority vote among the k nearest training rows."""
    return _knn_vote(train, query, config)[0]


def membership_scores(train: LabeledDataset, query, config: NeighborConfig) -> np.ndarray:
    """Per-class neighbour fractions for one query; sums to 1.

    argmax under the classify() tie rules equals classify()'s output.
    """
    return _knn_vote(train, query, config)[1] / config.k
