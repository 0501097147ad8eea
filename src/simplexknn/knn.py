"""Deterministic k-nearest-neighbour classification over simplex metrics.

Neighbour selection and voting are fully specified so results are
reproducible across runs, platforms and thread schedules:

  * neighbours are ordered by (distance, training-row index) via a stable
    sort, so ties on the k-th distance go to the lower row index;
  * the majority class wins; vote ties go to the class whose in-neighbourhood
    members have the smaller distance sum, residual ties to the lower class
    index;
  * votes are unweighted, and the membership score of class c is simply
    (neighbours labeled c) / k, so scores sum to 1 and their argmax under the
    same tie rules reproduces classify().
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


@dataclass(frozen=True)
class NeighborConfig:
    """Number of neighbours and the metric they are measured with."""

    k: int
    spec: MetricSpec

    def __post_init__(self):
        if (
            isinstance(self.k, (bool, np.bool_))
            or int(self.k) != self.k
            or self.k < 1
        ):
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))


# Query rows per kernel call: the broadcast temporary is (_BLOCK_ROWS, n, D),
# so memory grows linearly in the number of training rows, not quadratically.
_BLOCK_ROWS = 32


def _distance_blocks(queries: np.ndarray, train: np.ndarray, spec: MetricSpec):
    """Yield (start, distances of queries[start:start + _BLOCK_ROWS]).

    Both arguments are already prepared by spec.prepare.
    Each entry is computed exactly as an unblocked kernel call would.
    """
    kernel = spec.kernel
    for start in range(0, queries.shape[0], _BLOCK_ROWS):
        block = queries[start : start + _BLOCK_ROWS]
        yield start, kernel(block[:, None, :], train[None, :, :])


def _nearest(
    queries, train, spec: MetricSpec, kmax: int, exclude_self: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Each query row's first kmax training columns by (distance, row index).

    Rows are prepared by spec.prepare. With exclude_self, query row i is
    training row i and never its own neighbour (the LOOCV diagonal). Returns
    (indices, distances), each (m, kmax); memory is O(m * kmax) plus a block.
    """
    n = train.shape[0] - exclude_self
    if kmax > n:
        raise InsufficientTraining(f"k={kmax} exceeds {n} training rows")
    indices = np.empty((queries.shape[0], kmax), dtype=np.intp)
    distances = np.empty((queries.shape[0], kmax))
    for start, block in _distance_blocks(queries, train, spec):
        rows = np.arange(block.shape[0])
        if exclude_self:
            block[rows, start + rows] = np.inf
        # a stable sort orders by distance and keeps the lower column first on ties
        sel = np.argsort(block, axis=1, kind="stable")[:, :kmax]
        indices[start : start + rows.size] = sel
        distances[start : start + rows.size] = np.take_along_axis(block, sel, axis=1)
    return indices, distances


def _prepared(train: LabeledDataset, q: np.ndarray, spec: MetricSpec):
    """(query rows, training rows) prepared by spec; q is one row or a stack."""
    if q.ndim not in (1, 2):
        raise DimensionMismatch(f"queries must be 1-D or 2-D, got shape {q.shape}")
    if q.shape[-1] != train.n_parts:
        raise DimensionMismatch(
            f"queries have {q.shape[-1]} parts, training rows have {train.n_parts}"
        )
    return (
        spec.prepare(q.reshape(-1, train.n_parts), "query"),
        spec.prepare(train.rows, "training"),
    )


def pairwise_distances(
    train: LabeledDataset, queries, spec: MetricSpec
) -> np.ndarray:
    """Matrix of distance(spec, queries[i], train.rows[j]).

    queries is a single composition or a stack of them. Rows are prepared
    once up front, which is equivalent to (and much faster than) preparing
    them inside every scalar distance call. Query rows are processed in
    blocks, so no (m, n, D) temporary is built.
    """
    q = np.asarray(queries, dtype=float)
    prepared, train_rows = _prepared(train, q, spec)
    out = np.empty((prepared.shape[0], train_rows.shape[0]))
    for start, block in _distance_blocks(prepared, train_rows, spec):
        out[start : start + block.shape[0]] = block
    return out[0] if q.ndim == 1 else out


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
