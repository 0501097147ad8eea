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
    neighbour-major, so every query's first k form one prefix, decides the
    smallest k over class-first (C, m) keys (-count, distance sum), and
    reaches any larger k by a running winner, one rank at a time;
  * classify, membership_scores and pairwise_distances take one composition
    or an (m, D) stack by one shape rule (_prepared), so m predictions are
    one ranking and one vote, and one composition is the case m = 1.

Prepared rows come only from _training_rows, which prepares a dataset's
rows once per spec and keeps them on the dataset, and from _prepared, which
prepares queries. Both hold them parts-first, (D, n): every array below
that step, in the walk and in evaluation, has the parts on its first axis.

Every distance is measured by one engine, _walk, in strips: one block of
query rows against a run of whole kernel tiles of columns. A tile is sized
by a float budget, rows * columns * parts <= _TILE_FLOATS, so every kernel
temporary (one float per part of each pair) stays under 128 KiB, and a
strip holds _TILE_FLOATS distances. Each block of rows is broadcast into a
(D, rows, columns) buffer, and every tile is that buffer against a (D, 1,
columns) view of the training rows, so each elementwise pass runs along
whole tiles. Queries (classify, membership_scores, pivot
distances) are measured against every training row. A dataset against
itself (LOOCV, tune, dist, classify of train.rows) is walked in square
blocks, each unordered pair of blocks computed at most once and mirrored,
as every kernel is bitwise symmetric; when ranking neighbours the walk also
skips the blocks that a pivot bound shows cannot hold one (see _walk),
taking the rows in an order of its own that it never lets out: each strip
names its rows and columns by their indices in the arrays walked. Each
row keeps a running set of its k best (distance, row index) keys and its
k-th distance; a strip is merged by one partition into the rows whose
smallest distance in it is at or below that distance, and the sets are
sorted once at the end. So memory is O(n * (k + pivots)) plus one strip, a
few buffers of its size and one bit per pair of blocks.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .errors import DimensionMismatch, InsufficientTraining
from .metrics import _TILE_FLOATS, MetricSpec
from .simplex import _integer

__all__ = [
    "NeighborConfig",
    "pairwise_distances",
    "classify",
    "membership_scores",
]


def _debug(message: str, *args) -> None:
    """A DEBUG record on the "simplexknn" logger, where logging is in use.

    Where nothing has imported logging, no handler can take the record, so
    the module is not imported for it: that would add 0.5 MiB to every run.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("simplexknn").debug(message, *args)


@dataclass(frozen=True)
class NeighborConfig:
    """Number of neighbours and the metric they are measured with."""

    k: int
    spec: MetricSpec

    def __post_init__(self):
        object.__setattr__(self, "k", _integer(self.k, "k"))


# A kernel call measures a tile of at most _TILE_FLOATS floats, metrics'
# budget, in each kernel temporary; the walk and evaluation's replication
# blocks read this module's binding of it. Blocks hold at most _BLOCK_ROWS
# rows, _WALK_ROWS in a pruned walk, which orders its rows by their
# distances to _PIVOTS pivots; on the 3,000 glass-shaped rows of the
# benchmark, 4 to 8 pivots ranked equally fast. So on 8 parts _geometry
# gives classify 1 x 1,920 tiles in 15,360-column strips, other queries and
# the unpruned walk 64 x 30 tiles in 240-column strips, and the pruned walk
# 40 x 40 tiles in 384-column strips. Memory per call is fixed, whatever
# the number of rows.
_BLOCK_ROWS = 64
_WALK_ROWS = 40
_PIVOTS = 6
# Ranking a dataset against itself prunes from _PRUNE_ROWS rows, with kmax
# at most a _PRUNE_SHARE-th of them. Below either, the pivots and bounds did
# not pay on glass-shaped rows: tc, the cheapest kernel, ranked up to 40%
# slower at 500 to 700 rows or with kmax at a tenth of 1,000 to 3,000 rows.
_PRUNE_ROWS = 1000
_PRUNE_SHARE = 15


def _stable_order(values: np.ndarray) -> np.ndarray:
    """argsort(values, kind="stable"), by the complex sort _nearest already runs.

    A float sort of its own would fault in another 0.1 to 0.2 MiB of
    numpy's sorting code in every process that walks.
    """
    keys = values + 1j * np.arange(len(values))
    keys.sort()
    return keys.imag.astype(np.intp)


def _geometry(parts: int, rows: int, pruned: bool) -> tuple[int, int, int]:
    """(height, width, span) of _walk's blocks, tiles and strips, in every mode.

    A tile is as wide as the budget allows, but in a pruned walk, which
    takes its columns a block at a time, no wider than a block. A strip is
    never narrower than a block, so a walk's diagonal block lies in one.
    """
    cap = _WALK_ROWS if pruned else _BLOCK_ROWS
    height = max(1, min(cap, _TILE_FLOATS // parts, rows))
    width = max(1, _TILE_FLOATS // (parts * height))
    if pruned:
        width = min(width, height)
    return height, width, max(height, _TILE_FLOATS // height)


def _distances(queries: np.ndarray, rows: np.ndarray, spec: MetricSpec) -> np.ndarray:
    """The (m, n) matrix of distances from prepared queries (D, m) to prepared
    rows (D, n)."""
    out = np.empty((queries.shape[1], rows.shape[1]))
    for r, c, d in _walk(queries, rows, spec):
        out[r[:, None], c] = d
    return out


def _pivot_order(rows: np.ndarray, spec: MetricSpec, size: int):
    """(order, table): a walk order of the prepared rows (D, n) and their pivot
    distances.

    _PIVOTS pivots are picked farthest first: the row farthest from row 0,
    then each time the row farthest from row 0 and the pivots so far (the
    first such row on ties); each one's distances are a one-row query
    walk. table[i] holds the distances of row order[i] to the pivots. The
    order is a kd split of those rows: a range of more than one block of
    size rows is sorted (stably) by the pivot distance that spreads it most
    and cut at a block boundary near its middle, so each block holds rows
    close in every pivot distance.
    """
    n = rows.shape[1]
    order = np.arange(n)
    table = np.empty((n, _PIVOTS))
    far = _distances(rows[:, :1], rows, spec)[0]
    for i in range(_PIVOTS):
        p = int(far.argmax())
        table[:, i] = _distances(rows[:, p : p + 1], rows, spec)[0]
        np.minimum(far, table[:, i], out=far)
    todo = [(0, n)]
    while todo:
        lo, hi = todo.pop()
        blocks = -(-(hi - lo) // size)
        if blocks < 2:
            continue
        seg = order[lo:hi]
        points = table[seg]
        spread = points.max(axis=0) - points.min(axis=0)
        order[lo:hi] = seg[_stable_order(points[:, spread.argmax()])]
        mid = lo + blocks // 2 * size
        todo += [(lo, mid), (mid, hi)]
    return order, table[order]


def _walk(queries, rows, spec: MetricSpec, kth=None):
    """Yield the strips of distances from queries to rows as (r, c, d) items.

    Both are prepared by spec and parts-first: queries (D, m) and rows (D,
    n), rows C-contiguous. d[i, j] is the distance from query r[i] to row
    c[j], where r and c are index arrays into queries and rows, in every
    mode; d is one strip buffer, so an item is valid until the next.
    _geometry sizes blocks, tiles and strips, and each entry equals an
    unblocked kernel call's. There are three modes:

    * Query (queries is not rows): each block of query rows against every
      column, from the first. One query row stays one column wide.
    * Self walk (queries is rows): each row block against the columns from
      its own on; the part of a strip past the row block is yielded again,
      transposed, for its rows, as all kernels are bitwise symmetric. A
      diagonal block is computed in full (angular has d(x, x) > 0).
    * Pruned self walk (kth given: kth[i] is row i's running k-th distance,
      updated by the caller between items; only for a metric with a
      triangle slack, so never angular): LAESA's pivot elimination (Mico,
      Oncina & Vidal 1994). For any pivot p, d(x, w) >= |d(x, p) - d(w, p)|
      - slack (MetricSpec.triangle_slack), so the largest gap, over the
      pivots, between x's pivot distance and a block's interval of them,
      less the slack, bounds x's distance to that block; the least over a
      row block's rows bounds the pair of blocks. The walk takes the rows in
      _pivot_order, in a permuted copy of its own. Each row block visits the
      blocks not yet measured with it in increasing bound, its own first, a
      strip of whole blocks at a time, and stops once the bound exceeds the
      largest k-th distance of its rows; a block whose bound for every row
      exceeds that row's k-th distance is skipped. Either way no row can
      gain a neighbour there: an equal distance may still enter with a
      lower row index, a larger one cannot. Earlier blocks have stopped for
      good, so a strip is mirrored only into later ones.

    Memory is one strip with its buffers, plus for a pruned walk O(n *
    pivots) for the order and bounds and one bit per pair of blocks. A self
    walk logs the block pairs computed and skipped, and the pivots, at DEBUG.
    """
    kernel = spec.kernel
    walk = queries is rows
    parts, n = rows.shape
    m = queries.shape[1]
    pivots = 0 if kth is None else _PIVOTS
    height, width, span = _geometry(parts, m, pivots > 0)
    starts = list(range(0, m, height))
    stops = starts[1:] + [m]
    blocks = len(starts)
    order = np.arange(n)  # the row index at each walk position
    if pivots:
        slack = spec.triangle_slack(parts)
        order, table = _pivot_order(rows, spec, height)
        rows = rows[:, order]
        lo = np.minimum.reduceat(table, starts).T[:, None, :].copy()
        hi = np.maximum.reduceat(table, starts).T[:, None, :].copy()
        # measured[c] has bit a set when block a < c measured the pair (a, c)
        measured = np.zeros((blocks, (blocks + 7) // 8), dtype=np.uint8)
        computed = 0
    q, ids = (rows, order) if walk else (queries, np.arange(m))

    def indices(runs):
        """The row indices at the walk positions of runs, [start, stop) pairs."""
        return np.concatenate([order[s0:s1] for s0, s1 in runs])

    def pruned(a):
        """Runs of columns to measure row block a against, one list per strip."""
        nonlocal computed
        a0, a1 = starts[a], stops[a]
        # each row's bound to each block, less the slack; a block's bound is
        # the least of its rows'
        own = table[a0:a1].T[:, :, None]
        gap = np.maximum(lo[0] - own[0], own[0] - hi[0])
        for p in range(1, pivots):
            np.maximum(gap, lo[p] - own[p], out=gap)
            np.maximum(gap, own[p] - hi[p], out=gap)
        gap -= slack
        bound = gap.min(axis=0)
        bound[a] = -np.inf
        todo = _stable_order(bound)
        done = np.unpackbits(measured[a], count=blocks, bitorder="little")
        todo = todo[done[todo] == 0].tolist()
        bound = bound.tolist()
        i = 0
        while i < len(todo):
            # the next blocks that fit in one strip and may hold a neighbour
            limits = kth[order[a0:a1]]
            limit = limits.max()
            j, w = i, 0
            while j < len(todo) and bound[todo[j]] <= limit:
                w += stops[todo[j]] - starts[todo[j]]
                if j > i and w > span:
                    break
                j += 1
            if j == i:
                return
            # sorted, so the blocks to mirror (b > a) come last
            batch = np.array(sorted(todo[i:j]))
            i = j
            # keep the blocks some row may use
            batch = batch[(gap[:, batch] <= limits[:, None]).any(axis=0)]
            computed += batch.size
            measured[batch[batch > a], a >> 3] |= np.uint8(1 << (a & 7))
            runs = []  # adjacent blocks as one run
            for b in batch.tolist():
                if runs and runs[-1][1] == starts[b]:
                    runs[-1][1] = stops[b]
                else:
                    runs.append([starts[b], stops[b]])
            if runs:
                yield runs

    block = np.empty((parts, height, width if height > 1 else 1))
    strip = np.empty((height, min(span, n)))
    for a in range(blocks):
        a0, a1 = starts[a], stops[a]
        h = a1 - a0
        block[:, :h] = q[:, a0:a1, None]
        first = a0 if walk else 0  # unpruned, a walk starts at its own columns
        strips = pruned(a) if pivots else [
            [(s0, min(s0 + span, n))] for s0 in range(first, n, span)
        ]
        for runs in strips:
            w0 = 0
            for b0, b1 in runs:
                for c0 in range(b0, b1, width):
                    c1 = min(c0 + width, b1)
                    tile = kernel(block[:, :h, : c1 - c0], rows[:, None, c0:c1])
                    strip[:h, w0 + c0 - b0 : w0 + c1 - b0] = tile
                w0 += b1 - b0
            d = strip[:h, :w0]
            yield ids[a0:a1], indices(runs), d
            later = [(max(b0, a1), b1) for b0, b1 in runs if walk and b1 > a1]
            if later:
                mirror = sum(b1 - b0 for b0, b1 in later)
                yield indices(later), ids[a0:a1], d[:, w0 - mirror :].T
    if walk:
        total = blocks * (blocks + 1) // 2
        done = computed if pivots else total
        _debug(
            "self walk: %d of %d block pairs computed, %d skipped, %d pivots",
            done, total, total - done, pivots,
        )


def _nearest(
    queries, train, spec: MetricSpec, kmax: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each query row's first kmax training columns by (distance, row index).

    queries (D, m) and train (D, n) are prepared by spec and measured by
    _walk; pass the same array as queries and train to walk a dataset
    against itself, so each pair of blocks is computed at most once, and
    pruned where that pays (from _PRUNE_ROWS rows, kmax at most a
    _PRUNE_SHARE-th of them) and the metric bounds it (angular has no
    triangle slack). A row is ranked among
    its own columns: a caller that holds rows out drops them afterwards.

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
    kmax); memory is O(m * kmax) plus one strip and one key array (and the
    walk's own).
    """
    parts, n = train.shape
    if kmax > n:
        raise InsufficientTraining(f"k={kmax} exceeds {n} training rows")
    best = np.full((queries.shape[1], kmax), complex(np.inf, n))
    kth = np.full(queries.shape[1], np.inf)
    prune = queries is train and n >= _PRUNE_ROWS and kmax * _PRUNE_SHARE <= n
    prune = prune and spec.triangle_slack(parts) is not None  # not angular
    # the keys of every merge, grown as needed: a strip's keys pass 128 KiB,
    # and a fresh array per merge is faulted in again (17.6k against 11.6k
    # minor faults in an esov roc on 3,000 rows)
    buf = np.empty(0, dtype=complex)
    for rows, cols, d in _walk(queries, train, spec, kth if prune else None):
        h, w = d.shape
        pick = np.flatnonzero(d.min(axis=1) <= kth[rows])
        count = pick.size
        if count == 0:
            continue
        if count < h:  # gathers; else views
            rows, d = rows[pick], d[pick]
        if buf.size < h * (kmax + w):
            buf = np.empty(h * (kmax + w), dtype=complex)
        keys = buf[: count * (kmax + w)].reshape(count, kmax + w)
        keys.real[:, kmax:] = d  # a copy; d + 1j * index would turn -0.0 into 0.0
        keys.imag[:, kmax:] = cols
        keys[:, :kmax] = best[rows]
        keys.partition(kmax - 1, axis=1)
        best[rows] = keys[:, :kmax]
        kth[rows] = keys[:, kmax - 1].real
    best.sort(axis=1)
    return best.imag.astype(np.intp), best.real.copy()


def _training_rows(train: LabeledDataset, spec: MetricSpec) -> np.ndarray:
    """train.rows prepared by spec: a read-only, C-contiguous (D, n) array.

    The dataset keeps one entry, the latest spec's rows, so each (dataset,
    spec) is prepared once while it is in use, and a grid of alphas holds
    one prepared copy at a time. A failed prepare raises and leaves the
    entry as it was.
    """
    held, rows = train._prepared_rows
    if held != spec:
        rows = spec.prepare(train.rows, "dataset", train.feature_names).T.copy()
        rows.setflags(write=False)
        object.__setattr__(train, "_prepared_rows", (spec, rows))
    return rows


def _prepared(train: LabeledDataset, queries, spec: MetricSpec):
    """(query rows (D, m), training rows (D, n)) prepared by spec; queries is
    one row or a stack.

    queries that are train.rows itself are returned as both, so _walk
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
        spec.prepare(q.reshape(-1, train.n_parts), "query").T.copy(),
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
    out = _distances(*_prepared(train, queries, spec), spec)
    return out[0] if np.ndim(queries) == 1 else out


def _vote(
    ranked_dists: np.ndarray,
    ranked_labels: np.ndarray,
    ks: tuple[int, ...],
    n_classes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vote among the first k ranked neighbours of each query, for every k in ks.

    ranked_dists and ranked_labels are (kmax, m), neighbour-major. Returns
    (winners (K, m), class counts (C, m) of the largest k). Each (class,
    query) cell holds one key, -count + 1j * distance sum, which numpy
    orders lexicographically, so the smallest key wins (module rules). The
    smallest k's keys come from bincounts over the prefix, added in
    neighbour order, and argmin over the class axis 0 gives a tie to the
    lower class. Larger ks are reached by a running winner: each rank adds
    its neighbour to its class's key in place, so every sum keeps its bits,
    and that class, the only one to gain, displaces the winner when its key
    is smaller, or equal with a lower class index.
    """
    m = np.shape(ranked_labels)[1]
    cells = (ranked_labels * m + np.arange(m)).ravel()
    dists = np.ravel(ranked_dists)
    k = min(ks)
    prefix = cells[: k * m]
    keys = np.empty(n_classes * m, dtype=complex)
    keys.real = -np.bincount(prefix, minlength=n_classes * m)
    keys.imag = np.bincount(prefix, dists[: k * m], n_classes * m)
    order = sorted(range(len(ks)), key=ks.__getitem__)
    winners = np.empty((len(ks), m), dtype=np.intp)
    winners[order[0]] = keys.reshape(n_classes, m).argmin(axis=0)
    step = np.empty(m, dtype=complex)
    step.real = -1.0
    # the winner's cell, label * m + query: for one query, cells order as labels
    held = winners[order[0]] * m + np.arange(m)
    for i in order[1:]:
        for r in range(k, ks[i]):
            cell = cells[r * m : (r + 1) * m]
            step.imag = dists[r * m : (r + 1) * m]
            gained = keys[cell] + step
            keys[cell] = gained
            best = keys[held]
            take = (gained < best) | ((gained == best) & (cell < held))
            held = np.where(take, cell, held)
        k = ks[i]
        winners[i] = held // m
    return winners, (-keys.real).astype(np.intp).reshape(n_classes, m)


def _knn_vote(
    train: LabeledDataset, query, config: NeighborConfig
) -> tuple[int | np.ndarray, np.ndarray]:
    """(winners, class counts) of query, taken as pairwise_distances takes its
    queries: an int and (C,) counts for one composition, (m,) and (m, C) for
    a stack, from one _nearest call and one _vote call."""
    spec = config.spec
    indices, dists = _nearest(*_prepared(train, query, spec), spec, config.k)
    winners, counts = _vote(
        dists.T, train.labels[indices].T, (config.k,), train.n_classes
    )
    if np.ndim(query) == 1:
        return int(winners[0, 0]), counts[:, 0]
    return winners[0], np.ascontiguousarray(counts.T)


def classify(train: LabeledDataset, query, config: NeighborConfig) -> int | np.ndarray:
    """Class index of the majority vote among the k nearest training rows.

    query is one composition, giving an int, or a stack of them, giving an
    (m,) array. A stack that is train.rows itself takes the self walk, each
    row ranked among its own columns.
    """
    return _knn_vote(train, query, config)[0]


def membership_scores(train: LabeledDataset, query, config: NeighborConfig) -> np.ndarray:
    """Per-class neighbour fractions: (C,) for one composition, (m, C) for a
    stack; each row sums to 1.

    argmax under the classify() tie rules equals classify()'s output.
    """
    return _knn_vote(train, query, config)[1] / config.k
