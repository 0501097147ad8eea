"""The pruned self walk of knn against a full, stable argsort.

A dataset measured against itself (LOOCV, tune, dist) is walked in blocks
ordered by pivot distances, and blocks whose triangle bound exceeds every
row's running k-th distance are never computed. The bound only holds up to
the kernels' rounding (MetricSpec.triangle_slack), so the data here is made
of the cases where rounding decides: exact duplicates, lattice ties, and
copies moved by 1 to 3 ulp per part. Neighbours and distance bits must equal
an unblocked oracle's, whatever is skipped; so must the neighbours LOOCV
keeps once it has dropped each row's own column. In every mode the walk's
items name their rows and columns by dataset index, whatever order a pruned
walk takes the rows in.
"""

import logging
import math
import re

import numpy as np
import pytest

import parts_last
from simplexknn import LabeledDataset, MetricSpec, pairwise_distances, write_csv
from simplexknn import knn, metrics
from simplexknn.cli import main
from simplexknn.evaluation import _loocv_neighbours
from simplexknn.knn import _nearest
from simplexknn.metrics import _LOG_ERROR, _U
from conftest import positive_compositions, sparse_compositions
from test_engine import lattice_dataset

SPECS = [MetricSpec(f, a) for f in ("esov", "tc") for a in (-0.5, 0.0, 0.5, 1.0)] + [
    MetricSpec(f) for f in ("aitchison", "hellinger", "angular")
]
WALK = re.compile(r"(\d+) of (\d+) block pairs computed, (\d+) skipped, (\d+) pivots")


def nudged(rng, rows):
    """rows with each nonzero part moved by -3 to 3 ulp (zero parts stay zero)."""
    steps = rng.integers(-3, 4, rows.shape) * (rows > 0)
    return rows + steps * np.spacing(rows)


def tie_rows(kind, positive, seed=0):
    """Rows where rounding decides the neighbours: duplicates, ties, ulp nudges.

    "copies" are the random rows with their first four copied 5 more times
    each, last, so a copy may follow 5 equal rows.
    """
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        base = lattice_dataset(12, interior=positive).rows  # with a duplicated block
    else:
        make = positive_compositions if positive else sparse_compositions
        base = make(rng, 120, 8)
    pick = rng.choice(len(base), len(base) // 2, replace=False)
    rows = np.vstack([base, nudged(rng, base[pick]), nudged(rng, base[pick[::3]])])
    if kind == "copies":
        rows = np.vstack([rows, np.repeat(rows[:4], 5, axis=0)])
    return rows


@pytest.fixture
def small_walk(monkeypatch):
    """5-row blocks and 5-column tiles, so a hundred rows make many blocks,
    pruned whatever the number of rows and kmax."""

    def shrink(parts):
        monkeypatch.setattr(knn, "_WALK_ROWS", 5)
        monkeypatch.setattr(metrics, "_TILE_FLOATS", 5 * 5 * parts)
        monkeypatch.setattr(knn, "_PRUNE_ROWS", 0)
        monkeypatch.setattr(knn, "_PRUNE_SHARE", 1)

    return shrink


def walk_records(caplog):
    """(computed, total, skipped, pivots) of each walk logged so far."""
    found = [WALK.search(r.getMessage()) for r in caplog.records]
    return [tuple(int(g) for g in m.groups()) for m in found if m]


def oracle(spec, raw, kmax, loocv):
    full = parts_last.matrix(spec, raw, raw)  # one unblocked call
    if loocv:  # no row is its own neighbour
        np.fill_diagonal(full, np.inf)
    order = np.argsort(full, axis=1, kind="stable")[:, :kmax]
    return order, np.take_along_axis(full, order, axis=1)


@pytest.mark.parametrize("spec", SPECS, ids=repr)
@pytest.mark.parametrize("kind", ["lattice", "random", "copies"])
@pytest.mark.parametrize(
    "kmax, loocv",
    [(1, True), (3, True), (27, False)],
    ids=["loocv1", "loocv3", "tune"],
)
def test_pruned_walk_matches_stable_argsort(
    small_walk, caplog, spec, kind, kmax, loocv
):
    # LOOCV ranks kmax + 1 columns, each row among its own, and drops one
    raw = tie_rows(kind, spec.needs_positive)
    rows = parts_last.parts_first(spec, raw)
    small_walk(raw.shape[1])
    if kind == "copies" and loocv:
        # the last row ranks its own column past the first kmax + 1, so it
        # drops the last one instead; some row drops one of its first kmax
        own = _nearest(rows, rows, spec, kmax + 1)[0] == np.arange(len(raw))[:, None]
        assert not own[-1].any() and own[:, :kmax].any()
    caplog.set_level(logging.DEBUG, logger="simplexknn")
    if loocv:
        indices, dists = _loocv_neighbours(rows, spec, kmax)
    else:
        indices, dists = _nearest(rows, rows, spec, kmax)
    want, want_dists = oracle(spec, raw, kmax, loocv)
    assert np.array_equal(indices, want)
    assert np.array_equal(dists.view(np.int64), want_dists.view(np.int64))
    [(computed, total, skipped, pivots)] = walk_records(caplog)
    assert computed + skipped == total
    if spec.family == "angular":
        assert (skipped, pivots) == (0, 0)
    elif kmax == 1:
        assert skipped > 0 and pivots == knn._PIVOTS  # the walk did prune


def walk_items(queries, rows, spec, kth=None):
    """_walk's items, each copied (the strip buffer is reused), after checking
    that r and c are index arrays that d's shape matches."""
    items = []
    for r, c, d in knn._walk(queries, rows, spec, kth):
        for index in (r, c):
            assert isinstance(index, np.ndarray) and index.dtype == np.intp
        assert d.shape == (len(r), len(c))
        items.append((r.copy(), c.copy(), d.copy()))
    return items


@pytest.mark.parametrize("spec", [MetricSpec("esov", 0.5), MetricSpec("tc")], ids=repr)
@pytest.mark.parametrize("mode", ["query", "self", "pruned", "pruned at inf"])
def test_walk_names_rows_and_columns_by_their_indices(small_walk, spec, mode):
    # every item holds d[i, j] = distance(query r[i], row c[j]), whatever
    # order a pruned walk takes the rows in
    raw = tie_rows("random", False, seed=4)
    small_walk(raw.shape[1])
    rows = parts_last.parts_first(spec, raw)
    raw_queries = raw[::-3] if mode == "query" else raw
    queries = parts_last.parts_first(spec, raw_queries) if mode == "query" else rows
    full = parts_last.matrix(spec, raw_queries, raw)
    kth = None  # a pruned walk takes a k-th distance per dataset row
    if mode == "pruned":
        kth = np.sort(full, axis=1)[:, 2]
    elif mode == "pruned at inf":
        kth = np.full(len(raw), np.inf)
    seen = np.zeros(full.shape, dtype=int)
    for r, c, d in walk_items(queries, rows, spec, kth):
        assert np.array_equal(d.view(np.int64), full[r[:, None], c].view(np.int64))
        np.add.at(seen, (r[:, None], c), 1)
    if mode == "pruned":
        assert seen.max() == 1 and seen.min() == 0  # each pair at most once, some never
        # yet every pair that may enter a row's first three
        assert seen[full <= kth[:, None]].all()
    else:
        assert (seen == 1).all()


@pytest.mark.parametrize("spec", [MetricSpec("esov", 0.5), MetricSpec("tc")], ids=repr)
@pytest.mark.parametrize("mode", ["pruned", "pruned at inf"])
def test_pruned_strips_are_whole_blocks_and_counted(monkeypatch, caplog, spec, mode):
    # 5-row blocks and 44-column strips (not a multiple of 5), over 198
    # rows, so the last block has 3 rows: a strip takes at most 8 blocks,
    # even where the short block would fit beside them
    raw = tie_rows("random", False, seed=4)[:198]
    parts = raw.shape[1]
    monkeypatch.setattr(knn, "_WALK_ROWS", 5)
    monkeypatch.setattr(metrics, "_TILE_FLOATS", (5 * 5 + 3) * parts)
    height, _, span = knn._geometry(parts, len(raw), pruned=True)
    assert (height, span) == (5, 44)
    rows = parts_last.parts_first(spec, raw)
    kth = np.full(len(raw), np.inf)
    if mode == "pruned":
        kth = np.sort(parts_last.matrix(spec, raw, raw), axis=1)[:, 2]
    order, _ = knn._pivot_order(rows, spec, height)
    block = np.empty(len(raw), dtype=np.intp)  # each row's block in the walk
    block[order] = np.arange(len(raw)) // height
    sizes = np.bincount(block)
    caplog.set_level(logging.DEBUG, logger="simplexknn")
    pairs = set()
    for r, c, _ in walk_items(rows, rows, spec, kth):
        # a strip and its mirror: one block against whole blocks
        for index in (r, c):
            held = np.bincount(block[index], minlength=len(sizes))
            assert ((held == 0) | (held == sizes)).all()
            assert 1 <= np.count_nonzero(held) <= span // height
        for a in np.unique(block[r]).tolist():
            pairs |= {(min(a, b), max(a, b)) for b in np.unique(block[c]).tolist()}
    [(computed, total, skipped, pivots)] = walk_records(caplog)
    assert computed == len(pairs) and pivots == knn._PIVOTS
    assert (skipped > 0) == (mode == "pruned")


@pytest.mark.parametrize("family", ["tc", "angular"])
def test_nearest_returns_fresh_contiguous_arrays(small_walk, family):
    # queries; a dataset against itself, pruned under tc, not under angular
    spec = MetricSpec(family)
    raw = tie_rows("random", False, seed=6)
    small_walk(raw.shape[1])
    rows = parts_last.parts_first(spec, raw)
    for queries in (rows[:, :7].copy(), rows):
        indices, dists = _nearest(queries, rows, spec, 3)
        assert (indices.dtype, dists.dtype) == (np.intp, np.float64)
        for out in (indices, dists):
            assert out.shape == (queries.shape[1], 3)
            assert out.flags.c_contiguous and out.flags.owndata


@pytest.mark.parametrize("spec", [MetricSpec("esov", 0.5), MetricSpec("tc")], ids=repr)
def test_walk_order_does_not_change_the_result(small_walk, monkeypatch, spec):
    # the pivot order reversed: other blocks, bounds and visiting order
    raw = tie_rows("random", False, seed=3)
    rows = parts_last.parts_first(spec, raw)
    small_walk(raw.shape[1])
    want = _nearest(rows, rows, spec, 3)
    pivot_order = knn._pivot_order

    def reversed_order(*args):
        order, table = pivot_order(*args)
        return order[::-1].copy(), table[::-1].copy()

    monkeypatch.setattr(knn, "_pivot_order", reversed_order)
    got = _nearest(rows, rows, spec, 3)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1].view(np.int64), want[1].view(np.int64))


def test_angular_visits_every_pair(small_walk, caplog):
    raw = tie_rows("random", False, seed=5)
    small_walk(raw.shape[1])
    caplog.set_level(logging.DEBUG, logger="simplexknn")
    for family in ("hellinger", "angular"):
        spec = MetricSpec(family)
        rows = parts_last.parts_first(spec, raw)
        _nearest(rows, rows, spec, 1)
    (_, total, skipped, _), angular = walk_records(caplog)
    assert skipped > 0  # the same rows under a metric prune
    height, _, _ = knn._geometry(raw.shape[1], len(raw), pruned=False)
    blocks = -(-len(raw) // height)
    assert angular == (blocks * (blocks + 1) // 2, blocks * (blocks + 1) // 2, 0, 0)


@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_pivot_distances_equal_the_distance_matrix(spec):
    # a pivot's distances are a one-row query walk, the pivot on the query
    # side: the kernels' bitwise symmetry makes them the matrix's rows
    raw = tie_rows("random", spec.needs_positive, seed=9)
    data = LabeledDataset(raw, np.arange(len(raw)) % 3, ("a", "b", "c"))
    full = pairwise_distances(data, data.rows, spec)
    order, table = knn._pivot_order(parts_last.parts_first(spec, raw), spec, 5)
    assert np.array_equal(np.sort(order), np.arange(len(raw)))
    far = full[0].copy()  # farthest first, from row 0
    for i in range(knn._PIVOTS):
        p = far.argmax()
        assert np.array_equal(table[:, i].view(np.int64), full[p, order].view(np.int64))
        np.minimum(far, full[p], out=far)


def test_geometry(monkeypatch):
    # (height, width, span) on 8 parts: classify's one row, a block of
    # queries or an unpruned walk, and a pruned walk
    assert knn._geometry(8, 1, pruned=False) == (1, 1920, 15360)
    assert knn._geometry(8, 214, pruned=False) == (64, 30, 240)
    assert knn._geometry(8, 3000, pruned=True) == (40, 40, 384)
    # a diagonal block fits in one strip, whatever the budget
    for floats in (metrics._TILE_FLOATS, 200, 8):
        monkeypatch.setattr(metrics, "_TILE_FLOATS", floats)
        for parts in (1, 3, 8, 130, 20000):
            for rows in (1, 7, 64, 3000):
                for pruned in (False, True):
                    height, width, span = knn._geometry(parts, rows, pruned)
                    assert 1 <= height <= rows and width >= 1 and span >= height


def test_one_record_per_walk_and_none_for_queries(caplog):
    spec = MetricSpec("tc")
    raw = np.vstack([tie_rows("random", False, seed) for seed in range(6)])
    rows = parts_last.parts_first(spec, raw)
    n = len(raw)
    assert n >= knn._PRUNE_ROWS
    data = LabeledDataset(spec.prepare(raw), np.arange(n) % 3, ("a", "b", "c"))
    caplog.set_level(logging.DEBUG, logger="simplexknn")
    _nearest(rows, rows, spec, 3)
    _nearest(rows, rows, spec, n // knn._PRUNE_SHARE + 1)  # too wide a prefix to prune
    few = rows[:, : knn._PRUNE_ROWS - 1]
    _nearest(few, few, spec, 3)  # too few rows
    pairwise_distances(data, data.rows, spec)  # no k-th distance to prune by
    _nearest(rows[:, :5].copy(), rows, spec, 3)  # queries: no blocks to skip
    records = walk_records(caplog)
    assert [pivots for *_, pivots in records] == [knn._PIVOTS, 0, 0, 0]
    assert all(computed + skipped == total for computed, total, skipped, _ in records)
    assert records[0][2] > 0 and records[1][2] == 0


@pytest.mark.parametrize("spec", [s for s in SPECS if s.family != "angular"], ids=repr)
@pytest.mark.parametrize("kind", ["lattice", "random"])
def test_triangle_slack_covers_computed_distances(spec, kind):
    # every row is a pivot: the computed triangle inequality may fail, by
    # less than the slack
    t = parts_last.parts_first(spec, tie_rows(kind, spec.needs_positive, seed=7))
    d = spec.kernel(t[:, :, None], t[:, None, :])
    worst = max(
        (np.abs(d[:, p, None] - d[None, p, :]) - d).max() for p in range(t.shape[1])
    )
    assert worst <= spec.triangle_slack(t.shape[0])


def test_triangle_slack_per_family():
    assert MetricSpec("angular").triangle_slack(8) is None
    families = ("esov", "tc", "hellinger", "aitchison")
    slack = {f: MetricSpec(f).triangle_slack(8) for f in families}
    # esov's error is the square root of its divergence sum's
    assert 1e-8 < slack["esov"] < 1e-6
    assert slack["tc"] == slack["hellinger"] < 1e-14
    assert slack["hellinger"] < slack["aitchison"] < 1e-10
    assert MetricSpec("tc").triangle_slack(9) > slack["tc"]


def test_log_is_within_the_slacks_assumption():
    # the slack allows np.log 4 ulp; math.log (the C library's) is within
    # 1 ulp, so np.log may stray 3 ulp from it on whatever SIMD target runs
    rng = np.random.default_rng(11)
    q = np.concatenate([
        rng.uniform(0, 2, 20000),
        1.0 + rng.uniform(-1e-6, 1e-6, 5000),
        10.0 ** rng.uniform(-307, 0, 5000),
        np.finfo(float).tiny * rng.uniform(1, 4, 1000),
    ])
    q = q[q > 0]
    got = np.log(q)
    for x, g in zip(q.tolist(), got.tolist()):
        want = math.log(x)
        assert abs(g - want) <= 3 * math.ulp(want)
    assert _LOG_ERROR == 8 * _U  # 4 ulp as a relative error


def test_cli_output_unchanged_with_debug_logging(tmp_path, monkeypatch, caplog, capsys):
    rng = np.random.default_rng(8)
    rows = positive_compositions(rng, 90, 4)
    path = tmp_path / "rows.csv"
    write_csv(LabeledDataset(rows, np.arange(90) % 3, ("a", "b", "c")), path, "kind")
    monkeypatch.setattr(knn, "_WALK_ROWS", 5)
    monkeypatch.setattr(metrics, "_TILE_FLOATS", 5 * 5 * 4)
    monkeypatch.setattr(knn, "_PRUNE_ROWS", 0)
    monkeypatch.setattr(knn, "_PRUNE_SHARE", 1)
    common = ["--input", str(path), "--label-column", "kind", "--family", "esov"]
    commands = {
        "roc": ["roc", *common, "--alpha", "0.5", "--k", "3", "--output-dir"],
        "tune": ["tune", *common, "--alphas", "0.5,1", "--k", "1,3", "--B", "5",
                 "--test-n", "6", "--seed", "3", "--output"],
        "dist": ["dist", *common, "--alpha", "0.5", "--output"],
    }
    outputs = []
    for level in (logging.WARNING, logging.DEBUG):
        caplog.set_level(level, logger="simplexknn")
        out = tmp_path / logging.getLevelName(level)
        out.mkdir()
        for name, argv in commands.items():
            assert main([*argv, str(out / name)]) == 0
        files = sorted(p for p in out.rglob("*") if p.is_file())
        outputs.append(
            ([p.relative_to(out) for p in files], [p.read_bytes() for p in files],
             capsys.readouterr())
        )
    assert outputs[0] == outputs[1]
    records = walk_records(caplog)
    assert len(records) == 4  # roc, one per alpha of tune, and dist
    assert any(skipped > 0 for _, _, skipped, _ in records)
