import itertools
import logging
from collections import Counter

import numpy as np
import pytest

from simplexknn import (
    DimensionMismatch,
    InsufficientTraining,
    LabeledDataset,
    MetricSpec,
    NegativeComponent,
    NeighborConfig,
    ZeroInAitchison,
    classify,
    distance,
    grid_search,
    loocv_scores,
    membership_scores,
    pairwise_distances,
)
from simplexknn import knn, metrics, simplex
from simplexknn.evaluation import _loocv_neighbours
from simplexknn.knn import _nearest, _vote

import class_last
import parts_last
from conftest import compositional_blobs, positive_compositions, sparse_compositions
from test_engine import lattice_dataset
from test_walk import walk_records


def brute_force_classify(train, query, k, spec):
    """Independent quadratic-scan reimplementation of the classifier.

    Full sort by (distance, row index), Counter vote, explicit tie walk;
    shares only the scalar metric with the library.
    """
    dists = [float(distance(spec, query, row)) for row in train.rows]
    order = sorted(range(len(dists)), key=lambda j: (dists[j], j))[:k]
    votes = Counter(int(train.labels[j]) for j in order)
    top = max(votes.values())
    best = None
    for cls in sorted(votes):
        if votes[cls] != top:
            continue
        pooled = sum(dists[j] for j in order if train.labels[j] == cls)
        if best is None or (pooled, cls) < best:
            best = (pooled, cls)
    return best[1]


class TestPairwiseDistances:
    def test_zero_diagonal_for_identity_metrics(self, blob_dataset):
        for family in ("esov", "tc", "hellinger"):
            m = pairwise_distances(blob_dataset, blob_dataset.rows, MetricSpec(family))
            np.testing.assert_array_equal(np.diag(m), 0.0)

    def test_matching_row_yields_single_zero(self, blob_dataset):
        row = pairwise_distances(
            blob_dataset, blob_dataset.rows[4], MetricSpec("esov")
        )
        assert row.shape == (len(blob_dataset),)
        assert (row == 0).sum() == 1 and row[4] == 0.0

    def test_matrix_matches_independent_scalar_calls(self, blob_dataset):
        queries = blob_dataset.rows[:3]
        train = blob_dataset.subset(range(3, 7))
        for spec in (MetricSpec("esov", 0.5), MetricSpec("tc", 2.0),
                     MetricSpec("aitchison"), MetricSpec("angular")):
            m = pairwise_distances(train, queries, spec)
            assert m.shape == (3, 4)
            for i, j in itertools.product(range(3), range(4)):
                assert m[i, j] == distance(spec, queries[i], train.rows[j])

    def test_entries_finite_and_non_negative(self, sparse_dataset):
        m = pairwise_distances(sparse_dataset, sparse_dataset.rows, MetricSpec("esov"))
        assert np.all(np.isfinite(m)) and np.all(m >= 0)

    def test_aitchison_error_names_offending_row(self, sparse_dataset):
        with pytest.raises(ZeroInAitchison, match="row"):
            pairwise_distances(sparse_dataset, sparse_dataset.rows,
                               MetricSpec("aitchison"))

    @pytest.mark.parametrize(
        "spec",
        [MetricSpec(f, a) for f in ("esov", "tc") for a in (-0.5, 0.0, 0.5, 1.0)]
        + [MetricSpec(f) for f in ("aitchison", "hellinger", "angular")],
        ids=repr,
    )
    @pytest.mark.parametrize("tiles", [None, (5, 7)], ids=["default", "5x7"])
    def test_kernels_are_bitwise_symmetric(self, monkeypatch, spec, tiles):
        # _walk mirrors d(x_i, x_j) into d(x_j, x_i) for a dataset measured
        # against itself, and measures a pivot's distances from the pivot
        # side; that is exact only if every kernel is
        if tiles is not None:
            monkeypatch.setattr(knn, "_BLOCK_ROWS", tiles[0])
            monkeypatch.setattr(metrics, "_TILE_FLOATS", tiles[0] * tiles[1] * 9)
        rng = np.random.default_rng(7)
        make = positive_compositions if spec.needs_positive else sparse_compositions
        data = LabeledDataset(make(rng, 150, 9), np.arange(150) % 3, ("a", "b", "c"))
        full = parts_last.matrix(spec, data.rows, data.rows).view(np.int64)  # one call
        assert np.array_equal(full, full.T)
        tiled = pairwise_distances(data, data.rows, spec)
        assert np.array_equal(full, tiled.view(np.int64))
        # the same values as queries: every pair measured, none mirrored
        queried = pairwise_distances(data, data.rows.copy(), spec)
        assert np.array_equal(full, queried.view(np.int64))

    @pytest.mark.parametrize(
        "spec",
        [MetricSpec(f, a) for f in ("esov", "tc") for a in (-0.5, 0.0, 0.5, 1.0)]
        + [MetricSpec(f) for f in ("aitchison", "hellinger", "angular")],
        ids=repr,
    )
    def test_several_strips_per_row_block(self, monkeypatch, spec):
        # 5-row blocks, 7-column tiles and 63-column strips: 150 columns take
        # three strips per row block, the last one narrower, and 38 query rows
        # leave a shorter last block; every strip reuses one buffer, so an
        # entry a strip failed to write would keep the last strip's value
        monkeypatch.setattr(knn, "_BLOCK_ROWS", 5)
        monkeypatch.setattr(metrics, "_TILE_FLOATS", 5 * 7 * 9)
        rng = np.random.default_rng(11)
        make = positive_compositions if spec.needs_positive else sparse_compositions
        data = LabeledDataset(make(rng, 150, 9), np.arange(150) % 3, ("a", "b", "c"))
        queries = data.rows[::-4]  # not train itself, so no strip is mirrored
        full = parts_last.matrix(spec, queries, data.rows).view(np.int64)
        got = pairwise_distances(data, queries, spec)
        assert np.array_equal(full, got.view(np.int64))


class TestNeighborConfig:
    def test_k_must_be_a_positive_integer(self):
        assert NeighborConfig(3.0, MetricSpec("esov")).k == 3
        for bad in (0, -1, 2.5, True, np.True_, None, "3", "x"):
            with pytest.raises(ValueError, match="^k must be a positive integer, got "):
                NeighborConfig(bad, MetricSpec("esov"))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, np.float32("inf")])
    def test_non_finite_k_gets_the_shared_message(self, bad):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            NeighborConfig(bad, MetricSpec("esov"))


class TestVote:
    """knn._vote against the frozen class-last vote, on heavily tied input."""

    KS = (4, 1, 9, 2, 3, 7)  # unsorted, with gaps, the largest not last

    def check(self, dists, labels, ks, n_classes):
        want_winners, want_counts = class_last.vote(dists, labels, ks, n_classes)
        winners, counts = _vote(dists.T, labels.T, ks, n_classes)
        assert winners.dtype == want_winners.dtype
        assert np.array_equal(winners, want_winners)
        # counts of the largest k
        assert counts.dtype == np.intp
        assert np.array_equal(counts, want_counts[ks.index(max(ks))].T)
        for i, k in enumerate(ks):
            winners, counts = _vote(dists.T, labels.T, (k,), n_classes)
            assert np.array_equal(winners[0], want_winners[i])
            assert counts.dtype == np.intp
            assert np.array_equal(counts, want_counts[i].T)
        return want_counts

    @pytest.mark.parametrize("n_classes", [1, 2, 6])
    @pytest.mark.parametrize("m", [1, 50, 600])
    def test_equals_the_class_last_vote(self, n_classes, m):
        # dense ks, a single (even) k, and unsorted ks with gaps
        rng = np.random.default_rng(10 * n_classes + m)
        for ks in (tuple(range(1, 16)), (6,), self.KS):
            kmax = max(ks)
            count_ties = 0
            for _ in range(30 if m < 600 else 5):
                # three lattice distances in neighbour order: sums tie as well
                dists = np.sort(rng.integers(0, 3, (m, kmax)) * 0.25, axis=1)
                labels = rng.integers(0, n_classes, (m, kmax))
                counts = self.check(dists, labels, ks, n_classes)
                top = counts == counts.max(axis=-1, keepdims=True)
                count_ties += int((top.sum(axis=-1) > 1).sum())
            assert count_ties > 0 or n_classes == 1

    @pytest.mark.parametrize("n_classes", [2, 6])
    def test_equal_sums_go_to_the_lower_class(self, n_classes):
        # one distance everywhere: a count tie is a sum tie, so the index decides
        rng = np.random.default_rng(n_classes)
        labels = rng.integers(0, n_classes, (40, max(self.KS)))
        self.check(np.full(labels.shape, 0.5), labels, self.KS, n_classes)
        winners, _ = _vote(np.full((2, 1), 0.5), np.array([[1], [0]]), (2,), 2)
        assert winners.tolist() == [[0]]
        # a later rank ties the winner on count and sum: the lower class takes it
        winners, _ = _vote(np.full((2, 1), 0.5), np.array([[1], [0]]), (1, 2), 2)
        assert winners.tolist() == [[1], [0]]


class TestClassify:
    def test_k1_exact_match_returns_its_label(self, blob_dataset):
        config = NeighborConfig(1, MetricSpec("esov"))
        for i in (0, 13, 25):
            query = blob_dataset.rows[i]
            assert classify(blob_dataset, query, config) == blob_dataset.labels[i]

    def test_k_equals_train_size_gives_global_majority(self, blob_dataset):
        config = NeighborConfig(len(blob_dataset), MetricSpec("tc"))
        # class0 has 12 of 30 rows, a unique global majority
        assert classify(blob_dataset, [0.4, 0.3, 0.2, 0.1], config) == 0

    def test_oracle_equivalence_on_synthetic_sets(self):
        rng = np.random.default_rng(2024)
        for trial in range(10):
            data = compositional_blobs(
                rng, (7, 6, 7), n_parts=4, spread=5.0, floor=1e-3
            )
            queries = rng.dirichlet(np.ones(4), size=4) * 0.98 + 0.005
            for k in (1, 3, 5):
                for spec in (MetricSpec("esov"), MetricSpec("tc", 0.5)):
                    config = NeighborConfig(k, spec)
                    for q in queries:
                        assert classify(data, q, config) == brute_force_classify(
                            data, q, k, spec
                        )

    def test_kth_distance_tie_prefers_lower_row_index(self):
        # rows 1 and 2 are identical, so they tie at every distance;
        # k=2 must take row 1 (lower index) making class b win by distance sum
        rows = np.array([
            [0.5, 0.5],
            [0.4, 0.6],
            [0.4, 0.6],
        ])
        data = LabeledDataset(rows, [0, 1, 0], ("a", "b"))
        config = NeighborConfig(2, MetricSpec("tc"))
        query = np.array([0.4, 0.6])
        # neighbours: row1 (d=0, b), row2 (d=0, a) -> tie 1-1, sums 0 vs 0,
        # residual tie -> lower class index a... both sums zero, class a wins
        assert classify(data, query, config) == 0

    def test_vote_tie_broken_by_distance_sum(self):
        rows = np.array([
            [0.50, 0.50],
            [0.30, 0.70],
            [0.52, 0.48],
            [0.10, 0.90],
        ])
        data = LabeledDataset(rows, [0, 1, 0, 1], ("near", "far"))
        config = NeighborConfig(4, MetricSpec("tc"))
        # 2 votes each; class 'near' members sit closer to the query
        assert classify(data, [0.5, 0.5], config) == 0

    def test_insufficient_training(self, blob_dataset):
        config = NeighborConfig(len(blob_dataset) + 1, MetricSpec("esov"))
        with pytest.raises(InsufficientTraining):
            classify(blob_dataset, blob_dataset.rows[0], config)

    def test_zero_data_fine_for_esov_tc_fatal_for_aitchison(self, sparse_dataset):
        query = sparse_dataset.rows[0]
        for family in ("esov", "tc"):
            classify(sparse_dataset, query, NeighborConfig(3, MetricSpec(family)))
        with pytest.raises(ZeroInAitchison):
            classify(sparse_dataset, query, NeighborConfig(3, MetricSpec("aitchison")))

    def test_uniform_distance_scaling_keeps_winners(self, blob_dataset):
        # switching the logarithm base rescales every esov distance by one
        # constant; the neighbour order and all tie rules are scale-free
        m = pairwise_distances(blob_dataset, blob_dataset.rows[:8], MetricSpec("esov"))
        ks = (1, 2, 3, 5)

        def winners(dist):
            sel = np.argsort(dist, axis=1, kind="stable")[:, : max(ks)]
            ranked = np.take_along_axis(dist, sel, axis=1)
            return _vote(ranked.T, blob_dataset.labels[sel].T, ks, 3)[0]

        base = winners(m)
        for c in (1.0 / np.sqrt(np.log(10.0)), 3.7):
            np.testing.assert_array_equal(base, winners(c * m))

    @pytest.mark.parametrize(
        "fn",
        [
            classify,
            membership_scores,
            lambda data, query, config: pairwise_distances(data, query, config.spec),
        ],
        ids=["classify", "membership_scores", "dist"],
    )
    @pytest.mark.parametrize(
        "query, message",
        [
            ([0.5, 0.5], "queries have 2 parts, training rows have 4"),
            ([[0.5, 0.5]] * 2, "queries have 2 parts, training rows have 4"),
            (0.5, r"queries must be 1-D or 2-D, got shape \(\)"),
            (
                [[[0.4, 0.3, 0.2, 0.1]]],
                r"queries must be 1-D or 2-D, got shape \(1, 1, 4\)",
            ),
        ],
        ids=["wrong-parts", "stacked-wrong-parts", "scalar", "3-D"],
    )
    def test_queries_follow_the_one_shape_rule(self, blob_dataset, fn, query, message):
        # classify and membership_scores take queries as pairwise_distances does
        with pytest.raises(DimensionMismatch, match=message):
            fn(blob_dataset, query, NeighborConfig(1, MetricSpec("esov")))

    @pytest.mark.parametrize(
        "call",
        [
            lambda data, config: classify(data, data.rows[0], config),
            lambda data, config: membership_scores(data, data.rows[0], config),
            lambda data, config: pairwise_distances(data, data.rows[:3], config.spec),
            lambda data, config: pairwise_distances(data, data.rows, config.spec),
        ],
        ids=["classify", "membership_scores", "dist", "dist-self"],
    )
    def test_training_errors_name_the_column(self, blob_dataset, call):
        rows = np.array(blob_dataset.rows)
        rows[17] = [0.6, 0.0, 0.25, 0.15]
        data = LabeledDataset(
            rows, blob_dataset.labels, blob_dataset.classes, ("Na", "Mg", "Al", "Si")
        )
        config = NeighborConfig(1, MetricSpec("aitchison"))
        msg = "^dataset row 17, column Mg is zero$"
        with pytest.raises(ZeroInAitchison, match=msg):
            call(data, config)

    def test_query_domain_errors_name_the_part(self, blob_dataset):
        config = NeighborConfig(1, MetricSpec("esov"))
        msg = "^query row 0, part 1 contains negative parts$"
        with pytest.raises(NegativeComponent, match=msg):
            classify(blob_dataset, [0.5, -0.1, 0.3, 0.3], config)

    def test_training_rows_are_prepared_once(self, monkeypatch, blob_dataset):
        calls = []

        def counting(rows):
            calls.append(rows.shape)
            return real(rows)

        n, d = blob_dataset.rows.shape
        spec = MetricSpec("esov", 0.5)
        query = [0.1, 0.2, 0.3, 0.4]
        expected = [brute_force_classify(blob_dataset, query, k, spec) for k in (3, 5)]
        real = simplex._domain_fault
        monkeypatch.setattr(simplex, "_domain_fault", counting)
        # the same spec again, in an equal object, and with another k
        got = [
            classify(blob_dataset, query, NeighborConfig(3, spec)),
            classify(blob_dataset, query, NeighborConfig(5, MetricSpec("esov", 0.5))),
        ]
        membership_scores(blob_dataset, query, NeighborConfig(5, spec))
        assert got == expected
        # queries are still checked on every call
        assert calls == [(1, d), (n, d), (1, d), (1, d)]
        calls.clear()
        classify(blob_dataset, query, NeighborConfig(3, MetricSpec("tc")))
        assert calls == [(1, d), (n, d)]
        # every entry point takes the dataset's rows from the one cache: LOOCV
        # prepares them, and tune, classify, membership_scores and
        # pairwise_distances with an equal spec reuse them
        calls.clear()
        spec = MetricSpec("tc", 0.5)
        loocv_scores(blob_dataset, NeighborConfig(3, spec))
        grid_search(blob_dataset, [0.5], [1, 3], "tc", B=2, test_total=6, seed=1)
        classify(blob_dataset, query, NeighborConfig(3, MetricSpec("tc", 0.5)))
        membership_scores(blob_dataset, blob_dataset.rows, NeighborConfig(5, spec))
        pairwise_distances(blob_dataset, blob_dataset.rows[:2], spec)
        assert calls == [(n, d), (1, d), (2, d)]


def ranked(q, train, spec, kmax, loocv):
    """_nearest's first kmax columns, or with loocv those LOOCV keeps of train."""
    if loocv:
        return _loocv_neighbours(train, spec, kmax)
    return _nearest(q, train, spec, kmax)


def diagonal_inf_order(spec, q, train, loocv):
    """(order, full): a stable argsort of one unblocked call on the parts-first
    q and train, its diagonal inf with loocv, so that no row is its own
    neighbour."""
    full = parts_last.kernel(spec, q.T[:, None], train.T[None])
    if loocv:
        np.fill_diagonal(full, np.inf)
    return np.argsort(full, axis=1, kind="stable"), full


@pytest.mark.parametrize(
    "spec",
    [MetricSpec(f, a) for f in ("esov", "tc") for a in (0.0, 1.0)]
    + [MetricSpec("angular")],  # d(x, x) > 0: a row need not be its own nearest
    ids=repr,
)
@pytest.mark.parametrize("loocv", [False, True])
def test_nearest_matches_full_stable_argsort(monkeypatch, spec, loocv):
    # lattice points plus a duplicated block: ties everywhere. 7 x 5 tiles on
    # 60 rows give ragged last tiles, mirrored tiles, a diagonal split over
    # two tiles, kmax wider than a tile and ties across the k-th distance;
    # train against itself is pruned, whatever kmax, in 7-row blocks. LOOCV
    # keeps kmax of kmax + 1 columns, up to every other row
    monkeypatch.setattr(knn, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(knn, "_WALK_ROWS", 7)
    monkeypatch.setattr(metrics, "_TILE_FLOATS", 7 * 5 * 3)
    monkeypatch.setattr(knn, "_PRUNE_ROWS", 0)
    monkeypatch.setattr(knn, "_PRUNE_SHARE", 1)
    data = lattice_dataset(8, interior=False)
    n = len(data)
    train = parts_last.parts_first(spec, data.rows)
    # train itself, so tiles are mirrored, and equal values in another
    # array, so every pair is measured; LOOCV only ever ranks train
    for q in [train] if loocv else [train, train[:, ::-3].copy()]:
        order, full = diagonal_inf_order(spec, q, train, loocv)
        for kmax in (1, 3, 9, n - 1):
            indices, dists = ranked(q, train, spec, kmax, loocv)
            assert np.array_equal(indices, order[:, :kmax])
            expected = np.take_along_axis(full, order[:, :kmax], axis=1)
            assert np.array_equal(dists.view(np.int64), expected.view(np.int64))
    with pytest.raises(InsufficientTraining):
        ranked(train, train, spec, n + 1 - loocv, loocv)


def _reversed(items):
    """items with each strip copied (the strip buffer is reused), last first."""
    return reversed([(*where, d.copy()) for *where, d in items])


@pytest.mark.parametrize(
    "spec", [MetricSpec("tc"), MetricSpec("esov", 0.0), MetricSpec("angular")], ids=repr
)
@pytest.mark.parametrize("loocv", [False, True])
def test_nearest_does_not_depend_on_strip_order(monkeypatch, spec, loocv):
    # lattice points plus a duplicated block, so distances tie everywhere,
    # also across the k-th. 7-row blocks, 6-column tiles and 18-column strips
    # on 60 rows: strips do not divide n, the last strip of the first row
    # block is exactly one tile, and strips are mirrored, a row's own column
    # among them. Reversed, a row meets its higher columns first, so a tied
    # candidate with a lower row index arrives after its rival. Every item
    # comes from _walk, whose strips are all yielded up front here, before
    # any k-th distance is known, so nothing is pruned.
    monkeypatch.setattr(knn, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(metrics, "_TILE_FLOATS", 7 * 6 * 3)
    data = lattice_dataset(8, interior=False)
    train = parts_last.parts_first(spec, data.rows)
    n = train.shape[1]
    assert (n, n % 18) == (60, 6)
    walk = knn._walk

    def reversed_walk(*args):
        return _reversed(walk(*args))

    monkeypatch.setattr(knn, "_walk", reversed_walk)
    # train itself; equal values in another array; one query row
    others = [] if loocv else [train[:, ::-3].copy(), train[:, 5:6].copy()]
    for q in [train, *others]:
        order, full = diagonal_inf_order(spec, q, train, loocv)
        for kmax in (1, 3, 9, n - 1):
            indices, dists = ranked(q, train, spec, kmax, loocv)
            assert np.array_equal(indices, order[:, :kmax])
            expected = np.take_along_axis(full, order[:, :kmax], axis=1)
            assert np.array_equal(dists.view(np.int64), expected.view(np.int64))


class TestMembershipScores:
    def test_k1_is_one_hot(self, blob_dataset):
        scores = membership_scores(
            blob_dataset, blob_dataset.rows[0], NeighborConfig(1, MetricSpec("esov"))
        )
        assert sorted(scores) == [0.0, 0.0, 1.0]

    def test_counting_fractions(self):
        rows = np.array([
            [0.9, 0.1],
            [0.8, 0.2],
            [0.5, 0.5],
            [0.1, 0.9],
            [0.0, 1.0],
        ])
        data = LabeledDataset(rows, [0, 0, 1, 2, 2], ("A", "B", "C"))
        scores = membership_scores(data, [0.85, 0.15], NeighborConfig(4, MetricSpec("tc")))
        # neighbours: rows 0,1 (A), 2 (B), 3 (C)
        np.testing.assert_array_equal(scores, [0.5, 0.25, 0.25])

    def test_scores_sum_to_one(self, blob_dataset):
        rng = np.random.default_rng(11)
        config = NeighborConfig(5, MetricSpec("esov", 0.5))
        for _ in range(20):
            q = rng.dirichlet(np.ones(4))
            s = membership_scores(blob_dataset, q, config)
            assert abs(s.sum() - 1.0) < 1e-15

    def test_argmax_consistent_with_classify(self, blob_dataset):
        rng = np.random.default_rng(12)
        for k in (1, 2, 3, 7):
            config = NeighborConfig(k, MetricSpec("tc", 0.5))
            for _ in range(10):
                q = rng.dirichlet(np.ones(4)) * 0.98 + 0.005
                winner = classify(blob_dataset, q, config)
                scores = membership_scores(blob_dataset, q, config)
                assert scores[winner] == scores.max()



# the five families, two power families at negative alpha (no zero parts)
STACK_SPECS = [
    MetricSpec("esov", 0.5), MetricSpec("esov", -0.5), MetricSpec("tc", 1.0),
    MetricSpec("tc", -0.5), MetricSpec("aitchison"), MetricSpec("hellinger"),
    MetricSpec("angular"),
]


def small_blocks(monkeypatch, pruned):
    """5-row blocks and 5-column tiles of 3-part rows, so a stack spans many
    blocks; pruned, a dataset ranked against itself is pruned too, whatever
    its size and k (as test_walk's small_walk)."""
    monkeypatch.setattr(knn, "_BLOCK_ROWS", 5)
    monkeypatch.setattr(knn, "_WALK_ROWS", 5)
    monkeypatch.setattr(metrics, "_TILE_FLOATS", 5 * 5 * 3)
    if pruned:
        monkeypatch.setattr(knn, "_PRUNE_ROWS", 0)
        monkeypatch.setattr(knn, "_PRUNE_SHARE", 1)


class TestStackedQueries:
    """A stack is one _nearest call and one _vote call; each row's answer is
    the single query's, bit for bit, on data where ties decide."""

    @pytest.mark.parametrize("spec", STACK_SPECS, ids=repr)
    @pytest.mark.parametrize("geometry", ["default", "unpruned", "pruned"])
    def test_stack_equals_the_per_row_loop(self, monkeypatch, caplog, spec, geometry):
        if geometry != "default":
            small_blocks(monkeypatch, pruned=geometry == "pruned")
        caplog.set_level(logging.DEBUG, logger="simplexknn")
        # lattice points with a duplicated block: distances tie everywhere;
        # train.rows itself takes the self walk, the other stack query mode
        train = lattice_dataset(12, interior=spec.needs_positive)
        midpoints = (train.rows[:30] + train.rows[30:60]) / 2
        for queries in (train.rows, np.vstack([train.rows[::-2], midpoints])):
            for k in (1, 4, 9):
                config = NeighborConfig(k, spec)
                winners = classify(train, queries, config)
                scores = membership_scores(train, queries, config)
                assert winners.shape == (len(queries),) and winners.dtype == np.intp
                assert scores.shape == (len(queries), train.n_classes)
                assert winners.tolist() == [classify(train, q, config) for q in queries]
                loop = np.array([membership_scores(train, q, config) for q in queries])
                assert np.array_equal(scores.view(np.int64), loop.view(np.int64))
        pivots = [p for *_, p in walk_records(caplog)]
        assert len(pivots) == 6  # one self walk per k and function
        pruned = geometry == "pruned" and spec.family != "angular"
        assert set(pivots) == {knn._PIVOTS if pruned else 0}

    @pytest.mark.parametrize("spec", STACK_SPECS, ids=repr)
    def test_training_rows_equal_a_copy_of_them(self, monkeypatch, spec):
        # the pruned self walk against query mode, each row among its own columns
        small_blocks(monkeypatch, pruned=True)
        train = lattice_dataset(12, interior=spec.needs_positive)
        for k in (1, 3, 8):
            config = NeighborConfig(k, spec)
            for fn in (classify, membership_scores):
                walked = fn(train, train.rows, config)
                queried = fn(train, train.rows.copy(), config)
                assert walked.dtype == queried.dtype
                assert np.array_equal(walked.view(np.int64), queried.view(np.int64))

    def test_one_row_stack_is_the_single_query(self, blob_dataset):
        config = NeighborConfig(5, MetricSpec("tc", 0.5))
        query = [0.4, 0.3, 0.2, 0.1]
        assert classify(blob_dataset, [query], config).tolist() == [
            classify(blob_dataset, query, config)
        ]
        stacked = membership_scores(blob_dataset, [query], config)
        assert stacked.tolist() == [membership_scores(blob_dataset, query, config).tolist()]

    def test_empty_stack_gives_empty_results(self, blob_dataset):
        config = NeighborConfig(3, MetricSpec("esov", 0.5))
        empty = np.empty((0, blob_dataset.n_parts))
        winners = classify(blob_dataset, empty, config)
        assert winners.shape == (0,) and winners.dtype == np.intp
        assert membership_scores(blob_dataset, empty, config).shape == (0, 3)

    def test_stack_errors_name_the_query_row(self, blob_dataset):
        config = NeighborConfig(1, MetricSpec("esov"))
        queries = [[0.4, 0.3, 0.2, 0.1], [0.5, 0.5, -0.1, 0.1]]
        with pytest.raises(NegativeComponent, match="^query row 1, part 2 "):
            classify(blob_dataset, queries, config)


def test_determinism_across_runs(blob_dataset):
    config = NeighborConfig(3, MetricSpec("esov", 0.5))
    q = np.array([0.3, 0.3, 0.2, 0.2])
    results = {classify(blob_dataset, q, config) for _ in range(5)}
    assert len(results) == 1
