import itertools
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
    membership_scores,
    pairwise_distances,
)
from simplexknn import knn, simplex
from simplexknn.knn import _nearest, _vote

import parts_last
from conftest import compositional_blobs, positive_compositions, sparse_compositions
from test_engine import lattice_dataset


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
        # _tiles mirrors d(x_i, x_j) into d(x_j, x_i) for a dataset measured
        # against itself; that is exact only if every kernel is
        if tiles is not None:
            monkeypatch.setattr(knn, "_BLOCK_ROWS", tiles[0])
            monkeypatch.setattr(knn, "_TILE_FLOATS", tiles[0] * tiles[1] * 9)
        rng = np.random.default_rng(7)
        make = positive_compositions if spec.needs_positive else sparse_compositions
        data = LabeledDataset(make(rng, 150, 9), np.arange(150) % 3, ("a", "b", "c"))
        x = spec.prepare(data.rows)
        full = parts_last.kernel(spec, x[:, None], x[None]).view(np.int64)  # one call
        assert np.array_equal(full, full.T)
        tiled = pairwise_distances(data, data.rows, spec)
        assert np.array_equal(full, tiled.view(np.int64))


class TestNeighborConfig:
    def test_k_must_be_a_positive_integer(self):
        assert NeighborConfig(3.0, MetricSpec("esov")).k == 3
        for bad in (0, -1, 2.5, True, np.True_):
            with pytest.raises(ValueError):
                NeighborConfig(bad, MetricSpec("esov"))


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
            return _vote(ranked, blob_dataset.labels[sel], ks, 3)[0]

        base = winners(m)
        for c in (1.0 / np.sqrt(np.log(10.0)), 3.7):
            np.testing.assert_array_equal(base, winners(c * m))

    @pytest.mark.parametrize("fn", [classify, membership_scores])
    @pytest.mark.parametrize(
        "query", [[0.5, 0.5], [[0.4, 0.3, 0.2, 0.1]]], ids=["wrong-parts", "2-D"]
    )
    def test_query_must_be_one_row_of_the_training_parts(self, blob_dataset, fn, query):
        with pytest.raises(DimensionMismatch):
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
        msg = "^training row 17, column Mg is zero$"
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


@pytest.mark.parametrize(
    "spec",
    [MetricSpec(f, a) for f in ("esov", "tc") for a in (0.0, 1.0)]
    + [MetricSpec("angular")],  # d(x, x) > 0: a row need not be its own nearest
    ids=repr,
)
@pytest.mark.parametrize("exclude_self", [False, True])
def test_nearest_matches_full_stable_argsort(monkeypatch, spec, exclude_self):
    # lattice points plus a duplicated block: ties everywhere. 7 x 5 tiles on
    # 60 rows give ragged last tiles, mirrored tiles, a masked diagonal split
    # over two tiles, kmax wider than a tile and ties across the k-th distance
    monkeypatch.setattr(knn, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(knn, "_TILE_FLOATS", 7 * 5 * 3)
    data = lattice_dataset(8, interior=False)
    n = len(data)
    train = spec.prepare(data.rows)
    # train itself, so tiles are mirrored, and equal values in another
    # array, so every pair is measured; LOOCV only ever passes train
    for q in [train] if exclude_self else [train, train[::-3].copy()]:
        full = parts_last.kernel(spec, q[:, None], train[None])  # one unblocked call
        if exclude_self:
            np.fill_diagonal(full, np.inf)
        order = np.argsort(full, axis=1, kind="stable")
        for kmax in (1, 3, 9, n - 1):
            indices, dists = _nearest(q, train, spec, kmax, exclude_self)
            assert np.array_equal(indices, order[:, :kmax])
            expected = np.take_along_axis(full, order[:, :kmax], axis=1)
            assert np.array_equal(dists.view(np.int64), expected.view(np.int64))
    with pytest.raises(InsufficientTraining):
        _nearest(train, train, spec, n + 1 - exclude_self, exclude_self)


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


def test_determinism_across_runs(blob_dataset):
    config = NeighborConfig(3, MetricSpec("esov", 0.5))
    q = np.array([0.3, 0.3, 0.2, 0.2])
    results = {classify(blob_dataset, q, config) for _ in range(5)}
    assert len(results) == 1
