import json
import tracemalloc

import numpy as np
import pytest

from simplexknn import (
    InfeasibleStratification,
    InsufficientTraining,
    LabeledDataset,
    MetricSpec,
    NeighborConfig,
    SimplexKnnError,
    ZeroInAitchison,
    allocate_test_counts,
    confusion_matrix,
    grid_search,
    loocv_scores,
    membership_scores,
    sensitivity_specificity,
    stratified_holdout,
)
from simplexknn import evaluation, knn, metrics

import parts_last
from conftest import compositional_blobs, sparse_compositions
from test_engine import lattice_dataset


class TestAllocation:
    def test_exact_proportionality(self):
        np.testing.assert_array_equal(allocate_test_counts([10, 10], 4), [2, 2])

    def test_glass_like_counts(self):
        # 214 rows over 6 classes, 30 test rows: every class represented
        alloc = allocate_test_counts([70, 76, 17, 13, 9, 29], 30)
        assert alloc.sum() == 30
        assert alloc.min() >= 1
        np.testing.assert_array_equal(alloc, [10, 11, 2, 2, 1, 4])

    def test_four_class_counts(self):
        alloc = allocate_test_counts([143, 95, 135, 112], 51)
        np.testing.assert_array_equal(alloc, [15, 10, 14, 12])
        assert 485 - alloc.sum() == 434

    def test_largest_remainder_within_one_of_quota(self):
        # no class quota below 1 here, so the floor never distorts the rule
        counts = np.array([37, 11, 52, 23, 97])
        alloc = allocate_test_counts(counts, 25)
        quota = 25 * counts / counts.sum()
        assert np.all(np.abs(alloc - quota) < 1.0)

    def test_floor_overrides_proportionality_for_tiny_classes(self):
        # quotas are (4.625, 1.375, 6.5, 0.375, 12.125); largest remainder
        # gives (5, 1, 7, 0, 12), then the tiny class is floored to 1 and the
        # smallest-remainder donor gives a seat back
        alloc = allocate_test_counts([37, 11, 52, 3, 97], 25)
        np.testing.assert_array_equal(alloc, [5, 1, 7, 1, 11])

    def test_too_few_test_rows(self):
        with pytest.raises(InfeasibleStratification):
            allocate_test_counts([5, 5, 5], 2)

    def test_training_side_must_keep_every_class(self):
        # a singleton class cannot appear in both halves
        with pytest.raises(InfeasibleStratification):
            allocate_test_counts([5, 1], 2)
        with pytest.raises(InfeasibleStratification):
            allocate_test_counts([4, 4], 7)

    def test_test_total_follows_the_count_rule(self):
        # a whole float is its int; numpy's slicing used to reject 4.0
        alloc = allocate_test_counts([5, 5], 4.0)
        assert alloc.tolist() == [2, 2]
        for bad in (4.5, True, 0, np.nan):
            with pytest.raises(ValueError, match="^test_total must be a positive integer"):
                allocate_test_counts([5, 5], bad)

    def test_small_class_never_overdrawn(self):
        alloc = allocate_test_counts([2, 2, 100], 50)
        assert alloc[0] == 1 and alloc[1] == 1 and alloc.sum() == 50


class TestStratifiedHoldout:
    def test_partition_is_disjoint_and_complete(self, blob_dataset):
        train, test = stratified_holdout(blob_dataset, 6, seed=9, replication_index=0)
        assert len(train) + len(test) == len(blob_dataset)
        stacked = np.vstack([train.rows, test.rows])
        assert stacked.shape == blob_dataset.rows.shape
        # every original row appears exactly once across the two halves
        original = {tuple(r) for r in blob_dataset.rows}
        assert {tuple(r) for r in stacked} == original

    def test_per_class_counts_match_plan(self, blob_dataset):
        plan = allocate_test_counts(blob_dataset.class_counts(), 6)
        _, test = stratified_holdout(blob_dataset, 6, seed=9, replication_index=0)
        np.testing.assert_array_equal(test.class_counts(), plan)
        assert test.class_counts().min() >= 1

    def test_same_seed_same_split(self, blob_dataset):
        a = stratified_holdout(blob_dataset, 6, seed=1, replication_index=3)
        b = stratified_holdout(blob_dataset, 6, seed=1, replication_index=3)
        np.testing.assert_array_equal(a[1].rows, b[1].rows)

    def test_replications_differ(self, blob_dataset):
        a = stratified_holdout(blob_dataset, 6, seed=1, replication_index=0)
        b = stratified_holdout(blob_dataset, 6, seed=1, replication_index=1)
        assert not np.array_equal(a[1].rows, b[1].rows)

    def test_seed_and_test_total_follow_the_integer_rules(self, blob_dataset):
        want = stratified_holdout(blob_dataset, 6, seed=-3, replication_index=0)
        got = stratified_holdout(blob_dataset, 6.0, seed=np.int64(-3), replication_index=0)
        assert [d.rows.tolist() for d in got] == [d.rows.tolist() for d in want]
        for seed in (1.5, True, np.nan, "1"):
            with pytest.raises(ValueError, match="^seed must be an integer, got"):
                stratified_holdout(blob_dataset, 6, seed=seed, replication_index=0)

    def test_replication_index_follows_the_integer_rule(self, blob_dataset):
        want = stratified_holdout(blob_dataset, 6, seed=1, replication_index=3)
        got = stratified_holdout(blob_dataset, 6, seed=1, replication_index=np.int64(3))
        assert [d.rows.tolist() for d in got] == [d.rows.tolist() for d in want]
        # each once gave replication 1's split
        message = "^replication_index must be an integer, got"
        for index in (1.5, True, np.True_, "1"):
            with pytest.raises(ValueError, match=message):
                stratified_holdout(blob_dataset, 6, seed=1, replication_index=index)

    def test_seeds_differ(self, blob_dataset):
        a = stratified_holdout(blob_dataset, 6, seed=1, replication_index=0)
        b = stratified_holdout(blob_dataset, 6, seed=2, replication_index=0)
        assert not np.array_equal(a[1].rows, b[1].rows)


class TestConfusion:
    def test_perfect_prediction_is_diagonal(self):
        cm = confusion_matrix([0, 1, 2, 1], [0, 1, 2, 1], 3)
        np.testing.assert_array_equal(cm, np.diag([1, 2, 1]))

    def test_single_column_when_one_class_predicted(self):
        cm = confusion_matrix([0, 1, 2], [0, 0, 0], 3)
        assert cm[:, 0].sum() == 3 and cm[:, 1:].sum() == 0

    def test_matches_hand_tally(self):
        rng = np.random.default_rng(77)
        truth = rng.integers(0, 3, size=30)
        pred = rng.integers(0, 3, size=30)
        cm = confusion_matrix(truth, pred, 3)
        for t in range(3):
            for p in range(3):
                assert cm[t, p] == sum(
                    1 for a, b in zip(truth, pred) if a == t and b == p
                )
        assert cm.sum() == 30

    @pytest.mark.parametrize(
        "truth, predicted, n_classes, bad",
        [
            ([0, -1, 1], [0, 0, 1], None, "-1"),
            ([0, 1, 1], [0, 0, -2], 2, "-2"),
            ([0, 1, 2], [0, 1, 1], 2, "2"),
            ([0, 1, 1], [0, 5, 1], 3, "5"),
        ],
    )
    def test_label_outside_classes_rejected(self, truth, predicted, n_classes, bad):
        with pytest.raises(ValueError, match=f"label {bad} is outside"):
            confusion_matrix(truth, predicted, n_classes)

    def test_sensitivity_specificity_diagonal(self):
        sens, spec = sensitivity_specificity(np.diag([3, 4, 5]))
        np.testing.assert_array_equal(sens, 1.0)
        np.testing.assert_array_equal(spec, 1.0)

    def test_two_class_hand_counts(self):
        sens, spec = sensitivity_specificity(np.array([[8, 2], [1, 9]]))
        np.testing.assert_allclose(sens, [0.8, 0.9])
        np.testing.assert_allclose(spec, [0.9, 0.8])

    def test_absent_class_reported_as_nan(self):
        cm = np.array([[5, 0, 0], [0, 0, 0], [1, 0, 4]])
        sens, _ = sensitivity_specificity(cm)
        assert np.isnan(sens[1]) and sens[0] == 1.0

    def test_stacked_matrices_match_one_at_a_time(self):
        rng = np.random.default_rng(78)
        stack = rng.integers(0, 4, size=(2, 5, 3, 3))
        stack[1, 2, 1] = 0  # an absent class gives NaN in the stack too
        sens, spec = sensitivity_specificity(stack)
        assert sens.shape == spec.shape == (2, 5, 3)
        for i in np.ndindex(2, 5):
            one_sens, one_spec = sensitivity_specificity(stack[i])
            np.testing.assert_array_equal(sens[i], one_sens)
            np.testing.assert_array_equal(spec[i], one_spec)


def duplicated_dataset():
    rng = np.random.default_rng(31)
    base = compositional_blobs(rng, (6, 6, 6), n_parts=4, floor=1e-3)
    rows = np.vstack([base.rows, base.rows])
    labels = np.concatenate([base.labels, base.labels])
    return LabeledDataset(rows, labels, base.classes)


class TestGridSearch:
    def test_twin_rows_give_perfect_accuracy(self):
        # every test row keeps an identical twin in training, so k=1 is exact
        data = duplicated_dataset()
        result = grid_search(data, [1.0], [1], "esov", B=1, test_total=6, seed=5)
        cell = result.cell(1.0, 1)
        assert cell.mean_accuracy == 100.0
        assert cell.sd_accuracy == 0.0

    def test_every_requested_cell_present(self, blob_dataset):
        result = grid_search(
            blob_dataset, [0.5, 1.0], [1, 3, 5], "tc", B=3, test_total=6, seed=1
        )
        assert len(result.cells) == 6
        assert {(c.alpha, c.k) for c in result.cells} == {
            (a, k) for a in (0.5, 1.0) for k in (1, 3, 5)
        }

    def test_accuracy_bounds_and_sd(self, blob_dataset):
        result = grid_search(
            blob_dataset, [0.5, 1.0], [1, 3], "esov", B=8, test_total=6, seed=2
        )
        for cell in result.cells:
            assert 0.0 <= cell.mean_accuracy <= 100.0
            assert cell.sd_accuracy >= 0.0
            for v in cell.sensitivity_mean + cell.specificity_mean:
                assert v is None or 0.0 <= v <= 1.0

    def test_cells_share_splits_across_grids(self, blob_dataset):
        wide = grid_search(
            blob_dataset, [0.5, 1.0], [1, 3], "esov", B=5, test_total=6, seed=3
        )
        narrow = grid_search(
            blob_dataset, [1.0], [3], "esov", B=5, test_total=6, seed=3
        )
        assert wide.split_digest == narrow.split_digest
        assert wide.cell(1.0, 3) == narrow.cell(1.0, 3)

    def test_reproducible(self, blob_dataset):
        kwargs = dict(B=6, test_total=6, seed=11)
        a = grid_search(blob_dataset, [0.5, 1.0], [1, 3], "tc", **kwargs)
        b = grid_search(blob_dataset, [0.5, 1.0], [1, 3], "tc", **kwargs)
        assert a.to_dict() == b.to_dict()

    def test_aitchison_ignores_alpha_grid(self, blob_dataset):
        result = grid_search(
            blob_dataset, [0.1, 0.9], [1, 3], "aitchison", B=2, test_total=6, seed=4
        )
        assert result.alphas is None
        assert [c.alpha for c in result.cells] == [None, None]
        assert result.cell(None, 3).mean_accuracy is not None

    def test_aitchison_cells_fail_on_zero_data_others_complete(self):
        rng = np.random.default_rng(90)
        rows = sparse_compositions(rng, 30, 5, zero_fraction=0.3)
        data = LabeledDataset(rows, np.arange(30) % 3, ("a", "b", "c"))
        for family in ("esov", "tc"):
            ok = grid_search(data, [1.0], [1, 3], family, B=2, test_total=6, seed=6)
            assert all(c.error is None for c in ok.cells)
        bad = grid_search(data, [1.0], [1, 3], "aitchison", B=2, test_total=6, seed=6)
        for cell in bad.cells:
            assert cell.error is not None and "ZeroInAitchison" in cell.error
            assert cell.mean_accuracy is None

    def test_negative_alpha_error_confined_to_its_cells(self):
        rng = np.random.default_rng(91)
        rows = sparse_compositions(rng, 30, 5, zero_fraction=0.3)
        data = LabeledDataset(rows, np.arange(30) % 3, ("a", "b", "c"))
        result = grid_search(
            data, [-0.5, 1.0], [1], "esov", B=2, test_total=6, seed=7
        )
        assert "ZeroUnderNegativePower" in result.cell(-0.5, 1).error
        assert result.cell(1.0, 1).error is None

    def test_dataset_keeps_one_prepared_entry(self):
        # zero parts, so alpha < 0 fails its cells; the dataset keeps the
        # rows of the last spec that prepared, parts-first, and a failed
        # prepare leaves that entry as it was
        rng = np.random.default_rng(91)
        rows = sparse_compositions(rng, 30, 5, zero_fraction=0.3)
        data = LabeledDataset(rows, np.arange(30) % 3, ("a", "b", "c"))
        alphas, ks = [0.5, -0.5, 1.0, -1.0], [1, 3]
        kwargs = dict(B=3, test_total=6, seed=7)
        result = grid_search(data, alphas, ks, "esov", **kwargs)
        assert [c.error is None for c in result.cells] == [True, True, False, False] * 2
        entry = data._prepared_rows
        spec, prepared = entry
        assert spec == MetricSpec("esov", 1.0)
        assert prepared.shape == (5, 30) and prepared.flags.c_contiguous
        assert not prepared.flags.writeable
        assert np.array_equal(prepared, parts_last.parts_first(spec, rows))
        grid_search(data, [-0.5], ks, "esov", **kwargs)
        assert data._prepared_rows is entry
        # each alpha alone on a fresh dataset, and the grid again on this
        # one, whose entry is filled: the same cells, bit for bit
        for alpha in alphas:
            fresh = LabeledDataset(rows, data.labels, data.classes)
            alone = grid_search(fresh, [alpha], ks, "esov", **kwargs)
            assert json.dumps([c.to_dict() for c in alone.cells]) == json.dumps(
                [c.to_dict() for c in result.cells if c.alpha == alpha]
            )
        again = grid_search(data, alphas, ks, "esov", **kwargs)
        assert json.dumps(again.to_dict()) == json.dumps(result.to_dict())

    def test_domain_errors_name_dataset_row_and_column(self, blob_dataset):
        rows = np.array(blob_dataset.rows)
        rows[17] = [0.6, 0.0, 0.25, 0.15]
        data = LabeledDataset(
            rows, blob_dataset.labels, blob_dataset.classes, ("Na", "Mg", "Al", "Si")
        )
        result = grid_search(data, [-0.5, 0.5], [1], "esov", B=3, test_total=6, seed=2)
        assert result.cell(-0.5, 1).error == (
            "ZeroUnderNegativePower: dataset row 17, column Mg is zero under alpha=-0.5"
        )
        assert result.cell(0.5, 1).error is None
        bad = grid_search(data, [1.0], [1], "aitchison", B=3, test_total=6, seed=2)
        assert bad.cells[0].error == "ZeroInAitchison: dataset row 17, column Mg is zero"
        with pytest.raises(ZeroInAitchison, match="dataset row 17, column Mg is zero"):
            loocv_scores(data, NeighborConfig(1, MetricSpec("aitchison")))

    def test_best_names_the_first_failed_cell(self):
        rng = np.random.default_rng(92)
        rows = sparse_compositions(rng, 30, 5, zero_fraction=0.3)
        data = LabeledDataset(rows, np.arange(30) % 3, ("a", "b", "c"))
        result = grid_search(data, [1.0], [1, 3], "aitchison", B=2, test_total=6, seed=6)
        first = result.cells[0].error
        assert first.startswith("ZeroInAitchison: dataset row ")
        with pytest.raises(SimplexKnnError) as caught:
            result.best()
        assert str(caught.value) == f"every grid cell failed, the first at alpha=None: {first}"
        result = grid_search(data, [-1.0, -0.5], [1], "tc", B=2, test_total=6, seed=6)
        message = r"every grid cell failed, the first at alpha=-1\.0: ZeroUnderNegativePower"
        with pytest.raises(SimplexKnnError, match=message):
            result.best()

    def test_best_picks_highest_accuracy(self, blob_dataset):
        result = grid_search(
            blob_dataset, [0.5, 1.0], [1, 3], "esov", B=4, test_total=6, seed=8
        )
        best = result.best()
        assert best.mean_accuracy == max(c.mean_accuracy for c in result.cells)

    def test_single_class_specificity_is_absent(self, blob_dataset):
        # every test row is a positive of the one class, and none a negative
        labels = np.zeros(len(blob_dataset), dtype=int)
        data = LabeledDataset(blob_dataset.rows, labels, ("only",))
        result = grid_search(data, [1.0], [1, 3], "esov", B=4, test_total=6, seed=3)
        for cell in result.cells:
            assert (cell.mean_accuracy, cell.sd_accuracy) == (100.0, 0.0)
            assert cell.sensitivity_mean == (1.0,) and cell.sensitivity_sd == (0.0,)
            assert cell.specificity_mean == (None,) and cell.specificity_sd == (None,)

    @pytest.mark.parametrize(
        "alphas, ks",
        [([1.0], [2.5]), ([1.0], [True]), ([1.0], [0]), ([1.0], []),
         ([True], [1]), ([np.nan], [1]), ([], [1])],
    )
    def test_grid_follows_the_library_alpha_and_k_rules(self, blob_dataset, alphas, ks):
        # the rules of MetricSpec and NeighborConfig: no truncation, no bools
        with pytest.raises(ValueError):
            grid_search(blob_dataset, alphas, ks, "esov", B=2, test_total=6, seed=1)

    @pytest.mark.parametrize("k", [np.inf, np.nan])
    def test_non_finite_k_gets_the_shared_message(self, blob_dataset, k):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            grid_search(blob_dataset, [1.0], [1, k], "esov", B=2, test_total=6, seed=1)

    @pytest.mark.parametrize(
        "argument, value, message",
        [
            ("B", 0, "B must be a positive integer, got 0"),
            ("B", 2.5, "B must be a positive integer, got 2.5"),
            ("test_total", True, "test_total must be a positive integer, got True"),
            ("test_total", 6.5, "test_total must be a positive integer, got 6.5"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("seed", False, "seed must be an integer, got False"),
        ],
    )
    def test_counts_and_seed_follow_the_integer_rules(
        self, blob_dataset, argument, value, message
    ):
        kwargs = dict(B=2, test_total=6, seed=1) | {argument: value}
        with pytest.raises(ValueError, match=f"^{message}$"):
            grid_search(blob_dataset, [1.0], [1], "esov", **kwargs)

    def test_whole_numbers_of_any_type_give_one_json_report(self, blob_dataset):
        # numpy integers and whole floats are reported as Python ints, so the
        # report serialises and equals the plain ints' run
        want = grid_search(blob_dataset, [1.0], [1, 3], "tc", B=3, test_total=6, seed=-2)
        for B, test_total, seed in [
            (np.int64(3), np.int64(6), np.int64(-2)),
            (3.0, 6.0, -2.0),
        ]:
            got = grid_search(
                blob_dataset, [1.0], [1, 3], "tc", B=B, test_total=test_total, seed=seed
            )
            assert all(type(v) is int for v in (got.B, got.test_total, got.seed))
            assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())

    def test_grid_dedupes_alphas_and_ks_in_order(self, blob_dataset):
        result = grid_search(
            blob_dataset, [0.0, -0.0, 0.5, 0.0], [3, 1, 3.0], "tc", B=2,
            test_total=6, seed=1,
        )
        assert result.alphas == (0.0, 0.5) and result.ks == (3, 1)
        assert all(type(c.k) is int for c in result.cells)

    @pytest.mark.parametrize("family", ["tc", "esov"])
    def test_memory_stays_below_one_square_matrix(self, family):
        # each row keeps max(ks) + test_total ranked columns, never all n
        n = 2000
        rng = np.random.default_rng(41)
        data = LabeledDataset(
            rng.dirichlet(np.ones(4), size=n), np.arange(n) % 3, ("a", "b", "c")
        )
        tracemalloc.start()
        try:
            grid_search(data, [0.5], range(1, 16), family, B=2, test_total=60, seed=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * np.dtype(float).itemsize


class TestGlassExperiment:
    """Checks against the real UCI file; skip when the user has not fetched it."""

    def test_ingested_shape(self, glass_data):
        assert len(glass_data) == 214
        assert glass_data.n_parts == 8
        assert glass_data.n_classes == 6
        assert (glass_data.rows == 0).any()  # many zero parts in this data

    def test_stratified_split_sizes(self, glass_data):
        train, test = stratified_holdout(glass_data, 30, seed=1, replication_index=0)
        assert len(train) == 184 and len(test) == 30
        assert test.class_counts().min() >= 1

    def test_aitchison_aborts_on_zeros_while_power_families_complete(self, glass_data):
        for family in ("esov", "tc"):
            ok = grid_search(glass_data, [1.0], [3], family, B=2, test_total=30, seed=1)
            assert ok.cells[0].error is None
        bad = grid_search(glass_data, [1.0], [3], "aitchison", B=2, test_total=30, seed=1)
        assert "ZeroInAitchison" in bad.cells[0].error


class TestLoocv:
    def test_rows_sum_to_one(self, blob_dataset):
        scores = loocv_scores(blob_dataset, NeighborConfig(3, MetricSpec("esov")))
        assert scores.shape == (len(blob_dataset), 3)
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-15)

    def test_twin_rows_score_own_class(self):
        data = duplicated_dataset()
        scores = loocv_scores(data, NeighborConfig(1, MetricSpec("tc")))
        np.testing.assert_array_equal(
            scores[np.arange(len(data)), data.labels], 1.0
        )

    def test_matches_per_row_holdout_oracle(self, blob_dataset):
        config = NeighborConfig(3, MetricSpec("esov", 0.5))
        scores = loocv_scores(blob_dataset, config)
        keep = np.arange(len(blob_dataset))
        for i in range(len(blob_dataset)):
            rest = blob_dataset.subset(np.delete(keep, i))
            expected = membership_scores(rest, blob_dataset.rows[i], config)
            np.testing.assert_array_equal(scores[i], expected)

    @pytest.mark.parametrize(
        "spec", [MetricSpec("esov", 0.5), MetricSpec("angular")], ids=repr
    )
    def test_every_other_row_at_k_n_minus_1(self, blob_dataset, spec):
        # row i votes on all the others: the class counts less its own label
        n = len(blob_dataset)
        scores = loocv_scores(blob_dataset, NeighborConfig(n - 1, spec))
        labels = blob_dataset.labels
        others = blob_dataset.class_counts() - (labels[:, None] == np.arange(3))
        assert scores.tolist() == (others / (n - 1)).tolist()
        message = f"k={n} exceeds {n - 1} training rows"
        with pytest.raises(InsufficientTraining, match=message):
            loocv_scores(blob_dataset, NeighborConfig(n, spec))

    def test_row_permutation_equivariance(self, blob_dataset):
        config = NeighborConfig(3, MetricSpec("tc"))
        base = loocv_scores(blob_dataset, config)
        rng = np.random.default_rng(17)
        perm = rng.permutation(len(blob_dataset))
        shuffled = blob_dataset.subset(perm)
        np.testing.assert_array_equal(loocv_scores(shuffled, config), base[perm])


class TestReplicationBlocks:
    """Replications are voted in blocks of metrics._TILE_FLOATS floats per work
    array."""

    def test_block_size_leaves_the_grid_unchanged(self, monkeypatch):
        # 1 replication per block, 3 (which does not divide B = 7), and all 7;
        # the budget also sizes the distance tiles, which change nothing either
        monkeypatch.setattr(knn, "_BLOCK_ROWS", 7)
        data = lattice_dataset(8, interior=False)
        ks, test_total, B = (4, 1, 2, 3, 7), 12, 7
        margin = evaluation._prefix_margin(len(data), test_total, max(ks), B)
        per_replication = test_total * (max(ks) + margin)
        score_block = evaluation._score_block
        blocks = []  # the replications of each block scored

        def counted(data, spec, indices, dists, tests, *rest):
            blocks.append(len(tests))
            return score_block(data, spec, indices, dists, tests, *rest)

        monkeypatch.setattr(evaluation, "_score_block", counted)
        reports = []
        for per_block in (1, 3, B):
            monkeypatch.setattr(metrics, "_TILE_FLOATS", per_block * per_replication)
            blocks.clear()
            result = grid_search(data, [0.0, 0.5, 1.0], ks, "esov", B, test_total, seed=29)
            reports.append(result.to_dict())
            assert max(blocks) == per_block  # for each alpha that scored
        assert reports[0] == reports[1] == reports[2]

    def test_memory_does_not_grow_with_the_replications(self):
        # one block of 19 replications, two blocks and twenty: each block's
        # work arrays are freed before the next is built, so the traced peak
        # grows by the per-replication outputs only, plus 8 KiB for Python
        # objects and numpy's cache of small buffers (a block's arrays kept
        # alive into the next block add about 170 KB here)
        n, ks, test_total = 214, tuple(range(1, 16)), 30
        width = max(ks) + evaluation._prefix_margin(n, test_total, max(ks), 200)
        per_block = metrics._TILE_FLOATS // (test_total * width)
        assert (width, per_block) == (26, 19)
        rng = np.random.default_rng(43)
        data = LabeledDataset(
            rng.dirichlet(np.ones(8), size=n), np.arange(n) % 6, tuple("abcdef")
        )
        spec = MetricSpec("esov", 0.5)
        rows = parts_last.parts_first(spec, data.rows)
        indices, dists = knn._nearest(rows, rows, spec, width)
        alloc = allocate_test_counts(data.class_counts(), test_total)
        members = evaluation._class_members(data)
        tests = np.stack(
            [evaluation._test_rows(members, alloc, 9, b) for b in range(20 * per_block)]
        )
        peaks, sizes = [], []
        for B in (per_block, 2 * per_block, 20 * per_block):
            tracemalloc.start()
            try:
                stats = evaluation._replication_stats(
                    data, spec, indices, dists, tests[:B], ks
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            sizes.append(sum(a.nbytes for a in stats))
        for peak, size in zip(peaks[1:], sizes[1:]):
            assert peak - peaks[0] <= size - sizes[0] + 8 * 1024
