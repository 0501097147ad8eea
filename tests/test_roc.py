import numpy as np
import pytest

from simplexknn import (
    MetricSpec,
    NeighborConfig,
    RocCurve,
    UndefinedRoc,
    auc,
    loocv_scores,
    roc_curve,
)


def one_vs_rest_scores(values):
    """Two-class score matrix from class-0 membership values."""
    v = np.asarray(values, dtype=float)
    return np.column_stack([v, 1.0 - v])


class TestRocCurve:
    def test_perfect_scorer_hits_top_left_corner(self):
        scores = one_vs_rest_scores([1, 1, 1, 0, 0])
        truth = [0, 0, 0, 1, 1]
        curve = roc_curve(scores, truth, 0, k=1)
        assert (0.0, 1.0) in set(zip(curve.fpr, curve.tpr))
        assert auc(curve) == 1.0

    def test_constant_scorer_is_diagonal(self):
        scores = one_vs_rest_scores([0.5, 0.5, 0.5, 0.5])
        truth = [0, 0, 1, 1]
        curve = roc_curve(scores, truth, 0, k=2)
        assert set(zip(curve.fpr, curve.tpr)) == {(0.0, 0.0), (1.0, 1.0)}
        assert auc(curve) == 0.5

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(5)
        k = 5
        scores = one_vs_rest_scores(rng.integers(0, k + 1, size=40) / k)
        truth = rng.integers(0, 2, size=40)
        for cls in (0, 1):
            curve = roc_curve(scores, truth, cls, k=k)
            assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
            assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
            assert np.all(np.diff(curve.fpr) >= 0)
            assert np.all(np.diff(curve.tpr) >= 0)
            assert np.all(np.array(curve.fpr) >= 0) and np.all(np.array(curve.fpr) <= 1)

    def test_threshold_levels_for_k(self):
        scores = one_vs_rest_scores([0.0, 1 / 3, 2 / 3, 1.0])
        truth = [1, 1, 0, 0]
        curve = roc_curve(scores, truth, 0, k=3)
        assert curve.thresholds == (2.0, 1.0, 2 / 3, 1 / 3, 0.0)

    def test_thresholds_inferred_without_k(self):
        scores = one_vs_rest_scores([0.0, 0.5, 1.0, 0.5])
        truth = [1, 0, 0, 1]
        curve = roc_curve(scores, truth, 0)
        assert curve.thresholds == (2.0, 1.0, 0.5, 0.0)

    def test_lower_threshold_never_lowers_rates(self):
        rng = np.random.default_rng(6)
        scores = one_vs_rest_scores(rng.random(60).round(1))
        truth = rng.integers(0, 2, size=60)
        curve = roc_curve(scores, truth, 0)
        # thresholds descend while both rates ascend
        assert np.all(np.diff(curve.thresholds) <= 0)
        assert np.all(np.diff(curve.fpr) >= 0) and np.all(np.diff(curve.tpr) >= 0)

    def test_single_class_is_undefined(self):
        scores = one_vs_rest_scores([1.0, 1.0])
        with pytest.raises(UndefinedRoc):
            roc_curve(scores, [0, 0], 0, k=1)

    # the NeighborConfig rule: no truncation of 2.5, no bool as 1
    @pytest.mark.parametrize("k", [0, -1, 2.5, True])
    def test_k_below_one_rejected(self, k):
        scores = one_vs_rest_scores([0.0, 1.0])
        with pytest.raises(ValueError, match="k must be a positive integer"):
            roc_curve(scores, [1, 0], 0, k=k)

    @pytest.mark.parametrize("k", [np.inf, np.nan])
    def test_non_finite_k_rejected(self, k):
        scores = one_vs_rest_scores([0.0, 1.0])
        with pytest.raises(ValueError, match="k must be a positive integer"):
            roc_curve(scores, [1, 0], 0, k=k)


class TestAuc:
    def test_two_point_diagonal(self):
        curve = RocCurve(0, (0.0, 1.0), (0.0, 1.0), (2.0, 0.0))
        assert auc(curve) == 0.5

    def test_perfect_polyline(self):
        curve = RocCurve(0, (0.0, 0.0, 1.0), (0.0, 1.0, 1.0), (2.0, 1.0, 0.0))
        assert auc(curve) == 1.0

    def test_hand_built_trapezoids(self):
        # (0,0)->(0.25,0.7)->(0.5,0.9)->(1,1): areas 0.0875 + 0.2 + 0.475
        curve = RocCurve(
            0, (0.0, 0.25, 0.5, 1.0), (0.0, 0.7, 0.9, 1.0), (2.0, 1.0, 0.5, 0.0)
        )
        assert abs(auc(curve) - 0.7625) < 1e-15


def test_roc_from_loocv_scores(blob_dataset):
    k = 3
    scores = loocv_scores(blob_dataset, NeighborConfig(k, MetricSpec("esov")))
    for cls in range(blob_dataset.n_classes):
        curve = roc_curve(scores, blob_dataset.labels, cls, k=k)
        value = auc(curve)
        assert 0.0 <= value <= 1.0
        # the blobs are separable, so every class should beat a coin flip
        assert value > 0.5
