"""The shared-split engine against explicit per-replication and per-row paths.

The engine ranks every row once per alpha and filters the ranking down to
each replication's training columns; the references below redo every split
from scratch. Tie-heavy data (lattice points, a duplicated block, alpha 0
collapsing rows onto one point) makes any change in neighbour order or vote
order visible, so results are compared with ==, never with a tolerance.
"""

import numpy as np
import pytest

from simplexknn import (
    LabeledDataset,
    MetricSpec,
    NeighborConfig,
    confusion_matrix,
    grid_search,
    loocv_scores,
    pairwise_distances,
    sensitivity_specificity,
    stratified_holdout,
)
from simplexknn import knn

N_CLASSES = 3


def _mean_sd(values):
    """NaN-aware mean and sample sd of one column of replications."""
    good = values[~np.isnan(values)]
    if good.size == 0:
        return None, None
    mean = float(good.mean())
    sd = float(good.std(ddof=1)) if good.size > 1 else 0.0
    return mean, sd


def lattice_dataset(resolution, interior):
    """Ternary lattice points plus a duplicated block with shifted labels."""
    lo = 1 if interior else 0
    points = [
        (i, j, resolution - i - j)
        for i in range(lo, resolution + 1)
        for j in range(lo, resolution + 1 - i)
        if resolution - i - j >= lo
    ]
    rows = np.array(points, dtype=float) / resolution
    labels = np.array([(i + 2 * j) % N_CLASSES for i, j, _ in points])
    dup = np.arange(0, len(points), 3)
    rows = np.vstack([rows, rows[dup]])
    labels = np.concatenate([labels, (labels[dup] + 1) % N_CLASSES])
    data = LabeledDataset(rows, labels, ("a", "b", "c"), ("c1", "c2", "c3"))
    assert len(data) > knn._BLOCK_ROWS  # more than one block of query rows
    return data


@pytest.fixture(autouse=True)
def small_tiles(monkeypatch):
    """7 x 5 tiles of 3-part rows, so the 48- and 60-row datasets here span many."""
    monkeypatch.setattr(knn, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(knn, "_TILE_FLOATS", 7 * 5 * 3)


def reference_vote(dists, neighbours, labels):
    """Majority, then smaller distance sum, then lower class index."""
    counts = [0] * N_CLASSES
    sums = [0.0] * N_CLASSES
    for j in neighbours:
        counts[labels[j]] += 1
        sums[labels[j]] += dists[j]
    top = max(counts)
    return min((sums[c], c) for c in range(N_CLASSES) if counts[c] == top)[1]


def reference_cells(data, alpha, ks, family, B, test_total, seed):
    """Grid cells of one alpha, classifying every replication separately."""
    spec = MetricSpec(family) if alpha is None else MetricSpec(family, alpha)
    acc = np.empty((B, len(ks)))
    sens = np.empty((B, len(ks), N_CLASSES))
    spc = np.empty((B, len(ks), N_CLASSES))
    for b in range(B):
        train, test = stratified_holdout(data, test_total, seed, b)
        dist = pairwise_distances(train, test.rows, spec)
        order = np.argsort(dist, axis=1, kind="stable")
        for ki, k in enumerate(ks):
            winners = np.array([
                reference_vote(dist[i], order[i, :k], train.labels)
                for i in range(len(test))
            ])
            acc[b, ki] = 100.0 * np.mean(winners == test.labels)
            cm = confusion_matrix(test.labels, winners, N_CLASSES)
            sens[b, ki], spc[b, ki] = sensitivity_specificity(cm)
    cells = []
    for ki, k in enumerate(ks):
        sens_stats = [_mean_sd(sens[:, ki, c]) for c in range(N_CLASSES)]
        spec_stats = [_mean_sd(spc[:, ki, c]) for c in range(N_CLASSES)]
        cells.append({
            "alpha": alpha,
            "k": k,
            "mean_accuracy": _mean_sd(acc[:, ki])[0],
            "sd_accuracy": _mean_sd(acc[:, ki])[1],
            "sensitivity_mean": [s[0] for s in sens_stats],
            "sensitivity_sd": [s[1] for s in sens_stats],
            "specificity_mean": [s[0] for s in spec_stats],
            "specificity_sd": [s[1] for s in spec_stats],
            "error": None,
        })
    return cells


# unsorted on purpose: every k is read from the same prefix sums
KS = (4, 1, 2, 3, 7)
ALPHAS = (0.0, 0.5, 1.0, 2.0)


@pytest.mark.parametrize("family", ["esov", "tc"])
def test_power_families_match_per_replication_path(family):
    data = lattice_dataset(8, interior=False)
    kwargs = dict(B=6, test_total=12, seed=19)
    result = grid_search(data, ALPHAS, KS, family, **kwargs)
    expected = []
    for alpha in ALPHAS:
        expected += reference_cells(data, alpha, KS, family, **kwargs)
    assert [c.to_dict() for c in result.cells] == expected


@pytest.mark.parametrize("family", ["aitchison", "hellinger", "angular"])
def test_alpha_free_families_match_per_replication_path(family):
    # the alpha grid is ignored: one alpha=None column
    data = lattice_dataset(10, interior=True)
    kwargs = dict(B=6, test_total=12, seed=23)
    result = grid_search(data, [0.5], KS, family, **kwargs)
    assert result.alphas is None
    expected = reference_cells(data, None, KS, family, **kwargs)
    assert [c.to_dict() for c in result.cells] == expected


@pytest.mark.parametrize(
    "spec",
    [MetricSpec("esov", a) for a in ALPHAS]
    + [MetricSpec("tc", a) for a in ALPHAS]
    + [MetricSpec("hellinger"), MetricSpec("angular")],
    ids=repr,
)
def test_loocv_matches_leave_one_row_out_loop(spec):
    data = lattice_dataset(8, interior=False)
    keep = np.arange(len(data))
    for k in (1, 2, 5):
        scores = loocv_scores(data, NeighborConfig(k, spec))
        for i in range(len(data)):
            rest = data.subset(np.delete(keep, i))
            dist = pairwise_distances(rest, data.rows[i], spec)
            nearest = np.argsort(dist, kind="stable")[:k]
            counts = np.bincount(rest.labels[nearest], minlength=N_CLASSES)
            assert scores[i].tolist() == (counts / k).tolist()
