"""The shared-split engine against explicit per-replication and per-row paths.

The engine ranks every row once per alpha and filters the ranking down to
each replication's training columns; the references below redo every split
from scratch. Tie-heavy data (lattice points, a duplicated block, alpha 0
collapsing rows onto one point) makes any change in neighbour order or vote
order visible, so results are compared with ==, never with a tolerance.
"""

import logging
import re

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
from simplexknn import evaluation, knn
from conftest import compositional_blobs
from reference import _mean_sd  # NaN-aware mean and sample sd of a column

N_CLASSES = 3


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
    """7 x 5 tiles of 3-part rows, so the 48- and 60-row datasets here span many.

    A dataset ranked against itself is pruned, whatever its size and kmax,
    in 7-row blocks too.
    """
    monkeypatch.setattr(knn, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(knn, "_WALK_ROWS", 7)
    monkeypatch.setattr(knn, "_TILE_FLOATS", 7 * 5 * 3)
    monkeypatch.setattr(knn, "_PRUNE_ROWS", 0)
    monkeypatch.setattr(knn, "_PRUNE_SHARE", 1)


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


PREFIX = re.compile(
    r"tune prefix: (\d+) columns, (\d+) of (\d+) \(row, replication\) pairs"
)


def prefix_records(caplog):
    """(columns, ranked again, pairs) of each tune prefix record."""
    found = [PREFIX.match(r.getMessage()) for r in caplog.records]
    return [tuple(map(int, f.groups())) for f in found if f]


def fixed_margin(monkeypatch, margin):
    """Every grid keeps max(ks) + margin columns."""
    monkeypatch.setattr(evaluation, "_prefix_margin", lambda n, t, kmax, B: margin)


# unsorted on purpose: every k is read from the same prefix sums
KS = (4, 1, 2, 3, 7)
ALPHAS = (0.0, 0.5, 1.0, 2.0)


@pytest.mark.parametrize("family", ["esov", "tc"])
def test_power_families_match_per_replication_path(monkeypatch, family):
    data = lattice_dataset(8, interior=False)
    kwargs = dict(B=6, test_total=12, seed=19)
    expected = []
    for alpha in ALPHAS:
        expected += reference_cells(data, alpha, KS, family, **kwargs)
    result = grid_search(data, ALPHAS, KS, family, **kwargs)
    assert [c.to_dict() for c in result.cells] == expected
    # margin 0: nearly every test row is short and ranked again
    fixed_margin(monkeypatch, 0)
    result = grid_search(data, ALPHAS, KS, family, **kwargs)
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


@pytest.mark.parametrize(
    "family, alphas, data",
    [
        ("esov", ALPHAS, "lattice"),
        ("tc", ALPHAS, "lattice"),
        ("hellinger", [1.0], "interior"),
        ("angular", [1.0], "interior"),
        ("aitchison", [1.0], "interior"),
        ("esov", (0.5, 1.0), "blobs"),
    ],
    ids=["esov", "tc", "hellinger", "angular", "aitchison", "esov-blobs"],
)
def test_short_prefixes_ranked_again_match_the_full_prefix(
    monkeypatch, caplog, family, alphas, data
):
    # margins 0 and 1 leave most test rows short of max(ks) training columns,
    # so the fallback ranks them again; the grid must not change by a bit
    if data == "blobs":
        data = compositional_blobs(np.random.default_rng(5), (20, 18, 16), n_parts=4)
    else:
        data = lattice_dataset(8 if data == "lattice" else 10, data == "interior")
    kwargs = dict(B=6, test_total=12, seed=19)
    caplog.set_level(logging.DEBUG, logger="simplexknn")
    reports, again = [], []
    for margin in (kwargs["test_total"], 0, 1):  # the full prefix first
        fixed_margin(monkeypatch, margin)
        caplog.clear()
        reports.append(grid_search(data, alphas, KS, family, **kwargs).to_dict())
        again.append([short for _, short, _ in prefix_records(caplog)])
    assert reports[0] == reports[1] == reports[2]
    assert all(a == 0 for a in again[0])
    assert all(a > 0 for a in again[1] + again[2])


def test_one_prefix_record_per_scored_alpha(caplog):
    # alpha -0.5 meets the lattice's zero parts and fails; the others score
    data = lattice_dataset(8, interior=False)
    caplog.set_level(logging.DEBUG, logger="simplexknn")
    alphas = (-0.5, 0.5, 1.0)
    result = grid_search(data, alphas, KS, "esov", B=6, test_total=12, seed=19)
    assert [c.error is None for c in result.cells[:: len(KS)]] == [False, True, True]
    margin = evaluation._prefix_margin(len(data), 12, max(KS), 6)
    assert prefix_records(caplog) == [(max(KS) + margin, 0, 6 * 12)] * 2


def test_prefix_margin():
    # tune-paper's shape: 214 rows, 30 test rows, ks up to 15, B = 200
    assert evaluation._prefix_margin(214, 30, 15, 200) == 11
    assert evaluation._prefix_margin(214, 30, 15, 1) < 11
    assert evaluation._prefix_margin(3000, 300, 15, 50) == 10
    # the margin never passes test_total, which no row is short of
    assert evaluation._prefix_margin(12, 10, 1, 1000) == 10
