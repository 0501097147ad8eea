"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen. The forensic-glass criteria need the UCI glass file (never bundled;
see README); they skip cleanly when it is absent. The hydrochemical
reproduction is optional and runs only when SIMPLEXKNN_HYDROCHEM points at a
user-supplied CSV.
"""

import json
import os
import time
from collections import Counter

import numpy as np
import pytest

from simplexknn import (
    MetricSpec,
    NeighborConfig,
    ZeroInAitchison,
    aitchison_distance,
    auc,
    classify,
    closure,
    distance,
    esov_alpha_distance,
    esov_distance,
    grid_search,
    ingest_csv,
    loocv_scores,
    perturb,
    roc_curve,
    taxicab_alpha_distance,
    taxicab_distance,
)
from simplexknn.cli import main as cli_main
from simplexknn.loci import distance_field
from simplexknn.simplex import barycentre

from conftest import (
    GLASS_MISSING,
    compositional_blobs,
    materialize_glass_csv,
    positive_compositions,
    sparse_compositions,
)

GLASS_SEED = 20260808
# reference mean accuracies for the glass benchmark (alpha=1, k in {2, 3},
# B=200, 30 test rows); the band absorbs the ~8-point replication sd
GLASS_ESOV_TARGET = 71.45
GLASS_TC_TARGET = 73.35
GLASS_TOLERANCE = 4.0


def _verdict(num, ok, detail):
    print(f"\n[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _skip(num, why):
    print(f"\n[criterion {num:>2}] SKIP: {why}")
    pytest.skip(why)


def _glass_dataset(tmp_dir):
    csv_path = materialize_glass_csv(tmp_dir)
    if csv_path is None:
        return None, None
    return csv_path, ingest_csv(csv_path, "Type", drop_columns=("Id", "RI"))


AXIOM_SPECS = [
    MetricSpec("esov", 0.25),
    MetricSpec("esov", 0.5),
    MetricSpec("esov", 1.0),
    MetricSpec("tc", 0.25),
    MetricSpec("tc", 0.5),
    MetricSpec("tc", 1.0),
    MetricSpec("aitchison"),
    MetricSpec("hellinger"),
]


def test_criterion_01_metric_axioms():
    started = time.monotonic()
    n_triples = 10_000
    worst_triangle = 0.0
    for spec_no, spec in enumerate(AXIOM_SPECS):
        for n_parts in range(3, 11):
            rng = np.random.default_rng((1_000_003, spec_no, n_parts))
            x = positive_compositions(rng, n_triples, n_parts)
            y = positive_compositions(rng, n_triples, n_parts)
            z = positive_compositions(rng, n_triples, n_parts)
            dxy = distance(spec, x, y)
            assert np.array_equal(dxy, distance(spec, y, x)), (spec, n_parts)
            assert np.all(np.abs(distance(spec, x, x)) <= 1e-14), (spec, n_parts)
            assert np.all(dxy >= 0.0), (spec, n_parts)
            slack = np.max(distance(spec, x, z) - dxy - distance(spec, y, z))
            worst_triangle = max(worst_triangle, float(slack))
            assert slack <= 1e-12, (spec, n_parts, slack)
    elapsed = time.monotonic() - started
    _verdict(
        1,
        elapsed < 60.0,
        f"symmetry exact, identity<=1e-14, non-negativity and triangle "
        f"(worst slack {worst_triangle:.2e}) over {n_triples} triples x "
        f"D in 3..10 x {len(AXIOM_SPECS)} metrics in {elapsed:.1f}s",
    )


def test_criterion_02_reduction_identities():
    rng = np.random.default_rng(2_000_003)
    x = positive_compositions(rng, 1000, 6)
    w = positive_compositions(rng, 1000, 6)
    gap_esov = np.max(np.abs(esov_alpha_distance(x, w, 1.0) - esov_distance(x, w)))
    gap_tc = np.max(
        np.abs(taxicab_alpha_distance(x, w, 1.0) - taxicab_distance(x, w))
    )
    _verdict(
        2,
        gap_esov <= 1e-12 and gap_tc <= 1e-12,
        f"alpha=1 reductions over 1000 pairs: esov gap {gap_esov:.2e}, "
        f"tc gap {gap_tc:.2e} (<= 1e-12)",
    )


def test_criterion_03_alpha_to_zero_limit():
    rng = np.random.default_rng(3_000_017)
    x = positive_compositions(rng, 1000, 5)
    w = positive_compositions(rng, 1000, 5)
    worst = max(
        float(np.max(esov_alpha_distance(x, w, 1e-8))),
        float(np.max(taxicab_alpha_distance(x, w, 1e-8))),
    )
    _verdict(3, worst <= 1e-6, f"distances at alpha=1e-8 peak at {worst:.2e} (<= 1e-6)")


def test_criterion_04_zero_semantics():
    rng = np.random.default_rng(4_000_037)
    x = sparse_compositions(rng, 500, 6, zero_fraction=0.4)
    w = sparse_compositions(rng, 500, 6, zero_fraction=0.4)
    # make sure the 0 log 0 branch is genuinely exercised
    shared_zero = np.any((x == 0) & (w == 0))
    one_sided_zero = np.any((x == 0) & (w > 0))
    d_esov = esov_distance(x, w)
    d_tc = taxicab_distance(x, w)
    finite = bool(np.all(np.isfinite(d_esov)) and np.all(np.isfinite(d_tc)))
    degenerate = 0
    for i in range(len(x)):
        if np.any(x[i] == 0) or np.any(w[i] == 0):
            with pytest.raises(ZeroInAitchison):
                aitchison_distance(x[i], w[i])
            degenerate += 1
    _verdict(
        4,
        finite and shared_zero and one_sided_zero and degenerate > 0,
        f"esov/tc finite on 500 zero-containing pairs (shared and one-sided "
        f"zeros present); log-ratio distance degenerate on all {degenerate} "
        f"zero-containing pairs",
    )


def test_criterion_05_invariance_suite():
    rng = np.random.default_rng(5_000_011)
    v = rng.gamma(2.0, size=(1000, 5)) + 1e-3
    w = rng.gamma(2.0, size=(1000, 5)) + 1e-3
    specs = AXIOM_SPECS + [MetricSpec("angular")]
    # scale invariance: powers of two rescale the stored bits exactly, so
    # closure(c*v) == closure(v) bitwise and every distance is unchanged
    for c in (2.0, 0.5, 1024.0, 2.0**-9):
        assert np.array_equal(closure(c * v), closure(v))
        for spec in specs:
            assert np.array_equal(
                distance(spec, closure(c * v), closure(c * w)),
                distance(spec, closure(v), closure(w)),
            ), spec
    # arbitrary positive scalars agree to floating-point quantisation
    for c in (100.0, 3.7):
        for spec in specs:
            drift = np.max(
                np.abs(
                    distance(spec, closure(c * v), closure(c * w))
                    - distance(spec, closure(v), closure(w))
                )
            )
            assert drift <= 1e-12, (spec, drift)
    # perturbation invariance of the log-ratio distance
    x = positive_compositions(rng, 1000, 5)
    y = positive_compositions(rng, 1000, 5)
    p = rng.uniform(0.1, 10.0, size=(1000, 5))
    gap = np.max(
        np.abs(aitchison_distance(perturb(x, p), perturb(y, p))
               - aitchison_distance(x, y))
    )
    _verdict(
        5,
        gap <= 1e-10,
        f"scale invariance exact under machine-exact rescaling and <=1e-12 "
        f"otherwise; log-ratio perturbation invariance gap {gap:.2e} "
        f"(<= 1e-10) over 1000 triples",
    )


def _oracle_winner(dists, labels, k):
    order = sorted(range(len(dists)), key=lambda j: (dists[j], j))[:k]
    votes = Counter(int(labels[j]) for j in order)
    top = max(votes.values())
    best = None
    for cls in sorted(votes):
        if votes[cls] != top:
            continue
        pooled = sum(dists[j] for j in order if labels[j] == cls)
        if best is None or (pooled, cls) < best:
            best = (pooled, cls)
    return best[1]


def test_criterion_06_knn_oracle_equivalence():
    rng = np.random.default_rng(6_000_029)
    specs = [MetricSpec(f, a) for f in ("esov", "tc") for a in (0.5, 1.0)]
    checked = 0
    for trial in range(100):
        n_classes = int(rng.integers(2, 5))
        n_parts = int(rng.integers(3, 7))
        sizes = rng.integers(4, 13, size=n_classes)
        data = compositional_blobs(rng, sizes, n_parts, floor=1e-3)
        if trial % 2 == 0:  # half the datasets carry exact zeros
            rows = np.array(data.rows)
            mask = rng.random(rows.shape) < 0.2
            mask[np.arange(len(rows)), rows.argmax(axis=1)] = False
            rows[mask] = 0.0
            data = type(data)(closure(rows), data.labels, data.classes)
        queries = rng.dirichlet(np.ones(n_parts), size=5)
        for spec in specs:
            for q in queries:
                dists = [float(distance(spec, q, row)) for row in data.rows]
                for k in range(1, 8):
                    got = classify(data, q, NeighborConfig(k, spec))
                    want = _oracle_winner(dists, data.labels, k)
                    assert got == want, (trial, spec, k)
                    checked += 1
    _verdict(
        6,
        checked == 100 * 4 * 5 * 7,
        f"classify equals the full-sort oracle on {checked} "
        f"(dataset, metric, query, k) combinations, exact match",
    )


def test_criterion_07_glass_reproduction(tmp_path):
    _, data = _glass_dataset(tmp_path)
    if data is None:
        _skip(7, GLASS_MISSING)
    started = time.monotonic()
    outcomes = {}
    for family, target in (("esov", GLASS_ESOV_TARGET), ("tc", GLASS_TC_TARGET)):
        result = grid_search(
            data, [1.0], [2, 3], family, B=200, test_total=30, seed=GLASS_SEED
        )
        accs = {k: result.cell(1.0, k).mean_accuracy for k in (2, 3)}
        outcomes[family] = (target, accs)
    elapsed = time.monotonic() - started
    ok = all(
        any(abs(acc - target) <= GLASS_TOLERANCE for acc in accs.values())
        for target, accs in outcomes.values()
    )
    detail = "; ".join(
        f"{fam}: k2={accs[2]:.2f}%, k3={accs[3]:.2f}% vs {target}% +-4"
        for fam, (target, accs) in outcomes.items()
    )
    _verdict(7, ok, f"{detail} (B=200, test 30, {elapsed:.1f}s)")


def test_criterion_08_hydrochemical_reproduction():
    path = os.environ.get("SIMPLEXKNN_HYDROCHEM")
    if not path:
        _skip(8, "optional: set SIMPLEXKNN_HYDROCHEM to the hydrochemical CSV")
    label = os.environ.get("SIMPLEXKNN_HYDROCHEM_LABEL", "tributary")
    data = ingest_csv(path, label, drop_columns=())
    checks = []
    for family, alphas, target in (
        ("esov", [0.5], 92.78),
        ("tc", [0.35], 93.77),
        ("aitchison", [1.0], 85.46),
    ):
        result = grid_search(
            data, alphas, [2], family, B=200, test_total=51, seed=GLASS_SEED
        )
        acc = result.cells[0].mean_accuracy
        checks.append((family, acc, target, abs(acc - target) <= 4.0))
    _verdict(
        8,
        all(c[3] for c in checks),
        "; ".join(f"{f}: {a:.2f}% vs {t}% +-4" for f, a, t, _ in checks),
    )


def test_criterion_09_roc_properties(tmp_path):
    # synthetic scorers give the exact extreme areas
    perfect = np.array([[1.0, 0.0]] * 5 + [[0.0, 1.0]] * 5)
    flat = np.full((10, 2), 0.5)
    truth = np.array([0] * 5 + [1] * 5)
    assert auc(roc_curve(perfect, truth, 0, k=1)) == 1.0
    assert auc(roc_curve(flat, truth, 0, k=2)) == 0.5
    synthetic = "synthetic perfect/diagonal scorers give AUC 1.0/0.5 exactly"

    _, data = _glass_dataset(tmp_path)
    if data is None:
        print(f"\n[criterion  9] PASS (partial): {synthetic}")
        _skip(9, "glass part skipped: " + GLASS_MISSING)
    worst_auc = 1.0
    curves = 0
    for family in ("esov", "tc"):
        scores = loocv_scores(data, NeighborConfig(3, MetricSpec(family, 1.0)))
        for cls in range(data.n_classes):
            curve = roc_curve(scores, data.labels, cls, k=3)
            assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
            assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
            assert np.all(np.diff(curve.fpr) >= 0)
            assert np.all(np.diff(curve.tpr) >= 0)
            area = auc(curve)
            worst_auc = min(worst_auc, area)
            assert 0.45 <= area <= 1.0, (family, cls, area)
            curves += 1
    _verdict(
        9,
        curves == 12,
        f"{synthetic}; {curves} glass LOOCV curves monotone with corner "
        f"endpoints, min AUC {worst_auc:.3f} in [0.45, 1]",
    )


def _run_glass_tune(csv_path, out_path, seed):
    rc = cli_main(
        [
            "tune",
            "--input", str(csv_path),
            "--label-column", "Type",
            "--drop", "Id",
            "--family", "esov",
            "--alphas", "1",
            "--k", "2,3",
            "--B", "200",
            "--test-n", "30",
            "--seed", str(seed),
            "--output", str(out_path),
        ]
    )
    assert rc == 0
    return json.loads(out_path.read_text())


def test_criterion_10_determinism(tmp_path):
    csv_path, data = _glass_dataset(tmp_path)
    if data is None:
        _skip(10, GLASS_MISSING)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    _run_glass_tune(csv_path, a, GLASS_SEED)
    _run_glass_tune(csv_path, b, GLASS_SEED)
    identical = a.read_bytes() == b.read_bytes()
    other = _run_glass_tune(csv_path, c, GLASS_SEED + 1)
    first = json.loads(a.read_text())
    spread = max(
        abs(ca["mean_accuracy"] - cb["mean_accuracy"])
        for ca, cb in zip(first["result"]["cells"], other["result"]["cells"])
    )
    _verdict(
        10,
        identical and spread <= 3.0,
        f"same seed byte-identical: {identical}; across seeds the tuned cells "
        f"move by at most {spread:.2f} points (<= 3)",
    )


def test_criterion_11_loci_symmetry():
    n = 30
    specs = [MetricSpec("esov", a) for a in (-0.5, 0.5, 1.0)]
    specs += [MetricSpec("tc", a) for a in (-0.5, 0.5, 1.0)]
    specs += [MetricSpec("aitchison")]
    worst = 0.0
    for spec in specs:
        field = distance_field(spec, barycentre(3), n)
        by_key = {
            tuple(round(p * n) for p in parts): v
            for parts, v in zip(field.parts.tolist(), field.values)
        }
        for (i, j, l), value in by_key.items():
            for perm in ((i, l, j), (j, i, l), (j, l, i), (l, i, j), (l, j, i)):
                gap = abs(by_key[perm] - value)
                worst = max(worst, gap)
                assert gap <= 1e-12, (spec, (i, j, l), perm, gap)
    _verdict(
        11,
        worst <= 1e-12,
        f"fields invariant under all 6 lattice permutations for "
        f"{len(specs)} metric settings, worst gap {worst:.2e} (<= 1e-12)",
    )
