"""Every command against bench/reference.py, on seeded tie-heavy datasets.

bench/reference.py restates each documented contract without the package:
ingest and closure, the power transform, the five kernels, the (distance,
row index) neighbour order, the vote tie rules, the seeded split and the
report. Here tune, roc, transform, loci and dist run through cli.main on
small random datasets made so that any slip in those rules shows: 2 to 9
parts, up to half the parts zero, duplicate rows, small whole amounts whose
closed rows tie at the k-th neighbour, and a class of two rows. Results
must equal the reference's, float for float and byte for byte, for every
family and every alpha in ALPHAS. Where the reference's domain rule rejects
the input (a zero part under aitchison or a negative alpha), the command
must fail and write nothing. One lattice dataset of 1,000 rows makes the
LOOCV walk prune.
"""

import csv
import functools
import io
import json
import logging
from dataclasses import dataclass

import numpy as np
import pytest

import digests
import reference
from simplexknn import dataset, knn
from simplexknn.cli import main
from test_walk import walk_records

LABEL = "kind"
ALPHAS = (-1.0, -0.5, 0.0, 0.5, 1.0)
FAMILIES = ("esov", "tc", "aitchison", "hellinger", "angular")
# every alpha for the power families, the fixed 1 for the others
SPECS = [(f, a) for f in reference.POWER_FAMILIES for a in ALPHAS] + [
    (f, 1.0) for f in FAMILIES if f not in reference.POWER_FAMILIES
]
CLASS_NAMES = ("glass 1", "b,2", "x-y", "3")
B = 5
BLOCK = 7  # rows transform reads at a time in test_transform

# name -> (seed, parts, share of parts set to zero, label column position);
# the first has an RI column, which ingestion drops by default
DATASETS = {
    "2 parts": (11, 2, 0.0, 0),
    "3 parts, zeros": (12, 3, 0.5, 3),
    "3 parts": (13, 3, 0.0, 1),
    "5 parts, zeros": (14, 5, 0.25, 2),
    "7 parts, zeros": (15, 7, 0.1, 7),
    "9 parts": (16, 9, 0.0, 4),
}


@dataclass(frozen=True)
class Case:
    text: str  # the CSV file
    rows: np.ndarray  # as the reference reads them: closed
    names: list
    ks: tuple  # the tune grid, ascending
    k: int  # roc's
    test_total: int
    seed: int

    def write(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(self.text, encoding="utf-8", newline="")
        return path

    def rejects(self, family, alpha) -> bool:
        """Whether the reference's domain rule rejects these rows."""
        return reference.needs_positive(family, alpha) and bool((self.rows == 0).any())


def csv_text(rows, labels, label_at, ri=None) -> str:
    """A CSV of whole amounts as integers, other parts as repr, labels quoted
    where csv needs it."""
    header = [f"p{j}" for j in range(rows.shape[1])]
    records = [[str(int(v)) if v.is_integer() else repr(v) for v in row]
               for row in rows.tolist()]
    header.insert(label_at, LABEL)
    for record, label in zip(records, labels):
        record.insert(label_at, CLASS_NAMES[label])
    if ri is not None:
        header.insert(0, "RI")
        for record, value in zip(records, ri.tolist()):
            record.insert(0, repr(value))
    out = io.StringIO(newline="")
    csv.writer(out).writerows([header] + records)
    return out.getvalue()


def feasible_test_total(labels, rng) -> int:
    """A test size whose largest-remainder allocation gives every class a
    row on each side without clamping, which the reference leaves out."""
    counts = np.bincount(labels)
    for total in rng.permutation(np.arange(counts.size, labels.size // 2)):
        try:
            reference.allocate(counts, int(total))
        except ValueError:
            continue
        return int(total)
    raise AssertionError("no test size needs no clamping")


@functools.cache
def case(name) -> Case:
    seed, parts, zero_share, label_at = DATASETS[name]
    rng = np.random.default_rng(seed)
    n = int(rng.integers(24, 49))
    # half the rows are small whole amounts, so closed rows coincide and
    # distances tie; the rest are continuous
    amounts = rng.integers(0 if zero_share else 1, 4, size=(n, parts)).astype(float)
    smooth = rng.dirichlet(np.ones(parts), size=n)
    rows = np.where(rng.random((n, 1)) < 0.5, amounts, smooth)
    rows[rng.random((n, parts)) < zero_share] = 0.0
    empty = np.flatnonzero(~rows.any(axis=1))
    rows[empty, rng.integers(0, parts, empty.size)] = 1.0
    copies = rng.choice(n, n // 5, replace=False)
    rows[copies] = rows[rng.choice(n, n // 5)]  # exact duplicates
    # no zero in the first block that test_transform reads, so a rejected
    # row is named by its place in the file, past that block
    rows[:BLOCK][rows[:BLOCK] == 0] = 1.0
    # one class of two rows, the others about equal, in shuffled order
    n_classes = int(rng.integers(2, len(CLASS_NAMES) + 1))
    labels = np.concatenate([[0, 0], rng.integers(1, n_classes, n - 2)])
    labels[2 : 2 + n_classes - 1] = np.arange(1, n_classes)  # every class present
    labels = rng.permutation(labels)
    ri = rng.uniform(1.5, 1.55, n) if name == "2 parts" else None
    text = csv_text(rows, labels, label_at, ri)
    closed, _, _, names = reference.read_csv(text, LABEL)
    ks = tuple(sorted(rng.choice(np.arange(1, 10), 4, replace=False).tolist()))
    return Case(
        text=text,
        rows=closed,
        names=names,
        ks=ks,
        k=int(rng.choice([1, 2, 3, 5, 7])),
        test_total=feasible_test_total(labels, rng),
        seed=int(rng.integers(0, 2**31)),
    )


def test_datasets_have_the_stated_shapes():
    cases = [case(name) for name in DATASETS]
    assert {c.rows.shape[1] for c in cases} >= {2, 9}
    assert max(float((c.rows == 0).mean()) for c in cases) > 0.4
    for c in cases:
        _, labels, _, _ = reference.read_csv(c.text, LABEL)
        assert np.bincount(labels).min() == 2  # a class of two rows
        assert len(np.unique(c.rows, axis=0)) < len(c.rows)  # duplicate rows
    assert case("2 parts").text.startswith("RI,") and "RI" not in case("2 parts").names


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", DATASETS)
def test_tune(name, family, tmp_path):
    c = case(name)
    alphas = ALPHAS if family in reference.POWER_FAMILIES else (None,)
    out = tmp_path / "tune.json"
    rc = main(["tune", "--input", str(c.write(tmp_path)), "--label-column", LABEL,
               "--family", family, "--alphas=" + ",".join(map(repr, ALPHAS)),
               "--k", ",".join(map(str, c.ks)), "--B", str(B),
               "--test-n", str(c.test_total), "--seed", str(c.seed),
               "--output", str(out)])
    if all(c.rejects(family, a) for a in alphas):  # every cell fails
        assert rc == 1 and not out.exists()
        return
    assert rc == 0
    want = reference.tune_content(
        c.text, LABEL, family, alphas, c.ks, B, c.test_total, c.seed
    )
    assert digests.tune_content(json.loads(out.read_text())) == want


@pytest.mark.parametrize("family, alpha", SPECS)
@pytest.mark.parametrize("name", DATASETS)
def test_roc(name, family, alpha, tmp_path):
    c = case(name)
    out = tmp_path / "roc"
    rc = main(["roc", "--input", str(c.write(tmp_path)), "--label-column", LABEL,
               "--family", family, f"--alpha={alpha!r}", "--k", str(c.k),
               "--output-dir", str(out)])
    if c.rejects(family, alpha):
        assert rc == 1 and not out.exists()
        return
    assert rc == 0
    assert roc_content(out) == reference.roc_content(c.text, LABEL, family, alpha, c.k)


def roc_content(out) -> dict:
    summary = json.loads((out / "roc_summary.json").read_text())
    files = {p.name: p.read_bytes() for p in out.glob("roc_*.csv")}
    return digests.roc_content(summary["auc"], files)


@pytest.mark.parametrize("family, alpha", SPECS)
@pytest.mark.parametrize("name", DATASETS)
def test_dist(name, family, alpha, tmp_path):
    c = case(name)
    out = tmp_path / "dist.csv"
    rc = main(["dist", "--input", str(c.write(tmp_path)), "--label-column", LABEL,
               "--family", family, f"--alpha={alpha!r}", "--output", str(out)])
    if c.rejects(family, alpha):
        assert rc == 1 and not out.exists()
        return
    assert rc == 0
    t = reference.prepared(c.rows, family, alpha)
    matrix = reference.KERNELS[family](t[:, None], t[None])
    want = reference.csv_bytes(
        ["row"] + [f"r{j}" for j in range(len(t))],
        [[str(i)] + list(map(repr, r)) for i, r in enumerate(matrix.tolist())],
    )
    assert out.read_bytes() == want


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("name", DATASETS)
def test_transform(name, alpha, tmp_path, monkeypatch, capsys):
    """In blocks of BLOCK rows, so a rejected row is named by its place in the file."""
    monkeypatch.setattr(dataset, "_READ_ROWS", BLOCK)
    c = case(name)
    out = tmp_path / "out.csv"
    rc = main(["transform", "--input", str(c.write(tmp_path)), "--label-column", LABEL,
               f"--alpha={alpha!r}", "--output", str(out)])
    if alpha < 0 and (c.rows == 0).any():
        row, part = np.argwhere(c.rows == 0)[0]
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err == (
            f"error: dataset row {row}, column {c.names[part]} "
            f"is zero under alpha={alpha:g}\n"
        )
        return
    assert rc == 0
    if len(c.names) == 3:
        want = reference.transform_bytes(c.text, LABEL, alpha)
    else:  # no plot coordinates
        rows, labels, classes, names = reference.read_csv(c.text, LABEL)
        want = reference.csv_bytes(names + [LABEL], [
            [*map(repr, r), classes[label]]
            for r, label in zip(reference.power(rows, alpha).tolist(), labels.tolist())
        ])
    assert out.read_bytes() == want


@pytest.mark.parametrize("family, alpha", [
    ("esov", -1.0), ("esov", 0.5), ("tc", -0.5), ("tc", 0.0),
    ("aitchison", 1.0), ("hellinger", 1.0), ("angular", 1.0),
])
def test_loci(family, alpha, tmp_path):
    out = tmp_path / "loci.csv"
    assert main(["loci", "--family", family, f"--alpha={alpha!r}", "--n", "24",
                 "--output", str(out)]) == 0
    assert out.read_bytes() == reference.loci_bytes(family, alpha, 24)


@functools.cache
def lattice_text() -> str:
    """1,000 rows of whole amounts 0 to 4 over 4 parts: at most 624 distinct
    rows, and fewer once closed, so ties at the k-th neighbour abound."""
    rng = np.random.default_rng(17)
    rows = rng.integers(0, 5, size=(1000, 4)).astype(float)
    empty = np.flatnonzero(~rows.any(axis=1))
    rows[empty, 0] = 1.0
    # mostly the largest part's class, so the scores are not chance
    labels = np.where(
        rng.random(1000) < 0.7, rows.argmax(axis=1) % 3, rng.integers(0, 3, 1000)
    )
    return csv_text(rows, labels, 4)


@pytest.mark.parametrize("family, alpha", [
    ("esov", 0.0), ("esov", 0.5), ("esov", 1.0), ("tc", 0.5), ("tc", 1.0),
    ("hellinger", 1.0),
])
def test_roc_of_a_pruned_walk(family, alpha, tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger="simplexknn")
    path = tmp_path / "in.csv"
    path.write_text(lattice_text(), encoding="utf-8", newline="")
    out = tmp_path / "roc"
    assert main(["roc", "--input", str(path), "--label-column", LABEL,
                 "--family", family, f"--alpha={alpha!r}", "--k", "3",
                 "--output-dir", str(out)]) == 0
    # one self walk, and a pruned one: it ordered the rows by 6 pivots
    assert [pivots for *_, pivots in walk_records(caplog)] == [knn._PIVOTS] == [6]
    want = reference.roc_content(lattice_text(), LABEL, family, alpha, 3)
    assert roc_content(out) == want
