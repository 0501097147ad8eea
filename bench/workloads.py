"""The benchmark's workloads: generated inputs plus the CLI operations run on them.

Each workload function takes the seed and returns the input files (name ->
CSV text) and the operations, run in order in a closed loop. Paths are
relative to the run's work directory. Why each workload was chosen is
recorded in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import digests
import glassgen

DEFAULT_SEED = 0

TUNE_ALPHAS = "-1:1:0.1"
# the CLI's parse_grid values for TUNE_ALPHAS: start + i*step, rounded to 10 places
TUNE_ALPHA_VALUES = tuple(round(-1.0 + i * 0.1, 10) for i in range(21))
TUNE_KS = tuple(range(1, 16))
TUNE_B = 200
TUNE_TEST_N = 30

LOOCV_ROWS = 3000
LOOCV_DUP_SHARE = 0.05
TERNARY_ROWS = 100_000
LOCI_N = 300
# (output tag, family, alpha); tc at a negative alpha skips boundary points
LOCI_SPECS = (
    ("esov", "esov", 0.5),
    ("tc", "tc", -0.5),
    ("aitchison", "aitchison", 1.0),
    ("hellinger", "hellinger", 1.0),
    ("angular", "angular", 1.0),
)


@dataclass(frozen=True)
class Op:
    """One CLI call: arguments after `python -m simplexknn.cli`."""

    name: str
    argv: tuple[str, ...]
    output: str  # file or directory the call writes
    digest: Callable  # digests function reading output
    check: tuple  # reference.expected_digest argument


@dataclass(frozen=True)
class Workload:
    inputs: dict
    ops: tuple


def tune_paper(seed: int) -> Workload:
    text = glassgen.glass_csv(seed)
    argv = (
        "tune", "--input", "glass.csv", "--label-column", glassgen.GLASS_LABEL,
        "--family", "esov", f"--alphas={TUNE_ALPHAS}", "--k", "1:15",
        "--B", str(TUNE_B), "--test-n", str(TUNE_TEST_N), "--seed", str(seed),
        "--output", "tune.json",
    )
    check = ("tune", text, glassgen.GLASS_LABEL, "esov", TUNE_ALPHA_VALUES,
             TUNE_KS, TUNE_B, TUNE_TEST_N, seed)
    op = Op("tune", argv, "tune.json", digests.tune_digest, check)
    return Workload({"glass.csv": text}, (op,))


def loocv_large(seed: int) -> Workload:
    text = glassgen.glass_csv(seed, LOOCV_ROWS, LOOCV_DUP_SHARE)
    ops = []
    for family, alpha in (("esov", 0.5), ("tc", 1.0)):
        out = f"roc-{family}"
        argv = (
            "roc", "--input", "glass.csv", "--label-column", glassgen.GLASS_LABEL,
            "--family", family, f"--alpha={alpha!r}", "--k", "3",
            "--output-dir", out,
        )
        check = ("roc", text, glassgen.GLASS_LABEL, family, alpha, 3)
        ops.append(Op(out, argv, out, digests.roc_digest, check))
    return Workload({"glass.csv": text}, tuple(ops))


def plot_prep(seed: int) -> Workload:
    text = glassgen.ternary_csv(seed, TERNARY_ROWS)
    ops = [Op(
        "transform",
        ("transform", "--input", "ternary.csv", "--label-column",
         glassgen.TERNARY_LABEL, "--alpha", "0.5", "--output", "transform.csv"),
        "transform.csv",
        digests.file_digest,
        ("transform", text, glassgen.TERNARY_LABEL, 0.5),
    )]
    for tag, family, alpha in LOCI_SPECS:
        out = f"loci-{tag}.csv"
        ops.append(Op(
            f"loci-{tag}",
            ("loci", "--family", family, f"--alpha={alpha!r}", "--n", str(LOCI_N),
             "--output", out),
            out,
            digests.file_digest,
            ("loci", family, alpha, LOCI_N),
        ))
    return Workload({"ternary.csv": text}, tuple(ops))


WORKLOADS = {
    "tune-paper": tune_paper,
    "loocv-large": loocv_large,
    "plot-prep": plot_prep,
}
