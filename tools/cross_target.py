"""Compare CLI outputs across numpy's SIMD dispatch targets; a report, not a gate.

numpy picks its loops for **, log and exp by CPU feature, so a prepared row,
and what is built on it, can change with the target. This runs four
commands on inputs that bench/glassgen.py generates:

  * tune, tc over alphas -1:1:0.25 on glass_csv(101), 214 rows, with k 1:15,
    B 50, test-n 30 and seed 7;
  * tune, esov, as the benchmark's tune-paper workload runs it;
  * roc, esov at alpha 0.5 and tc at alpha 1, as loocv-large runs them on
    3,000 rows;

under the default dispatch and with NPY_DISABLE_CPU_FEATURES set to "X86_V4"
and to "X86_V4 X86_V3", skipping a target this CPU lacks. For each output
under each other target it prints whether the bytes equal the default's,
and for tune how many grid cells differ. A difference does not change the
exit status; a command that fails does.

    python tools/cross_target.py
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import glassgen  # noqa: E402
import workloads  # noqa: E402

# (name, NPY_DISABLE_CPU_FEATURES, the feature the CPU must have)
TARGETS = [
    ("default", None, None),
    ("without X86_V4", "X86_V4", "X86_V4"),
    ("without X86_V4 X86_V3", "X86_V4 X86_V3", "X86_V3"),
]


def has(feature: str) -> bool:
    """Whether this CPU has feature, by numpy's own dispatch table."""
    from numpy._core._multiarray_umath import __cpu_features__

    return bool(__cpu_features__.get(feature))


def commands():
    """(name, input files, argv, output) of each command compared."""
    argv = (
        "tune", "--input", "glass.csv", "--label-column", glassgen.GLASS_LABEL,
        "--family", "tc", "--alphas=-1:1:0.25", "--k", "1:15", "--B", "50",
        "--test-n", "30", "--seed", "7", "--output", "tune.json",
    )
    yield "glass-101 tune tc", {"glass.csv": glassgen.glass_csv(101)}, argv, "tune.json"
    for name in ("tune-paper", "loocv-large"):
        workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
        for op in workload.ops:
            yield f"{name} {op.name}", workload.inputs, op.argv, op.output


def run(inputs: dict, argv, output: str, disabled) -> dict:
    """The files a CLI call writes, relative path -> bytes, under a target."""
    env = dict(os.environ)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for file, text in inputs.items():
            (work / file).write_text(text, encoding="utf-8")
        subprocess.run(
            [sys.executable, "-m", "simplexknn.cli", *argv], cwd=work, env=env,
            check=True, stdout=subprocess.DEVNULL,
        )
        out = work / output
        files = sorted(out.rglob("*")) if out.is_dir() else [out]
        return {str(f.relative_to(work)): f.read_bytes() for f in files if f.is_file()}


def cells(files: dict) -> list:
    """The grid cells of a tune report."""
    [report] = files.values()
    return json.loads(report)["result"]["cells"]


def main() -> None:
    targets = [(name, disabled) for name, disabled, need in TARGETS
               if need is None or has(need)]
    for name, _, need in TARGETS:
        if need is not None and not has(need):
            print(f"skipped {name}: this CPU has no {need}")
    for command, inputs, argv, output in commands():
        base = run(inputs, argv, output, None)
        for name, disabled in targets[1:]:
            got = run(inputs, argv, output, disabled)
            verdict = "same bytes" if got == base else "differs"
            if argv[0] == "tune":
                want = cells(base)
                moved = sum(a != b for a, b in zip(want, cells(got)))
                verdict += f", {moved} of {len(want)} cells differ"
            print(f"{command:26s} {name:24s} {verdict}", flush=True)


if __name__ == "__main__":
    main()
