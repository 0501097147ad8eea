"""Print the peak RSS of each benchmark operation; a report, not a gate.

bench/run.py reports a workload's peak_rss_mb as the largest of its
operations. This builds each workload's inputs and operations from
bench/workloads.py at seed 101, as tools/cross_target.py does, runs every
operation once in a fresh process and prints that process's own ru_maxrss
(os.wait4, through bench/launcher.py, which is started before this script
grows). It does so twice:

  * source: the package compiled from source, as when
    PYTHONDONTWRITEBYTECODE=1 is set (the package's modules are copied to a
    directory with no bytecode, and none is written);
  * cached: bytecode cached under a temporary PYTHONPYCACHEPREFIX, filled
    by one unmeasured run of each operation.

After the benchmark's operations it prints one probe that the benchmark does
not run, for information: loci at n 1500 (esov, alpha 0.5), 25 times
plot-prep's lattice. loci streams its field, so this peak should stay near
the n-300 operations'.

    python tools/op_rss.py

A failing operation makes the exit status non-zero.
"""

import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import Launcher  # noqa: E402

SEED = 101
TIMEOUT_S = 300.0
PROBE = ("loci", "--family", "esov", "--alpha=0.5", "--n", "1500",
         "--output", "loci-1500.csv")


def launchers(tmp: Path) -> dict:
    """name -> a launcher whose children see that way of loading the package."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    source = tmp / "source"
    shutil.copytree(ROOT / "src" / "simplexknn", source / "simplexknn",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return {
        "source": Launcher(dict(env, PYTHONPATH=str(source),
                                PYTHONDONTWRITEBYTECODE="1")),
        "cached": Launcher(dict(env, PYTHONPATH=str(ROOT / "src"),
                                PYTHONPYCACHEPREFIX=str(tmp / "pycache"))),
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runs = launchers(tmp)  # before numpy and the inputs load
        import workloads

        failed = 0
        cmd = [sys.executable, "-m", "simplexknn.cli"]

        def measure(name, label, argv, work, peaks):
            """Run argv once with each launcher; print and keep each ru_maxrss."""
            nonlocal failed
            runs["cached"].run(cmd + list(argv), work, TIMEOUT_S)  # fills the cache
            cells = []
            for key, launcher in runs.items():
                result = launcher.run(cmd + list(argv), work, TIMEOUT_S)
                failed += result["exit_code"] != 0
                peaks[key].append(result["rss_mib"])
                cells.append(f"{result['rss_mib']:10.2f}")
            print(f"{name:12s} {label:16s} {' '.join(cells)}", flush=True)

        print(f"{'workload':12s} {'operation':16s} {'source MiB':>10s} {'cached MiB':>10s}")
        for name, build in workloads.WORKLOADS.items():
            workload = build(SEED)
            work = tmp / name
            work.mkdir()
            for file, text in workload.inputs.items():
                (work / file).write_text(text, encoding="utf-8")
            peaks = {key: [] for key in runs}
            for op in workload.ops:
                measure(name, op.name, op.argv, work, peaks)
            cells = " ".join(f"{max(p):10.2f}" for p in peaks.values())
            print(f"{name:12s} {'(pass maximum)':16s} {cells}", flush=True)
        work = tmp / "probe"
        work.mkdir()
        measure("(probe)", "loci --n 1500", PROBE, work, {key: [] for key in runs})
        for launcher in runs.values():
            launcher.close()
    if failed:
        print(f"{failed} operations failed", file=sys.stderr)
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())
