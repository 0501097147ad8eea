"""Print each benchmark operation's peak RSS and CPU time; a report, not a gate.

bench/run.py reports a workload's peak_rss_mb as the largest of its
operations, and its cpu_s as their sum. This builds each workload's inputs
and operations from bench/workloads.py at seed 101, as
tools/cross_target.py does, runs every operation once in a fresh process
and prints that process's own ru_maxrss and user plus system CPU time
(os.wait4, through bench/launcher.py, which is started before this script
grows). It does so twice:

  * source: the package compiled from source, as when
    PYTHONDONTWRITEBYTECODE=1 is set (the package's modules are copied to a
    directory with no bytecode, and none is written);
  * cached: bytecode cached under a temporary PYTHONPYCACHEPREFIX, filled
    by one unmeasured run of each operation.

Each workload ends with a "(pass)" line: the largest RSS and the summed
CPU time of its operations, as peak_rss_mb and cpu_s aggregate a pass.
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

        def measure(name, label, argv, work, results):
            """Run argv once with each launcher; print and keep each result."""
            nonlocal failed
            runs["cached"].run(cmd + list(argv), work, TIMEOUT_S)  # fills the cache
            for key, launcher in runs.items():
                result = launcher.run(cmd + list(argv), work, TIMEOUT_S)
                failed += result["exit_code"] != 0
                results[key].append(result)
            show(name, label, [r[-1]["rss_mib"] for r in results.values()],
                 [r[-1]["cpu_s"] for r in results.values()])

        def show(name, label, rss, cpu):
            cells = [f"{v:10.2f}" for v in rss] + [f"{v:10.3f}" for v in cpu]
            print(f"{name:12s} {label:16s} {' '.join(cells)}", flush=True)

        print(f"{'workload':12s} {'operation':16s} {'source MiB':>10s} "
              f"{'cached MiB':>10s} {'source cpu':>10s} {'cached cpu':>10s}")
        for name, build in workloads.WORKLOADS.items():
            workload = build(SEED)
            work = tmp / name
            work.mkdir()
            for file, text in workload.inputs.items():
                (work / file).write_text(text, encoding="utf-8")
            results = {key: [] for key in runs}
            for op in workload.ops:
                measure(name, op.name, op.argv, work, results)
            show(name, "(pass)",
                 [max(r["rss_mib"] for r in rs) for rs in results.values()],
                 [sum(r["cpu_s"] for r in rs) for rs in results.values()])
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
