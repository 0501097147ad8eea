#!/usr/bin/env python3
"""Closed-loop benchmark of the simplexknn command line.

Usage, from the root of a checkout:

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload declared in BENCHMARK.json, or `all` to run each in turn.
One client runs the workload's CLI operations one after another, each as
`python -m simplexknn.cli` with PYTHONPATH set to the checkout's src/,
repeating the whole sequence (a pass) until S seconds have been measured.
Each process is accounted for separately with os.wait4 (see launcher.py),
and every output is checked against its reference digest; a non-zero exit,
a missing output or a wrong digest is a failed operation.

With --trace 0 the run reports end-to-end metrics, medians over passes:
wall_s, cpu_s, peak_rss_mb, and setup_s, the median spawn-to-exit time of
`python -m simplexknn.cli --version`. With --trace 1 it alternates untraced
passes with traced ones (traced_cli.py) and reports per-layer metrics from
the spans, plus trace.overhead_s, the traced minus the untraced median pass
time. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

# numpy, and the modules that import it (workloads, reference), are imported
# inside functions, after the launcher has started: see launcher.py

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ".bench-work"
SETUP_PROBES = 11
# the whole run must end within 180 s; stop starting passes well before
HARD_LIMIT_S = 150.0


class Launcher:
    """The launcher process (launcher.py) that spawns every operation."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, cmd, cwd, timeout_s: float) -> dict:
        request = {"cmd": cmd, "cwd": str(cwd), "timeout_s": timeout_s}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Runs the CLI operations of one workload run and counts their failures."""

    def __init__(self, launcher: Launcher, work: Path, deadline: float):
        self.launcher = launcher
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0

    def run(self, cli_args, traced_to: str | None = None) -> dict:
        if traced_to is None:
            cmd = [sys.executable, "-m", "simplexknn.cli", *cli_args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), traced_to, *cli_args]
        result = self.launcher.run(cmd, self.work, self.deadline - time.perf_counter())
        self.attempted += 1
        if result["exit_code"] != 0:
            tail = (self.work / "stderr.txt").read_text(errors="replace")[-2000:]
            self.fail(f"exit code {result['exit_code']}: {' '.join(cli_args)}\n{tail}")
        return result

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"failed operation: {why}", file=sys.stderr)


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    for p in (path, path.with_name(path.name + ".meta.json")):
        p.unlink(missing_ok=True)


def run_pass(runner: Runner, ops, expected: dict, traced: bool, seen: dict) -> dict:
    """One closed-loop pass over ops; digests are checked after the last exits."""
    for op in ops:
        _remove(runner.work / op.output)
    runs, traces = [], []
    start = time.perf_counter()
    for op in ops:
        spans_file = str(runner.work / f"{op.name}.spans.json") if traced else None
        runs.append(runner.run(op.argv, spans_file))
    wall = time.perf_counter() - start
    for op, run in zip(ops, runs):
        if run["exit_code"] != 0:
            continue
        got = op.digest(runner.work / op.output)
        if got is None or got != expected[op.name]:
            runner.fail(f"{op.name}: digest {got} != reference {expected[op.name]}")
        elif traced and seen.get(op.name) != got:
            runner.fail(f"{op.name}: traced digest differs from the untraced run's")
        seen.setdefault(op.name, got)
        if traced:
            with open(runner.work / f"{op.name}.spans.json") as fh:
                traces.append(json.load(fh))
    return {
        "wall_s": wall,
        "cpu_s": sum(r["cpu_s"] for r in runs),
        "peak_rss_mb": max(r["rss_mib"] for r in runs),
        "layers": spans.pass_metrics(traces) if traces else None,
    }


def expected_digests(name: str, seed: int, workload) -> dict:
    """Committed digests for the default seed, otherwise the reference's."""
    import reference

    committed = json.loads((BENCH_DIR / "expected.json").read_text())
    table = committed["digests"].get(name, {}) if committed["seed"] == seed else {}
    return {
        op.name: table.get(op.name) or reference.expected_digest(op.check)
        for op in workload.ops
    }


def run_workload(launcher, root: Path, name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    import workloads

    hard_deadline = time.perf_counter() + HARD_LIMIT_S
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=root / WORK_DIR))
    try:
        workload = workloads.WORKLOADS[name](seed)
        for file_name, text in workload.inputs.items():
            (work / file_name).write_text(text, newline="")
        expected = expected_digests(name, seed, workload)
        runner = Runner(launcher, work, hard_deadline)

        runner.run(["--version"])  # warm the page cache and the bytecode cache
        probes = 0 if trace else SETUP_PROBES
        setup = [runner.run(["--version"])["wall_s"] for _ in range(probes)]

        untraced, traced, seen = [], [], {}
        deadline = time.perf_counter() + seconds
        while True:
            pass_start = time.perf_counter()
            untraced.append(run_pass(runner, workload.ops, expected, False, seen))
            if trace:
                traced.append(run_pass(runner, workload.ops, expected, True, seen))
            # stop before a pass that would end past the deadline
            now = time.perf_counter()
            if now + (now - pass_start) > min(deadline, hard_deadline):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / WORK_DIR).rmdir()  # only when no other run is using it

    def median(key, passes):
        return statistics.median(p[key] for p in passes)

    if trace:
        layers = [p["layers"] for p in traced if p["layers"] is not None]
        names = dict.fromkeys(m for layer in layers for m in layer)
        metrics = {m: statistics.median(layer[m] for layer in layers if m in layer)
                   for m in names}
        metrics["trace.overhead_s"] = median("wall_s", traced) - median("wall_s", untraced)
    else:
        metrics = {
            "wall_s": median("wall_s", untraced),
            "cpu_s": median("cpu_s", untraced),
            "peak_rss_mb": median("peak_rss_mb", untraced),
            "setup_s": statistics.median(setup),
        }
    samples = {"wall_s": [p["wall_s"] for p in untraced], "setup_s": setup}
    return {
        "samples": samples,
        "passes": len(untraced) + len(traced),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def machine_facts(root: Path) -> dict:
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    ram_kib = None
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                ram_kib = int(line.split()[1])
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "ram_mib": ram_kib // 1024 if ram_kib else None,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def report(name: str, result: dict, units: dict) -> None:
    print(f"{name}: {result['passes']} passes, {result['attempted']} operations")
    for metric, value in result["metrics"].items():
        note = " (computed from shapes)" if metric == "knn.bytes_computed" else ""
        samples = result["samples"].get(metric)
        if samples:
            values = " ".join(f"{v:.4g}" for v in samples)
            note = f" (median of {len(samples)}: {values})"
        print(f"  {metric:<22} {value:.6g} {units.get(metric, '')}{note}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':<22} {ratio:.6g} 1 ({result['failed']} of {result['attempted']})")


def main(argv=None) -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "simplexknn" / "cli.py").is_file():
        print("bench/run.py: src/simplexknn not found; run from a checkout root",
              file=sys.stderr)
        return 2
    # started before this process imports numpy or builds inputs: see launcher.py
    launcher = Launcher(dict(os.environ, PYTHONPATH=str(root / "src")))
    try:
        print("machine " + json.dumps(machine_facts(root)))
        selected = names if args.workload == "all" else [args.workload]
        attempted = failed = 0
        metrics = {}
        for name in selected:
            result = run_workload(launcher, root, name, args.seed, args.seconds,
                                  bool(args.trace))
            report(name, result, units)
            attempted += result["attempted"]
            failed += result["failed"]
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({
                prefix + m: {"value": v, "unit": units[m]}
                for m, v in result["metrics"].items()
            })
    finally:
        launcher.close()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
