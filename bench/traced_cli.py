"""Run one simplexknn CLI command with its layers traced.

Usage: python bench/traced_cli.py SPANS_JSON CLI_ARG...

Installs the spans import hook, imports numpy and simplexknn.cli (timing
both: the import time a CLI call pays), calls cli.main under a root span and
writes the spans to SPANS_JSON. numpy is imported first so that the spans of
the package's module bodies do not include it. The exit code is main's, as
with `python -m simplexknn.cli`.
"""

import importlib
import sys
import time

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    recorder.install()
    start = time.perf_counter()
    importlib.import_module("numpy")
    cli = importlib.import_module("simplexknn.cli")
    import_s = time.perf_counter() - start
    entry = cli.main
    if getattr(entry, "layer", None) != "cli":
        entry = recorder.wrap(entry, "cli", "main")
    try:
        return entry(argv)
    finally:
        recorder.dump(out, import_s)


if __name__ == "__main__":
    sys.exit(main())
