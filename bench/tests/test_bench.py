"""Tests of the benchmark's own code: python -m pytest bench/tests"""

import csv
import io
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import digests  # noqa: E402
import glassgen  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _parts(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    cols = [i for i, h in enumerate(header) if h in glassgen.GLASS_PARTS]
    values = np.array([[float(r[i]) for i in cols] for r in body])
    labels = [r[header.index(glassgen.GLASS_LABEL)] for r in body]
    return body, values, labels


class TestGenerator:
    @pytest.mark.parametrize("n_rows, dup_share", [(214, 0.0), (3000, 0.05)])
    def test_same_seed_same_bytes(self, n_rows, dup_share):
        a = glassgen.glass_csv(5, n_rows, dup_share)
        assert a == glassgen.glass_csv(5, n_rows, dup_share)
        assert a != glassgen.glass_csv(6, n_rows, dup_share)

    def test_ternary_same_seed_same_bytes(self):
        assert glassgen.ternary_csv(3, 1000) == glassgen.ternary_csv(3, 1000)
        assert glassgen.ternary_csv(3, 1000) != glassgen.ternary_csv(4, 1000)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_glass_class_sizes(self, seed):
        _, _, labels = _parts(glassgen.glass_csv(seed))
        sizes = [labels.count(c) for c in glassgen.GLASS_CLASSES]
        assert sizes == list(glassgen.GLASS_SIZES)
        _, _, labels = _parts(glassgen.glass_csv(seed, 3000, 0.05))
        sizes = [labels.count(c) for c in glassgen.GLASS_CLASSES]
        assert sizes == list(glassgen.class_sizes(3000)) and sum(sizes) == 3000

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_zero_and_duplicate_shares(self, seed):
        body, values, _ = _parts(glassgen.glass_csv(seed, 3000, 0.05))
        assert 0.20 <= (values == 0).mean() <= 0.30
        assert 0.80 <= (values == 0).any(axis=1).mean() <= 0.95
        duplicates = len(body) - len({tuple(r) for r in body})
        assert 0.04 <= duplicates / len(body) <= 0.06
        # percent scale: ingest must close the rows, not keep them as given
        assert np.all(np.abs(values.sum(axis=1) - 100.0) < 10.0)

    def test_ternary_zero_share(self):
        rows = list(csv.reader(io.StringIO(glassgen.ternary_csv(0, 20000))))[1:]
        values = np.array([[float(v) for v in r[:3]] for r in rows])
        assert 0.03 <= (values == 0).any(axis=1).mean() <= 0.07
        assert np.all(values.sum(axis=1) > 99.0)


def _span(name, layer, start, end, parent, raised=False, counts=None):
    return [name, layer, start, end, parent, raised, counts]


class TestSpans:
    TREE = {
        "import_s": 0.5,
        "wrapped": ["cli.main", "evaluation.grid_search", "knn.pairwise_distances",
                    "metrics.esov_distance", "metrics.esov_alpha_distance"],
        "broken": [],
        "spans": [
            _span(spans.MODULE, "knn", -90, -40, -1),
            _span(spans.MODULE, "metrics", -80, -60, 0),
            _span("main", "cli", 0, 1000, -1),
            _span("grid_search", "evaluation", 100, 900, 2),
            _span("pairwise_distances", "knn", 200, 500, 3,
                  counts={"knn.pairs": 12, "knn.bytes_computed": 768}),
            _span("esov_alpha_distance", "metrics", 250, 450, 4, counts={"metrics.pairs": 12}),
            _span("esov_distance", "metrics", 300, 400, 5),
            _span("pairwise_distances", "knn", 600, 650, 3, raised=True),
        ],
    }

    def test_self_times(self):
        assert spans.self_times_ns(self.TREE["spans"]) == [30, 20, 200, 450, 100, 100, 100, 50]

    def test_layer_metrics(self):
        m = spans.layer_metrics(self.TREE)
        assert m["cli.self_s"] == pytest.approx(200e-9)
        assert m["evaluation.self_s"] == pytest.approx(450e-9)
        # module bodies count as self time (knn 30 + 150, metrics 20 + 200), not as calls
        assert m["knn.self_s"] == pytest.approx(180e-9)
        assert m["metrics.self_s"] == pytest.approx(220e-9)
        # the nested esov_distance call stays inside the metrics layer
        assert (m["metrics.calls"], m["knn.calls"], m["knn.errors"]) == (1, 2, 1)
        assert (m["knn.pairs"], m["knn.bytes_computed"], m["metrics.pairs"]) == (12, 768, 12)
        assert m["cli.import_s"] == 0.5

    def test_absent_not_zero(self):
        m = spans.layer_metrics(dict(self.TREE, broken=["knn.bytes_computed"]))
        # no loci, dataset or simplex function was wrapped, so no loci metric exists
        assert not any(k.startswith(("loci.", "dataset.", "simplex.")) for k in m)
        assert "knn.bytes_computed" not in m and "knn.pairs" in m

    def test_pass_metrics_sum_processes(self):
        total = spans.pass_metrics([self.TREE, dict(self.TREE, import_s=0.7)])
        assert total["knn.calls"] == 4 and total["cli.import_s"] == pytest.approx(0.6)

    def test_instrument_wraps_listed_functions_only(self):
        recorder = spans.Recorder()
        module = types.ModuleType("simplexknn.metrics")

        def inner(x):
            return np.zeros(x)

        def outer(x):
            return module.inner(x)

        module.inner, module.outer, module.Spec = inner, outer, type("Spec", (), {})
        module.__all__ = ["inner", "outer", "Spec", "removed_name"]
        recorder.instrument(module, "metrics")
        assert module.Spec.__name__ == "Spec" and not hasattr(module.Spec, "layer")
        module.outer(3)
        m = spans.layer_metrics({"import_s": 0.0, "wrapped": sorted(recorder.wrapped),
                                 "broken": sorted(recorder.broken),
                                 "spans": recorder.spans})
        assert len(recorder.spans) == 2
        assert m["metrics.calls"] == 1 and m["metrics.pairs"] == 3

    def test_errors_recorded_and_reraised(self):
        recorder = spans.Recorder()

        def fails():
            raise ValueError("boom")

        wrapped = recorder.wrap(fails, "knn", "fails")
        with pytest.raises(ValueError):
            wrapped()
        assert recorder.spans[0][spans.RAISED] and recorder.stack == []


def _tune_report(input_path):
    cell = {"alpha": 0.5, "k": 3, "mean_accuracy": 70.0, "sd_accuracy": 5.0,
            "sensitivity_mean": [0.7, 0.6], "sensitivity_sd": [0.1, 0.2],
            "specificity_mean": [0.8, 0.9], "specificity_sd": [0.1, 0.1],
            "error": None}
    failed = dict(cell, alpha=-0.5, mean_accuracy=None, sd_accuracy=None,
                  sensitivity_mean=None, sensitivity_sd=None, specificity_mean=None,
                  specificity_sd=None, error="replication 0: row 4 has a zero part")
    return {
        "tool": "simplexknn", "version": "0.1.0", "command": "tune",
        "config": {"input": input_path, "seed": 7},
        "result": {"family": "esov", "split_digest": "abc", "cells": [failed, cell]},
        "best": {"alpha": 0.5, "k": 3, "mean_accuracy": 70.0},
    }


class TestDigests:
    def write(self, tmp_path, report):
        path = tmp_path / "tune.json"
        path.write_text(json.dumps(report, indent=2))
        return digests.tune_digest(path)

    def test_envelope_ignored(self, tmp_path):
        a = self.write(tmp_path, _tune_report("/one/checkout/glass.csv"))
        b = _tune_report("/another/place/glass.csv")
        b["version"] = "0.2.0"
        b["result"]["cells"][0]["error"] = "replication 0: dataset row 17, column Ba is zero"
        b["result"]["cells"][1]["tie_rule_decided"] = 4  # a diagnostic added later
        assert a is not None and a == self.write(tmp_path, b)

    def test_one_cell_value_changes_digest(self, tmp_path):
        a = self.write(tmp_path, _tune_report("glass.csv"))
        b = _tune_report("glass.csv")
        b["result"]["cells"][1]["sensitivity_sd"][1] = 0.2000000000000001
        assert a != self.write(tmp_path, b)

    def test_missing_output_has_no_digest(self, tmp_path):
        assert digests.tune_digest(tmp_path / "absent.json") is None
        assert digests.roc_digest(tmp_path) is None
        assert digests.file_digest(tmp_path / "absent.csv") is None

    def test_roc_digest_ignores_summary_envelope(self, tmp_path):
        for name in ("a", "b"):
            out = tmp_path / name
            out.mkdir()
            (out / "roc_00_1.csv").write_bytes(b"threshold,fpr,tpr\r\n2.0,0.0,0.0\r\n")
            summary = {"config": {"input": f"/{name}/glass.csv"}, "auc": {"1": 0.75},
                       "files": {"1": "roc_00_1.csv"}}
            (out / "roc_summary.json").write_text(json.dumps(summary))
        assert digests.roc_digest(tmp_path / "a") == digests.roc_digest(tmp_path / "b")


def test_reference_matches_committed_digests():
    committed = json.loads((BENCH / "expected.json").read_text())
    seed = committed["seed"]
    for name, build in workloads.WORKLOADS.items():
        for op in build(seed).ops:
            assert reference.expected_digest(op.check) == committed["digests"][name][op.name]
