import csv
import io
import json
import logging
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import simplexknn
from simplexknn import (
    LabeledDataset,
    MetricSpec,
    __version__,
    dataset,
    distance,
    distance_field,
    grid_search,
    ingest_csv,
    pairwise_distances,
    power_transform,
    ternary_embed,
    write_csv,
)
from simplexknn import cli, evaluation
from simplexknn.cli import main, parse_grid

from conftest import compositional_blobs


@pytest.fixture
def data_csv(tmp_path):
    from simplexknn import write_csv

    rng = np.random.default_rng(404)
    data = compositional_blobs(rng, (14, 12, 10), n_parts=4, floor=1e-3)
    path = tmp_path / "blobs.csv"
    write_csv(data, path, label_column="kind")
    return path


class TestParseGrid:
    def test_range_with_step(self):
        grid = parse_grid("-1:1:0.1")
        assert len(grid) == 21
        assert grid[0] == -1.0 and grid[-1] == 1.0
        assert 0.7 in grid  # snapped, not 0.7000000000000002

    def test_range_default_step(self):
        assert parse_grid("1:15", integer=True) == list(range(1, 16))

    def test_scalar_and_list(self):
        assert parse_grid("0.5") == [0.5]
        assert parse_grid("0.25,0.5,1") == [0.25, 0.5, 1.0]

    def test_inclusive_end_within_tolerance(self):
        assert parse_grid("0:0.3:0.1") == [0.0, 0.1, 0.2, 0.3]

    def test_duplicates_removed_in_order(self):
        assert parse_grid("1,0.5,1") == [1.0, 0.5]

    def test_bad_step(self):
        with pytest.raises(ValueError):
            parse_grid("0:1:0")

    @pytest.mark.parametrize(
        "text, shown",
        [("inf", "inf"), ("nan", "nan"), ("-inf", "-inf"), ("3,inf", "inf"),
         ("1.5", "1.5"), ("2.0000000005", "2.0000000005"), ("1:3:0.5", "1.5"),
         ("0", "0"), ("-2", "-2")],
    )
    def test_non_integer_k_gets_the_shared_message(self, text, shown):
        # a k grid takes each value by the one count rule, with no tolerance,
        # and names a whole value as the integer typed
        with pytest.raises(ValueError, match=f"^k must be a positive integer, got {shown}$"):
            parse_grid(text, integer=True)

    @pytest.mark.parametrize(
        "text, integer", [("-1:1:1e-300", False), ("1:1e9", True), ("0:10001", False)]
    )
    def test_range_of_too_many_steps_rejected(self, text, integer):
        # checked before the loop, which would run for ever or exhaust memory
        message = f"grid range '{text}' takes over 10000 steps"
        with pytest.raises(ValueError, match=message):
            parse_grid(text, integer=integer)

    def test_range_of_the_most_steps_accepted(self):
        assert len(parse_grid("0:10000")) == 10001

    @pytest.mark.parametrize("text", ["1:inf", "0:1:nan", "nan:1", "-inf:1:0.5"])
    @pytest.mark.parametrize("integer", [False, True])
    def test_non_finite_range_rejected(self, text, integer):
        # an unbounded range would never end
        with pytest.raises(ValueError, match="must be finite"):
            parse_grid(text, integer=integer)


class TestTuneCommand:
    def run_tune(self, data_csv, out, seed=7, fmt="json"):
        return main(
            [
                "tune",
                "--input", str(data_csv),
                "--label-column", "kind",
                "--family", "esov",
                "--alphas", "0.5,1",
                "--k", "1,3",
                "--B", "12",
                "--test-n", "6",
                "--seed", str(seed),
                "--output", str(out),
                "--format", fmt,
            ]
        )

    def test_report_structure(self, data_csv, tmp_path):
        out = tmp_path / "grid.json"
        assert self.run_tune(data_csv, out) == 0
        report = json.loads(out.read_text())
        assert report["tool"] == "simplexknn"
        assert report["version"] == __version__
        assert report["config"]["seed"] == 7
        assert report["config"]["columns_used"] == ["part1", "part2", "part3", "part4"]
        cells = report["result"]["cells"]
        assert len(cells) == 4
        assert {(c["alpha"], c["k"]) for c in cells} == {
            (0.5, 1), (0.5, 3), (1.0, 1), (1.0, 3)
        }
        assert report["best"]["mean_accuracy"] <= 100.0

    def test_same_seed_byte_identical(self, data_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.run_tune(data_csv, a, seed=21)
        self.run_tune(data_csv, b, seed=21)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_changes_only_statistics(self, data_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.run_tune(data_csv, a, seed=1)
        self.run_tune(data_csv, b, seed=2)
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        assert ra != rb
        ca = {k: v for k, v in ra["config"].items() if k != "seed"}
        cb = {k: v for k, v in rb["config"].items() if k != "seed"}
        assert ca == cb

    def test_csv_format_with_meta_sidecar(self, data_csv, tmp_path):
        out = tmp_path / "grid.csv"
        assert self.run_tune(data_csv, out, fmt="csv") == 0
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["alpha", "k", "mean_accuracy", "sd_accuracy"]
        assert len(rows) == 5
        meta = json.loads((tmp_path / "grid.csv.meta.json").read_text())
        assert meta["command"] == "tune" and meta["config"]["seed"] == 7

    def test_seed_is_required(self, data_csv, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(
                ["tune", "--input", str(data_csv), "--label-column", "kind",
                 "--family", "esov", "--test-n", "6",
                 "--output", str(tmp_path / "x.json")]
            )

    def test_missing_input_fails_with_diagnostic(self, tmp_path, capsys):
        rc = main(
            ["tune", "--input", str(tmp_path / "gone.csv"), "--label-column", "k",
             "--family", "esov", "--test-n", "6", "--seed", "1",
             "--output", str(tmp_path / "x.json")]
        )
        assert rc == 1
        assert "gone.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "k, message",
        [("inf", "k must be a positive integer, got inf"),
         ("nan", "k must be a positive integer, got nan"),
         ("1,inf", "k must be a positive integer, got inf"),
         ("1:inf", "grid range must be finite in '1:inf'")],
    )
    def test_non_finite_k_fails_with_diagnostic(self, data_csv, tmp_path, capsys, k, message):
        rc = main(
            ["tune", "--input", str(data_csv), "--label-column", "kind",
             "--family", "esov", f"--k={k}", "--test-n", "6", "--seed", "1",
             "--output", str(tmp_path / "x.json")]
        )
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "flag, text, entry",
        [("--alphas", "0.5,a", "a"), ("--alphas", "0:x:0.5", "x"),
         ("--k", "1,3,five", "five"), ("--k", "1:b", "b")],
    )
    def test_non_numeric_grid_entry_names_it(self, data_csv, tmp_path, capsys,
                                             flag, text, entry):
        rc = main(
            ["tune", "--input", str(data_csv), "--label-column", "kind",
             "--family", "esov", f"{flag}={text}", "--test-n", "6", "--seed", "1",
             "--output", str(tmp_path / "x.json")]
        )
        assert rc == 1
        message = f"error: entry '{entry}' of grid '{text}' is not a number\n"
        assert capsys.readouterr().err == message
        assert not (tmp_path / "x.json").exists()

    def test_every_cell_failing_names_the_cause(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        path.write_text("a,b,c,kind\n0.2,0.3,0.5,x\n0,0.2,0.8,y\n"
                        "0.3,0.3,0.4,x\n0.1,0.6,0.3,y\n")
        out = tmp_path / "x.json"
        rc = main(
            ["tune", "--input", str(path), "--label-column", "kind",
             "--family", "aitchison", "--k", "1", "--test-n", "2", "--B", "2",
             "--seed", "1", "--output", str(out)]
        )
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: every grid cell failed, the first at alpha=None: "
            "ZeroInAitchison: dataset row 1, column a is zero\n"
        )
        assert not out.exists()

    def test_default_grid_yields_21_by_15_cells(self, data_csv, tmp_path):
        out = tmp_path / "grid.json"
        rc = main(
            ["tune", "--input", str(data_csv), "--label-column", "kind",
             "--family", "tc", "--B", "2", "--test-n", "6",
             "--seed", "3", "--output", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert len(report["config"]["alphas"]) == 21
        assert len(report["config"]["ks"]) == 15
        assert len(report["result"]["cells"]) == 21 * 15

    def test_bytes_unchanged_by_debug_logging_and_short_prefixes(
        self, data_csv, tmp_path, monkeypatch, caplog
    ):
        # a margin of 1 sends most test rows to the exact fallback
        outputs = []
        runs = ((None, logging.WARNING), (None, logging.DEBUG), (1, logging.DEBUG))
        for margin, level in runs:
            if margin is not None:
                monkeypatch.setattr(
                    evaluation, "_prefix_margin", lambda n, t, kmax, B: margin
                )
            caplog.set_level(level, logger="simplexknn")
            caplog.clear()
            for fmt in ("json", "csv"):
                out = tmp_path / f"{margin}-{level}.{fmt}"
                assert self.run_tune(data_csv, out, fmt=fmt) == 0
                outputs.append(out.read_bytes())
            records = [r.getMessage() for r in caplog.records]
            prefix = [m for m in records if m.startswith("tune prefix: ")]
            # one record per alpha and run: 2 alphas, 2 formats
            assert len(prefix) == (0 if level == logging.WARNING else 2 * 2)
            if margin is not None:
                assert all(", 0 of " not in m for m in prefix)
        assert outputs[0::2] == [outputs[0]] * 3 and outputs[1::2] == [outputs[1]] * 3

    def test_dropped_columns_recorded_in_report(self, tmp_path):
        src = tmp_path / "ri.csv"
        src.write_text(
            "RI,a,b,kind\n1.5,60,40,x\n1.4,55,45,y\n1.6,30,70,x\n1.5,20,80,y\n"
        )
        out = tmp_path / "grid.json"
        rc = main(
            ["tune", "--input", str(src), "--label-column", "kind",
             "--family", "esov", "--alphas", "1", "--k", "1", "--B", "2",
             "--test-n", "2", "--seed", "1", "--output", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["config"]["columns_dropped"] == ["RI"]
        assert report["config"]["columns_used"] == ["a", "b"]

    def test_json_formats_no_csv_cell(self, data_csv, tmp_path, monkeypatch):
        """The CSV's cells are formatted only when the CSV is written."""
        calls = []
        fmt = cli._fmt
        monkeypatch.setattr(cli, "_fmt", lambda v: calls.append(v) or fmt(v))
        assert self.run_tune(data_csv, tmp_path / "grid.json") == 0
        assert calls == []
        assert self.run_tune(data_csv, tmp_path / "grid.csv", fmt="csv") == 0
        assert calls


class TestRocCommand:
    def test_glass_yields_six_curve_files(self, glass_csv, tmp_path):
        out_dir = tmp_path / "roc"
        rc = main(
            ["roc", "--input", str(glass_csv), "--label-column", "Type",
             "--drop", "Id", "--family", "tc", "--alpha", "1", "--k", "3",
             "--output-dir", str(out_dir)]
        )
        assert rc == 0
        assert len(list(out_dir.glob("roc_0*.csv"))) == 6
        summary = json.loads((out_dir / "roc_summary.json").read_text())
        assert len(summary["auc"]) == 6

    def test_per_class_files_and_summary(self, data_csv, tmp_path):
        out_dir = tmp_path / "roc"
        rc = main(
            ["roc", "--input", str(data_csv), "--label-column", "kind",
             "--family", "tc", "--alpha", "1", "--k", "3",
             "--output-dir", str(out_dir)]
        )
        assert rc == 0
        summary = json.loads((out_dir / "roc_summary.json").read_text())
        assert set(summary["auc"]) == {"class0", "class1", "class2"}
        for cls, name in summary["files"].items():
            with (out_dir / name).open(newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["threshold", "fpr", "tpr"]
            assert float(rows[1][1]) == 0.0 and float(rows[-1][2]) == 1.0
            assert 0.0 <= summary["auc"][cls] <= 1.0


class TestLociCommand:
    def test_csv_header_and_rows(self, tmp_path):
        out = tmp_path / "field.csv"
        rc = main(
            ["loci", "--family", "esov", "--alpha", "0.5", "--n", "12",
             "--output", str(out)]
        )
        assert rc == 0
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["c1", "c2", "c3", "x", "y", "value"]
        assert len(rows) - 1 == 13 * 14 // 2
        meta = json.loads((tmp_path / "field.csv.meta.json").read_text())
        assert meta["config"]["reference"] == [1 / 3, 1 / 3, 1 / 3]

    def test_custom_reference_and_json(self, tmp_path):
        out = tmp_path / "field.json"
        rc = main(
            ["loci", "--family", "hellinger", "--n", "6",
             "--reference", "0.2,0.3,0.5", "--format", "json",
             "--output", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["n_points"] == 7 * 8 // 2
        assert report["config"]["reference"] == [0.2, 0.3, 0.5]

    def test_domain_violating_reference_fails(self, tmp_path, capsys):
        rc = main(
            ["loci", "--family", "aitchison", "--n", "6",
             "--reference", "0.5,0.5,0", "--output", str(tmp_path / "x.csv")]
        )
        assert rc == 1
        assert "reference row 0, part 2 is zero" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "reference, message",
        [("-0.1,0.6,0.5", "contains negative parts"),
         ("nan,0.5,0.5", "contains non-finite parts"),
         ("0.5,0.5", "reference needs 3 parts")],
    )
    def test_reference_off_the_simplex_fails(self, tmp_path, capsys, reference, message):
        out = tmp_path / "x.csv"
        rc = main(
            ["loci", "--family", "esov", "--n", "3", f"--reference={reference}",
             "--output", str(out)]
        )
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_reference_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(
            ["loci", "--family", "esov", "--n", "3", "--reference=0.2,a,0.5",
             "--output", str(out)]
        )
        assert rc == 1
        message = "error: entry 'a' of --reference '0.2,a,0.5' is not a number\n"
        assert capsys.readouterr().err == message
        assert not out.exists()


class TestLociRuns:
    """loci writes its field a run at a time: a run of any size gives the bytes
    of the default run, and an invalid argument fails before any output."""

    @pytest.mark.parametrize("fields", [6, 6 * 7], ids=lambda f: f"{f // 6}-point-runs")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("family, alpha", [("esov", 0.5), ("tc", -0.5),
                                               ("aitchison", 1.0)])
    def test_any_run_size_gives_the_same_bytes(
        self, family, alpha, fmt, fields, tmp_path, monkeypatch
    ):
        argv = ["loci", "--family", family, f"--alpha={alpha!r}", "--n", "11",
                "--reference=0.1,0.3,0.6", "--format", fmt]
        assert main([*argv, "--output", str(tmp_path / "whole")]) == 0
        monkeypatch.setattr(cli, "_BLOCK_FIELDS", fields)
        monkeypatch.setattr(dataset, "_BLOCK_FIELDS", fields)
        assert main([*argv, "--output", str(tmp_path / "runs")]) == 0
        names = ["", ".meta.json"] if fmt == "csv" else [""]
        for name in names:
            whole = (tmp_path / f"whole{name}").read_bytes()
            assert (tmp_path / f"runs{name}").read_bytes() == whole
        report = json.loads((tmp_path / f"runs{names[-1]}").read_text())
        boundary = 3 * 11 if family != "esov" else 0  # zero parts skipped
        assert report["n_points"] == 12 * 13 // 2 - boundary

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [
        ["--n", "1"],
        ["--n", "0"],
        ["--reference=0.5,0.5"],
        ["--alpha=nan"],
        ["--alpha=-0.5", "--reference=0.5,0.5,0"],
    ], ids=" ".join)
    def test_invalid_argument_keeps_the_old_output(self, bad, fmt, tmp_path, capsys):
        out = tmp_path / "field"
        files = [out, tmp_path / "field.meta.json"]
        for path in files:
            path.write_bytes(b"old output\n")
        argv = ["loci", "--family", "tc", "--format", fmt, "--output", str(out), *bad]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert [path.read_bytes() for path in files] == [b"old output\n"] * 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["field", "field.meta.json"]


class TestDistCommand:
    def test_matrix_matches_library(self, data_csv, tmp_path):
        out = tmp_path / "dist.csv"
        rc = main(
            ["dist", "--input", str(data_csv), "--label-column", "kind",
             "--family", "esov", "--alpha", "0.5", "--output", str(out)]
        )
        assert rc == 0
        data = ingest_csv(data_csv, "kind", drop_columns=())
        expected = pairwise_distances(data, data.rows, MetricSpec("esov", 0.5))
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))
        got = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        np.testing.assert_array_equal(got, expected)


class TestTransformCommand:
    def test_ternary_columns_present_for_three_parts(self, tmp_path):
        src = tmp_path / "tern.csv"
        src.write_text(
            "a,b,c,kind\n0.2,0.3,0.5,x\n0.5,0.25,0.25,y\n0.1,0.1,0.8,x\n"
        )
        out = tmp_path / "tr.csv"
        rc = main(
            ["transform", "--input", str(src), "--label-column", "kind",
             "--alpha", "0.5", "--output", str(out)]
        )
        assert rc == 0
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["a", "b", "c", "kind", "x", "y"]
        parts = np.array([[float(v) for v in row[:3]] for row in rows[1:]])
        np.testing.assert_allclose(parts.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_part_under_negative_alpha_names_the_column(self, tmp_path, capsys):
        src = tmp_path / "tern.csv"
        src.write_text("Na,Mg,Ba,kind\n0.2,0.3,0.5,x\n0.5,0.5,0,y\n")
        out = tmp_path / "tr.csv"
        rc = main(
            ["transform", "--input", str(src), "--label-column", "kind",
             "--alpha=-0.5", "--output", str(out)]
        )
        assert rc == 1
        err = "error: dataset row 1, column Ba is zero under alpha=-0.5\n"
        assert capsys.readouterr().err == err
        assert not out.exists()

    def test_four_part_data_has_no_plot_columns(self, data_csv, tmp_path):
        out = tmp_path / "tr.csv"
        rc = main(
            ["transform", "--input", str(data_csv), "--label-column", "kind",
             "--alpha", "2", "--output", str(out)]
        )
        assert rc == 0
        with out.open(newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["part1", "part2", "part3", "part4", "kind"]


def _float_or_none(text):
    return None if text == "" else float(text)


def _dist_from_csv(header, rows):
    assert [row[0] for row in rows] == [str(i) for i in range(len(rows))]
    return [[float(v) for v in row[1:]] for row in rows]


def _transform_from_csv(header, rows):
    n = header.index("kind")
    return [
        {"parts": [float(v) for v in row[:n]], "label": row[n],
         **dict(zip(header[n + 1:], map(float, row[n + 1:])))}
        for row in rows
    ]


def _tune_from_csv(header, rows):
    n_classes = (len(header) - 5) // 4
    cells = []
    for row in rows:
        stats = [[_float_or_none(row[4 + 4 * c + s]) for c in range(n_classes)]
                 for s in range(4)]
        cells.append({
            "alpha": _float_or_none(row[0]),
            "k": int(row[1]),
            "mean_accuracy": _float_or_none(row[2]),
            "sd_accuracy": _float_or_none(row[3]),
            **{name: None if None in values else values
               for name, values in zip(
                   ("sensitivity_mean", "sensitivity_sd",
                    "specificity_mean", "specificity_sd"), stats)},
            "error": row[-1] or None,
        })
    return cells


def _loci_from_csv(header, rows):
    return [dict(zip(header, (float(v) for v in row))) for row in rows]


class TestReportFormats:
    """A JSON report and a CSV with its sidecar carry the same report."""

    DATA = ["--input", "{data}", "--label-column", "kind"]
    TUNE = ["--alphas=-1,0.5", "--k", "1,3", "--B", "6", "--test-n", "6",
            "--seed", "3"]
    CASES = {
        "dist": (["dist", *DATA, "--family", "tc", "--alpha", "0.5"],
                 "matrix", _dist_from_csv),
        "transform": (["transform", *DATA, "--alpha", "0.5"],
                      "rows", _transform_from_csv),
        "tune-esov": (["tune", *DATA, "--family", "esov", *TUNE],
                      "cells", _tune_from_csv),
        "tune-hellinger": (["tune", *DATA, "--family", "hellinger", *TUNE],
                           "cells", _tune_from_csv),
        "loci": (["loci", "--family", "esov", "--alpha=-0.5", "--n", "8",
                  "--reference=0.2,0.3,0.5"], "points", _loci_from_csv),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_json_equals_csv_and_sidecar(self, case, data_csv, tmp_path):
        argv, key, from_csv = self.CASES[case]
        if case == "transform":  # three parts, so rows carry plot coordinates
            data_csv = tmp_path / "tern.csv"
            data_csv.write_text("a,b,c,kind\n0.2,0.3,0.5,x\n0,0.2,0.8,y\n")
        argv = [arg.format(data=data_csv) for arg in argv]
        as_json, as_csv = tmp_path / "out.json", tmp_path / "out.csv"
        assert main([*argv, "--format", "json", "--output", str(as_json)]) == 0
        assert main([*argv, "--format", "csv", "--output", str(as_csv)]) == 0

        report = json.loads(as_json.read_text())
        sidecar = json.loads((tmp_path / "out.csv.meta.json").read_text())
        holder = report["result"] if key == "cells" else report
        values = holder.pop(key)
        assert report["config"].pop("format") == "json"
        assert sidecar["config"].pop("format") == "csv"
        assert report == sidecar
        with as_csv.open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert values == from_csv(header, rows)

    @pytest.mark.parametrize("target", ["report", "sidecar", "roc-summary"])
    def test_failed_json_write_keeps_the_old_file(
        self, target, data_csv, tmp_path, monkeypatch, capsys
    ):
        """A JSON file is whole or not at all, as a CSV is: a write that fails
        partway leaves the old file's bytes and no temporary file."""
        if target == "roc-summary":
            argv = ["roc", "--input", str(data_csv), "--label-column", "kind",
                    "--family", "tc", "--k", "3", "--output-dir", str(tmp_path)]
            path = tmp_path / "roc_summary.json"
        else:
            fmt = "json" if target == "report" else "csv"
            argv = ["loci", "--family", "esov", "--n", "8", "--format", fmt,
                    "--output", str(tmp_path / "out")]
            path = tmp_path / ("out" if target == "report" else "out.meta.json")
        path.write_bytes(b"old report\n")

        def dump_partway(obj, fh, **kwargs):
            fh.write('{\n  "tool": ')
            raise OSError("no space left")

        monkeypatch.setattr(json, "dump", dump_partway)
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: no space left\n"
        assert path.read_bytes() == b"old report\n"
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def _reference_csv(header, rows) -> bytes:
    """The CSV bytes of csv.writer's default dialect: the writer's oracle."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _repr_row(values):
    return [repr(v) for v in values]


ODD_FLOATS = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
              1e16, 1e-5, 0.1 + 0.2]
ODD_LABELS = ["a,b", 'say "hi"', "two\nlines", " lead", "argile-limoneuseé"]


class TestCsvWriter:
    """The block writer writes the bytes of csv.writer with repr'd floats."""

    @pytest.fixture(params=[None, 1, 7, 64], ids=lambda b: f"block-{b}")
    def block(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(dataset, "_BLOCK_FIELDS", request.param)

    def test_odd_values_and_labels(self, block, tmp_path):
        rng = np.random.default_rng(5)
        n = 40
        values = rng.choice(ODD_FLOATS, size=(n, 3))
        values[::5, 1] = np.copysign(0.0, -1.0)
        labels = [ODD_LABELS[i % len(ODD_LABELS)] for i in range(n)]
        texts = ["" if i % 3 else "err, with comma" for i in range(n)]
        header = ["p1", "p,2", "p3", "label", "value", "error"]
        out = tmp_path / "t.csv"
        # values[:, :0] is transform's (b, 0) plot column for other than 3 parts
        columns = [values, labels, values[:, :0], values[:, 0], texts]
        dataset._write_table(out, header, [columns])
        expected = [
            _repr_row(v.tolist()) + [lab, repr(float(v[0])), t]
            for v, lab, t in zip(values, labels, texts)
        ]
        assert out.read_bytes() == _reference_csv(header, expected)

    def test_write_csv(self, block, tmp_path):
        rows = np.array([ODD_FLOATS[i : i + 3] for i in range(len(ODD_FLOATS) - 2)])
        labels = np.arange(len(rows)) % len(ODD_LABELS)
        data = LabeledDataset(rows, labels, ODD_LABELS, ("x", "y", "z"))
        out = tmp_path / "d.csv"
        write_csv(data, out, label_column="kind")
        expected = [_repr_row(r.tolist()) + [ODD_LABELS[c]] for r, c in zip(rows, labels)]
        assert out.read_bytes() == _reference_csv(["x", "y", "z", "kind"], expected)

    @pytest.mark.parametrize("n_parts", [3, 4])
    def test_transform(self, block, tmp_path, n_parts):
        rng = np.random.default_rng(n_parts)
        rows = rng.dirichlet(np.ones(n_parts), size=30)
        rows[0, :3] = [5e-324, 1e16, 1e-5]
        rows[1, :3] = [0.1, 0.2, 0.0]
        names = [f"c{i}" for i in range(n_parts)]
        labels = [ODD_LABELS[i % len(ODD_LABELS)].strip() for i in range(30)]
        src = tmp_path / "in.csv"
        src.write_bytes(_reference_csv(names + ["kind"], [
            _repr_row(r.tolist()) + [lab] for r, lab in zip(rows, labels)
        ]))
        out = tmp_path / "tr.csv"
        rc = main(["transform", "--input", str(src), "--label-column", "kind",
                   "--alpha", "0.5", "--output", str(out)])
        assert rc == 0
        data = ingest_csv(src, "kind")
        parts = power_transform(data.rows, 0.5)
        header = names + ["kind"] + (["x", "y"] if n_parts == 3 else [])
        expected = [
            _repr_row(p) + [data.classes[c]]
            + (_repr_row(ternary_embed(np.array(p)).tolist()) if n_parts == 3 else [])
            for p, c in zip(parts.tolist(), data.labels)
        ]
        assert out.read_bytes() == _reference_csv(header, expected)

    def test_dist(self, block, data_csv, tmp_path):
        out = tmp_path / "dist.csv"
        rc = main(["dist", "--input", str(data_csv), "--label-column", "kind",
                   "--family", "esov", "--alpha", "0.5", "--output", str(out)])
        assert rc == 0
        data = ingest_csv(data_csv, "kind")
        matrix = pairwise_distances(data, data.rows, MetricSpec("esov", 0.5))
        header = ["row"] + [f"r{j}" for j in range(len(data))]
        expected = [[i] + _repr_row(row.tolist()) for i, row in enumerate(matrix)]
        assert out.read_bytes() == _reference_csv(header, expected)

    def test_tune_with_error_cells(self, block, tmp_path):
        src = tmp_path / "zeros.csv"
        src.write_text("a,b,c,kind\n0.5,0.5,0,x\n0.2,0.3,0.5,y\n0.4,0.1,0.5,x\n"
                       "0.3,0.3,0.4,y\n0.6,0.2,0.2,x\n0.1,0.6,0.3,y\n")
        out = tmp_path / "grid.csv"
        argv = ["--alphas=-1,0.5", "--k", "1,2", "--B", "4", "--test-n", "2",
                "--seed", "9"]
        rc = main(["tune", "--input", str(src), "--label-column", "kind",
                   "--family", "esov", *argv, "--format", "csv", "--output", str(out)])
        assert rc == 0
        result = grid_search(ingest_csv(src, "kind"), [-1.0, 0.5], [1, 2], "esov",
                             B=4, test_total=2, seed=9)
        assert any("," in (c.error or "") for c in result.cells)

        def fmt(v):
            return "" if v is None else repr(v) if isinstance(v, float) else str(v)

        header = ["alpha", "k", "mean_accuracy", "sd_accuracy"]
        for cls in result.classes:
            header += [f"{s}_{cls}" for s in ("sensitivity_mean", "sensitivity_sd",
                                              "specificity_mean", "specificity_sd")]
        header.append("error")
        expected = []
        for cell in result.cells:
            row = [fmt(cell.alpha), fmt(cell.k), fmt(cell.mean_accuracy),
                   fmt(cell.sd_accuracy)]
            for c in range(len(result.classes)):
                for stats in (cell.sensitivity_mean, cell.sensitivity_sd,
                              cell.specificity_mean, cell.specificity_sd):
                    row.append(fmt(stats[c]) if stats is not None else "")
            expected.append(row + [cell.error or ""])
        assert out.read_bytes() == _reference_csv(header, expected)

    def test_loci_asymmetric_reference(self, block, tmp_path):
        out = tmp_path / "field.csv"
        rc = main(["loci", "--family", "tc", "--alpha=-0.5", "--n", "9",
                   "--reference=0.1,0.3,0.6", "--output", str(out)])
        assert rc == 0
        field = distance_field(MetricSpec("tc", -0.5), [0.1, 0.3, 0.6], 9)
        points = np.column_stack([field.parts, ternary_embed(field.parts), field.values])
        expected = [_repr_row(row) for row in points.tolist()]
        assert out.read_bytes() == _reference_csv(
            ["c1", "c2", "c3", "x", "y", "value"], expected
        )


class TestStreamedTransform:
    """transform reads, transforms and writes a block of rows at a time, with
    the outputs and errors of reading the whole file first."""

    # 7 rows on lines 2-8; with 2-row blocks, rows 0-1, 2-3, 4-5 and 6; c
    # first appears in the third block
    ROWS = ["0.2,0.3,0.5,a", "0.5,0.25,0.25,b", "70,20,10,a", "1,1,2,b",
            "0.1,0.1,0.8,c", "0.3,0.3,0.4,a", "5e-324,0.5,0.5,b"]

    @pytest.fixture
    def blocks(self, monkeypatch):
        monkeypatch.setattr(dataset, "_READ_ROWS", 2)

    def run(self, tmp_path, edits, *args, out="out.csv"):
        rows = list(self.ROWS)
        for row, text in edits.items():
            rows[row] = text
        src = tmp_path / "in.csv"
        src.write_text("a,b,c,kind\n" + "\n".join(rows) + "\n")
        return main(["transform", "--input", str(src), "--label-column", "kind",
                     *args, "--output", str(tmp_path / out)])

    FAULTS = {
        "non-finite-beats-earlier-negative": (
            {1: "0.5,-0.25,0.25,b", 4: "nan,0.1,0.8,c"}, ["--alpha", "0.5"],
            "line 6, column 'a' contains non-finite parts"),
        "negative-beats-earlier-all-zero": (
            {0: "0,0,0,a", 5: "0.3,-0.3,0.4,a"}, ["--alpha", "0.5"],
            "line 7, column 'b' contains negative parts"),
        "first-negative-of-two-blocks": (
            {2: "70,-20,10,a", 5: "0.3,-0.3,0.4,a"}, ["--alpha", "0.5"],
            "line 4, column 'b' contains negative parts"),
        "parse-error-beats-earlier-domain-fault": (
            {0: "0.2,-0.3,0.5,a", 5: "0.3,oops,0.4,a"}, ["--alpha", "0.5"],
            "line 7, column 'b': not numeric: 'oops'"),
        "zero-named-by-its-dataset-row": (
            {5: "0.3,0.7,0,a"}, ["--alpha=-0.5"],
            "dataset row 5, column c is zero under alpha=-0.5"),
        "parse-error-beats-earlier-zero": (
            {0: "0.2,0,0.8,a", 4: "0.1,0.1,c"}, ["--alpha=-0.5"],
            "line 6: expected 4 fields, got 3"),
        "domain-fault-beats-earlier-zero": (
            {1: "0,0.5,0.5,b", 6: "1,2,inf,b"}, ["--alpha=-0.5"],
            "line 8, column 'c' contains non-finite parts"),
        "bad-alpha-after-every-row": (
            {6: "1,2,3,"}, ["--alpha", "inf"], "line 8: empty label"),
    }

    @pytest.mark.parametrize("case", FAULTS)
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fault_order_and_no_partial_output(
        self, blocks, tmp_path, capsys, case, existing, fmt
    ):
        edits, args, message = self.FAULTS[case]
        out = tmp_path / "out.csv"
        if existing:
            out.write_bytes(b"kept\r\n")
        assert self.run(tmp_path, edits, *args, "--format", fmt) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"{message}\n"), err
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["in.csv", "out.csv"] if existing else ["in.csv"]
        )
        if existing:
            assert out.read_bytes() == b"kept\r\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("alpha", ["0.5", "-2", "0"])
    def test_blocks_write_the_whole_file_bytes(self, monkeypatch, tmp_path, fmt, alpha):
        outputs = []
        for block in (dataset._READ_ROWS, 2, 3):
            monkeypatch.setattr(dataset, "_READ_ROWS", block)
            name = f"out{block}.{fmt}"
            args = [f"--alpha={alpha}", "--format", fmt]
            assert self.run(tmp_path, {}, *args, out=name) == 0
            files = [tmp_path / name, tmp_path / f"{name}.meta.json"]
            outputs.append([f.read_bytes() if f.exists() else None for f in files])
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        report = json.loads(outputs[0][1] or outputs[0][0])
        assert report["config"]["n_rows"] == 7
        assert report["config"]["classes"] == ["a", "b", "c"]

    def test_existing_output_keeps_its_mode(self, blocks, tmp_path):
        out = tmp_path / "out.csv"
        out.write_text("old")
        out.chmod(0o640)
        assert self.run(tmp_path, {}, "--alpha", "0.5") == 0
        assert out.stat().st_mode & 0o777 == 0o640
        fresh = tmp_path / "fresh.csv"
        with fresh.open("w"):
            pass
        assert self.run(tmp_path, {}, "--alpha", "0.5", out="new.csv") == 0
        assert (tmp_path / "new.csv").stat().st_mode == fresh.stat().st_mode

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_is_written_in_place(self, blocks, tmp_path):
        assert self.run(tmp_path, {}, "--alpha", "0.5", out="file.csv") == 0
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # the output fits its buffer
        try:
            assert self.run(tmp_path, {}, "--alpha", "0.5", out="pipe") == 0
            got = os.read(fd, 1 << 16)
        finally:
            os.close(fd)
        assert got == (tmp_path / "file.csv").read_bytes()


def test_loci_of_several_blocks(tmp_path):
    """A field of 7,381 points, written in blocks, holds one distance call's bits."""
    spec, reference = MetricSpec("esov", 0.5), [0.1, 0.3, 0.6]
    out = tmp_path / "field.csv"
    assert main(["loci", "--family", "esov", "--alpha", "0.5", "--n", "120",
                 "--reference=0.1,0.3,0.6", "--output", str(out)]) == 0
    field = distance_field(spec, reference, 120)
    np.testing.assert_array_equal(field.values, distance(spec, field.parts, reference))
    points = np.column_stack([field.parts, ternary_embed(field.parts), field.values])
    expected = [_repr_row(row) for row in points.tolist()]
    assert out.read_bytes() == _reference_csv(
        ["c1", "c2", "c3", "x", "y", "value"], expected
    )
    meta = json.loads((tmp_path / "field.csv.meta.json").read_text())
    assert meta["n_points"] == len(field.values) == 121 * 122 // 2


def _traced_peak(argv) -> int:
    """The tracemalloc peak, in bytes, of one main(argv) call."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    def test_transform_peak_does_not_grow_with_rows(self, tmp_path):
        rng = np.random.default_rng(11)
        peaks = []
        for n in (5_000, 50_000):
            src = tmp_path / f"rows{n}.csv"
            rows = rng.dirichlet(np.ones(3), size=n).tolist()
            src.write_text("a,b,c,kind\n" + "".join(
                f"{a!r},{b!r},{c!r},{'xyz'[i % 3]}\n" for i, (a, b, c) in enumerate(rows)
            ))
            peaks.append(_traced_peak(
                ["transform", "--input", str(src), "--label-column", "kind",
                 "--alpha", "0.5", "--output", str(tmp_path / "out.csv")]
            ))
        assert abs(peaks[1] - peaks[0]) < 2**20, peaks

    def test_loci_peak_does_not_grow_with_n(self, tmp_path):
        """The field is built, measured and written a run at a time: 16 times
        the points (5.5 MiB of parts and values at n 600) add no memory."""
        peaks = [
            _traced_peak(["loci", "--family", "esov", "--alpha", "0.5", "--n", str(n),
                          "--output", str(tmp_path / "field.csv")])
            for n in (150, 600)
        ]
        assert abs(peaks[1] - peaks[0]) < 2**20, peaks


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                 "(100000, 100000) and data type float64"),
     "error: Unable to allocate 74.5 GiB for an array with shape "
     "(100000, 100000) and data type float64\n"),
    (MemoryError(), "error: out of memory\n"),
])
def test_memory_error_is_reported(error, message, data_csv, tmp_path, monkeypatch, capsys):
    """Running out of memory is one error line and exit status 1, no traceback,
    and leaves no output behind."""
    def pairwise_distances(*args):
        raise error

    monkeypatch.setattr(cli, "pairwise_distances", pairwise_distances)
    out = tmp_path / "dist.csv"
    assert main(["dist", "--input", str(data_csv), "--label-column", "kind",
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_cli_leaves_hashlib_unloaded(tmp_path):
    """Only tune hashes its splits: the CLI and loci load no libcrypto."""
    code = (
        "import sys\n"
        "import simplexknn.cli\n"
        "assert '_hashlib' not in sys.modules\n"
        "assert simplexknn.cli.main(sys.argv[1:]) == 0\n"
        "assert '_hashlib' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(simplexknn.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, "loci", "--family", "esov", "--alpha", "0.5",
         "--n", "12", "--output", str(tmp_path / "field.csv")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "field.csv").exists()


def _child_env(**env) -> dict:
    """os.environ without OPENBLAS_NUM_THREADS (importing cli here set it), plus env."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return dict(base, PYTHONPATH=str(Path(simplexknn.__file__).parents[1]), **env)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_process_runs_one_blas_thread():
    """The CLI sizes OpenBLAS's pool before numpy loads: no idle worker spins."""
    code = (
        "import os, simplexknn.cli\n"
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]


@pytest.mark.parametrize("code, env, expected", [
    ("import simplexknn.cli", {"OPENBLAS_NUM_THREADS": "3"}, "3"),  # the caller's wins
    ("import simplexknn, numpy\nfrom simplexknn import *", {}, None),  # the library sets none
])
def test_blas_thread_setting_is_the_callers(code, env, expected):
    code += "\nimport os\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(**env),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(expected)


def test_transform_ignores_a_byte_order_mark(tmp_path):
    """An Excel "CSV UTF-8" export, label first, transforms as the file without its BOM."""
    text = "kind,a,b,c\nx,0.2,0.3,0.5\ny,5,2.5,2.5\n".encode()
    outputs = []
    for name, blob in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
        src, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.out.csv"
        src.write_bytes(blob)
        assert main(["transform", "--input", str(src), "--label-column", "kind",
                     "--alpha", "0.5", "--output", str(out)]) == 0
        meta = json.loads((tmp_path / f"{name}.out.csv.meta.json").read_text(encoding="utf-8"))
        assert meta["config"]["columns_used"] == ["a", "b", "c"]
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(b"a,b,c,kind,x,y\r\n")


def test_utf8_files_whatever_the_locale(tmp_path):
    """Input and output are UTF-8 even where the locale's encoding is ASCII."""
    label = "argile-limoneuseé"
    src = tmp_path / "soil.csv"
    src.write_bytes(f"a,b,c,kind\n0.2,0.3,0.5,{label}\n0.5,0.25,0.25,x\n".encode())
    out = tmp_path / "tr.csv"
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(simplexknn.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "simplexknn.cli", "transform", "--input", str(src),
         "--label-column", "kind", "--alpha", "1", "--output", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [[0.2, 0.3, 0.5], [0.5, 0.25, 0.25]]  # on the simplex: kept as read
    expected = [
        _repr_row(r) + [lab] + _repr_row(ternary_embed(np.array(r)).tolist())
        for r, lab in zip(rows, [label, "x"])
    ]
    assert out.read_bytes() == _reference_csv(["a", "b", "c", "kind", "x", "y"], expected)
    meta = json.loads((tmp_path / "tr.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["config"]["classes"] == [label, "x"]
