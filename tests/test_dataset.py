import numpy as np
import pytest

from simplexknn import IngestionError, LabeledDataset, dataset, ingest_csv, write_csv


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


GOOD = """Na,Mg,Fe,Type
70.0,20.0,10.0,a
1.0,1.0,2.0,b
0.25,0.25,0.5,a
"""


class TestIngest:
    def test_basic_shape_and_catalog(self, tmp_path):
        data = ingest_csv(write(tmp_path, GOOD), "Type")
        assert len(data) == 3
        assert data.n_parts == 3
        assert data.classes == ("a", "b")  # first-appearance order
        assert data.feature_names == ("Na", "Mg", "Fe")
        np.testing.assert_array_equal(data.labels, [0, 1, 0])

    def test_percent_rows_are_closed(self, tmp_path):
        data = ingest_csv(write(tmp_path, GOOD), "Type")
        np.testing.assert_allclose(data.rows.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(data.rows[0], [0.7, 0.2, 0.1], atol=1e-15)

    def test_unit_rows_kept_bitwise(self, tmp_path):
        data = ingest_csv(write(tmp_path, GOOD), "Type")
        np.testing.assert_array_equal(data.rows[2], [0.25, 0.25, 0.5])

    @pytest.mark.parametrize(
        "value, fault",
        [("-0.1", "negative"), ("inf", "non-finite"), ("nan", "non-finite")],
    )
    def test_bad_entry_names_row_and_column(self, tmp_path, value, fault):
        bad = f"a,b,c,Type\n0.5,0.5,0.0,x\n0.5,{value},0.6,y\n"
        with pytest.raises(IngestionError, match=rf"line 3.*'b'.*{fault}"):
            ingest_csv(write(tmp_path, bad), "Type")

    def test_all_zero_row_names_row(self, tmp_path):
        bad = "a,b,c,Type\n0,0,0,x\n"
        with pytest.raises(IngestionError, match="line 2.*all parts are zero"):
            ingest_csv(write(tmp_path, bad), "Type")

    def test_non_numeric_entry(self, tmp_path):
        bad = "a,b,Type\n0.5,oops,x\n"
        with pytest.raises(IngestionError, match="line 2.*'b'.*not numeric"):
            ingest_csv(write(tmp_path, bad), "Type")

    def test_missing_label_column(self, tmp_path):
        with pytest.raises(IngestionError, match="'Klass'"):
            ingest_csv(write(tmp_path, GOOD), "Klass")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ingest_csv(tmp_path / "nope.csv", "Type")

    def test_ri_dropped_by_default(self, tmp_path):
        text = "RI,Na,Mg,Type\n1.5,70,30,a\n1.4,60,40,b\n"
        data = ingest_csv(write(tmp_path, text), "Type")
        assert data.feature_names == ("Na", "Mg")

    def test_explicit_drop_columns(self, tmp_path):
        text = "Id,RI,Na,Mg,Type\n1,1.5,70,30,a\n2,1.4,60,40,b\n"
        data = ingest_csv(write(tmp_path, text), "Type", drop_columns=("Id", "RI"))
        assert data.feature_names == ("Na", "Mg")

    def test_ragged_row_rejected(self, tmp_path):
        bad = "a,b,Type\n0.5,0.5,x\n0.5,x\n"
        with pytest.raises(IngestionError, match="line 3"):
            ingest_csv(write(tmp_path, bad), "Type")

    def test_zero_parts_are_allowed(self, tmp_path):
        text = "a,b,c,Type\n0.5,0.5,0.0,x\n0,0.4,0.6,y\n"
        data = ingest_csv(write(tmp_path, text), "Type")
        assert (data.rows == 0).sum() == 2

    @pytest.mark.parametrize("text", [GOOD, "Type,Na,Mg,Fe\na,70,20,10\nb,1,1,2\n"])
    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, text):
        """An Excel "CSV UTF-8" file starts with a BOM, on a part or the label."""
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        data = ingest_csv(path, "Type")
        assert data.feature_names == ("Na", "Mg", "Fe")
        assert data.classes == ("a", "b")
        np.testing.assert_array_equal(data.rows, ingest_csv(write(tmp_path, text), "Type").rows)


class TestBlockedIngest:
    """Parsing in blocks of _READ_ROWS rows changes no value and no message."""

    # 8 data rows on lines 2-9: with 3-row blocks, lines 4 | 5 and 7 | 8
    # straddle block boundaries, and class c first appears in the third block
    ROWS = ["0.5,0.25,0.25,a", "70,20,10,b", " 1e-5 ,1e16,1,a", "0,0.5,0.5,b",
            "5e-324,0.5,0.5,a", "0.1,0.2,0.7,b", "1,2,3,c", "0.3,0.3,0.4,a"]

    def ingest_both(self, monkeypatch, tmp_path, rows):
        path = write(tmp_path, "a,b,c,Type\n" + "\n".join(rows) + "\n")
        results = []
        for block in (dataset._READ_ROWS, 3):
            monkeypatch.setattr(dataset, "_READ_ROWS", block)
            try:
                results.append(ingest_csv(path, "Type"))
            except IngestionError as exc:
                results.append(str(exc))
        return results

    def test_same_dataset_bit_for_bit(self, monkeypatch, tmp_path):
        whole, blocked = self.ingest_both(monkeypatch, tmp_path, self.ROWS)
        assert whole.equals(blocked)
        assert blocked.classes == ("a", "b", "c")
        np.testing.assert_array_equal(blocked.labels, [0, 1, 0, 1, 0, 1, 2, 0])
        assert np.array_equal(whole.rows.view(np.int64), blocked.rows.view(np.int64))
        assert blocked.rows[4, 0] == 5e-324

    @pytest.mark.parametrize("line", [4, 5, 7, 8])
    @pytest.mark.parametrize(
        "bad, message",
        [("0.5,oops,0.5,a", "line {}, column 'b': not numeric: 'oops'"),
         ("0.5,0.5,a", "line {}: expected 4 fields, got 3"),
         ("0.5,0.25,0.25, ", "line {}: empty label"),
         ("0.5,-0.25,0.25,a", "line {}, column 'b' contains negative parts"),
         ("0,0,0,a", "line {} is degenerate, all parts are zero")],
    )
    def test_same_error_either_side_of_a_boundary(
        self, monkeypatch, tmp_path, line, bad, message
    ):
        rows = list(self.ROWS)
        rows[line - 2] = bad
        whole, blocked = self.ingest_both(monkeypatch, tmp_path, rows)
        assert whole == blocked
        assert blocked.endswith(": " + message.format(line))

    @pytest.mark.parametrize(
        "rows, message",
        [
            # a label spanning lines 2-3, then a bad value on line 4
            (['0.5,0.25,0.25,"two\nlines"', "0.5,oops,0.5,a"],
             "line 4, column 'b': not numeric: 'oops'"),
            # rows spanning lines 2-3 and 5-7, the faulty row on line 8
            (['0.5,0.25,0.25,"two\nlines"', "70,20,10,b",
              '1,2,3,"three\nline\nlabel"', "0.5,-0.25,0.25,a"],
             "line 8, column 'b' contains negative parts"),
            (['0.5,0.25,0.25,"two\nlines"', "70,20,10,b",
              '1,2,3,"three\nline\nlabel"', "0,0,0,a"],
             "line 8 is degenerate, all parts are zero"),
            (['0.5,0.25,0.25,"two\nlines"', "70,20,10,b",
              '1,2,3,"three\nline\nlabel"', "0.5,0.5,a"],
             "line 8: expected 4 fields, got 3"),
        ],
    )
    def test_errors_name_the_physical_line(self, monkeypatch, tmp_path, rows, message):
        whole, blocked = self.ingest_both(monkeypatch, tmp_path, rows)
        assert whole == blocked
        assert blocked.endswith(": " + message)


class TestPaddedParts:
    """A part reads as float(token.strip()), though float alone keeps
    \\x1c-\\x1f, in one-row blocks as in the default ones."""

    PADS = [" ", "\t", "\xa0", "\u2003", "\x1f"]
    BARE = ["0.5,0.25,0.25,a", "70,20,10,b", "1e-5,1e16,1,a"]

    @pytest.fixture(params=[None, 1], ids=lambda b: f"read-rows-{b}")
    def read_rows(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(dataset, "_READ_ROWS", request.param)

    def ingest(self, tmp_path, rows, name="data.csv"):
        path = tmp_path / name
        path.write_text("a,b,c,Type\n" + "\n".join(rows) + "\n", encoding="utf-8")
        return ingest_csv(path, "Type")

    def test_padding_keeps_the_bits(self, read_rows, tmp_path):
        # every pad on each side of some part: left PADS[k], right PADS[k + 2]
        padded = []
        for i, row in enumerate(self.BARE):
            *parts, label = row.split(",")
            padded.append(",".join(
                [self.PADS[k % 5] + part + self.PADS[(k + 2) % 5]
                 for k, part in enumerate(parts, start=3 * i)] + [label]
            ))
        bare = self.ingest(tmp_path, self.BARE)
        again = self.ingest(tmp_path, padded, "padded.csv")
        assert again.equals(bare)
        assert np.array_equal(again.rows.view(np.int64), bare.rows.view(np.int64))

    @pytest.mark.parametrize(
        "bad, message",
        [("0.5, oops ,0.5,a", "column 'b': not numeric: 'oops'"),
         ("0.5,oops,nope,a", "column 'b': not numeric: 'oops'"),
         ("x,0.5,\tnope\xa0,a", "column 'a': not numeric: 'x'"),
         ("\x1f0.5,0.5, oops\x1f,a", "column 'c': not numeric: 'oops'")],
    )
    def test_first_bad_part_named_stripped(self, read_rows, tmp_path, bad, message):
        with pytest.raises(IngestionError) as exc:
            self.ingest(tmp_path, [self.BARE[0], bad])
        assert str(exc.value).endswith(": line 3, " + message)


class TestRoundTrip:
    def test_write_then_ingest_is_identical(self, tmp_path, blob_dataset):
        path = tmp_path / "out.csv"
        write_csv(blob_dataset, path, label_column="class")
        again = ingest_csv(path, "class", drop_columns=())
        assert again.rows.shape == blob_dataset.rows.shape
        np.testing.assert_array_equal(again.rows, blob_dataset.rows)
        np.testing.assert_array_equal(again.labels, blob_dataset.labels)
        assert again.classes == blob_dataset.classes

    def test_round_trip_after_percent_ingestion(self, tmp_path):
        first = ingest_csv(write(tmp_path, GOOD), "Type")
        path = tmp_path / "echo.csv"
        write_csv(first, path, label_column="Type")
        second = ingest_csv(path, "Type")
        assert first.equals(second)


class TestLabeledDataset:
    def test_rows_are_read_only(self, blob_dataset):
        with pytest.raises(ValueError):
            blob_dataset.rows[0, 0] = 0.5

    def test_class_counts(self, blob_dataset):
        np.testing.assert_array_equal(blob_dataset.class_counts(), [12, 10, 8])

    def test_subset_keeps_catalog(self, blob_dataset):
        sub = blob_dataset.subset([0, 1, 2])
        assert sub.classes == blob_dataset.classes
        assert len(sub) == 3

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.full((2, 3), 1 / 3), [0, 5], ("only",))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.full((2, 3), 1 / 3), [0], ("only",))

    @pytest.mark.parametrize("labels", [[0.7, 1.9], [True, False], np.array([0.5, 1.0])])
    def test_fractional_or_boolean_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="labels must be whole numbers"):
            LabeledDataset(np.full((2, 3), 1 / 3), labels, ("a", "b"))

    def test_whole_float_labels_kept(self):
        data = LabeledDataset(np.full((2, 3), 1 / 3), [1.0, 0.0], ("a", "b"))
        assert data.labels.tolist() == [1, 0]

    def test_subset_rejects_fractional_indices(self, blob_dataset):
        with pytest.raises(ValueError, match="indices must be whole numbers"):
            blob_dataset.subset([0.5, 2.7])
        assert blob_dataset.subset([2.0, 0.0]).equals(blob_dataset.subset([2, 0]))

    def test_subset_takes_a_boolean_mask(self):
        rows = np.array([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]])
        data = LabeledDataset(rows, [0, 1, 0], ("a", "b"))
        sub = data.subset(np.array([True, False, True]))
        np.testing.assert_array_equal(sub.rows, rows[[0, 2]])
        assert sub.labels.tolist() == [0, 0]
        with pytest.raises(IndexError):  # as numpy indexing: one flag per row
            data.subset(np.array([True, False]))
