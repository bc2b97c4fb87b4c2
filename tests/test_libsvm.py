import gzip

import numpy as np
import pytest

from hcmm.libsvm import ParseError, load_dataset, parse_line

from conftest import write_libsvm


class TestParseLine:
    def test_basic(self):
        label, feats = parse_line("+1 2:0.5 7:-1.25")
        assert label == 1.0
        assert feats == [(2, 0.5), (7, -1.25)]

    def test_label_only(self):
        assert parse_line("-1") == (-1.0, [])

    def test_trailing_comment_ignored(self):
        label, feats = parse_line("1 3:2.0  # a comment 5:9")
        assert feats == [(3, 2.0)]

    def test_non_increasing_index(self):
        with pytest.raises(ParseError, match="non-increasing"):
            parse_line("1 3:1 2:1")

    def test_index_below_one(self):
        with pytest.raises(ParseError, match="< 1"):
            parse_line("1 0:1")

    def test_bad_value_reports_location(self):
        with pytest.raises(ParseError, match=":4:") as ei:
            parse_line("1 2:abc", lineno=4)
        assert ei.value.line == 4
        assert ei.value.column > 0

    def test_bad_label(self):
        with pytest.raises(ParseError, match="label"):
            parse_line("spam 1:1")

    def test_missing_colon(self):
        with pytest.raises(ParseError, match="':'"):
            parse_line("1 23")

    @pytest.mark.parametrize("line,column,message", [
        ("nan 1:1", 1, "non-finite label 'nan'"),
        ("  -INF 2:1", 3, "non-finite label '-INF'"),
        ("+1 1:nan 2:inf", 4, "non-finite feature value 'nan'"),
        ("-1 1:2 3:-Infinity", 8, "non-finite feature value '-Infinity'"),
    ])
    def test_non_finite_rejected(self, line, column, message):
        with pytest.raises(ParseError) as ei:
            parse_line(line, lineno=5, path="f.svm")
        assert str(ei.value) == f"f.svm:5:{column}: {message}"


class TestLoadDataset:
    def test_small_file(self, tmp_path):
        p = write_libsvm(tmp_path / "tiny.txt",
                         ["+1 1:1.5 3:2", "-1 2:-0.5", "+1 3:1"])
        ds = load_dataset(p)
        assert (ds.n, ds.d) == (3, 3)
        np.testing.assert_array_equal(ds.X.toarray(),
                                      [[1.5, 0, 2], [0, -0.5, 0], [0, 0, 1]])
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0, 1.0])

    def test_binarize_zero_one_labels(self, tmp_path):
        p = write_libsvm(tmp_path / "zo.txt", ["0 1:1", "1 1:2"])
        ds = load_dataset(p)
        np.testing.assert_array_equal(ds.labels, [-1.0, 1.0])

    def test_gzip_transparent(self, tmp_path):
        gz = tmp_path / "data.txt.gz"
        with gzip.open(gz, "wt") as fh:
            fh.write("+1 1:1\n-1 2:1\n")
        ds = load_dataset(str(gz))
        assert (ds.n, ds.d) == (2, 2)

    def test_parse_error_carries_file_line(self, tmp_path):
        p = write_libsvm(tmp_path / "bad.txt", ["+1 1:1", "+1 5:1 3:1"])
        with pytest.raises(ParseError, match=r"bad\.txt:2"):
            load_dataset(p)

    @pytest.mark.parametrize("bad,column,message", [
        ("  spam 1:1", 3, "unparseable label 'spam'"),
        ("+1 2:1 23", 8, "malformed feature token '23' (missing ':')"),
        ("+1 1:1 x:2", 8, "unparseable feature index 'x'"),
        ("-1 0:1", 4, "feature index 0 < 1"),
        ("+1 2:1 12:1 2:1", 13, "non-increasing feature index 2 after 12"),
        ("-1 1:1\t2:abc", 8, "unparseable feature value 'abc'"),
    ])
    def test_error_located_through_load(self, tmp_path, bad, column, message):
        # line 1 is a comment, line 2 blank, line 3 valid, line 4 bad
        p = write_libsvm(tmp_path / "bad.txt",
                         ["# leading comment", "", "+1 1:1 2:0.5", bad, "-1 1:1"])
        with pytest.raises(ParseError) as ei:
            load_dataset(p)
        assert (ei.value.line, ei.value.column) == (4, column)
        assert str(ei.value) == f"{p}:4:{column}: {message}"

    @pytest.mark.parametrize("subsample", [None, 1])
    def test_non_finite_located_through_load(self, tmp_path, subsample):
        p = write_libsvm(tmp_path / "nf.txt",
                         ["nan 1:1", "+1 1:nan 2:inf", "-1 2:1"])
        with pytest.raises(ParseError) as ei:
            load_dataset(p, subsample=subsample)
        assert str(ei.value) == f"{p}:1:1: non-finite label 'nan'"
        p = write_libsvm(tmp_path / "nf2.txt",
                         ["# c", "-1 2:1", "+1 1:1 2:inf", "-1 1:nan"])
        with pytest.raises(ParseError) as ei:
            load_dataset(p, subsample=subsample)
        assert str(ei.value) == f"{p}:3:8: non-finite feature value 'inf'"

    def test_gzip_error_located(self, tmp_path):
        gz = tmp_path / "bad.txt.gz"
        with gzip.open(gz, "wt") as fh:
            fh.write("# c\n+1 1:1\n-1 3:1 3:2\n")
        with pytest.raises(ParseError) as ei:
            load_dataset(str(gz))
        assert (ei.value.line, ei.value.column) == (3, 8)
        assert str(ei.value) == (f"{gz}:3:8: non-increasing feature index 3 "
                                 f"after 3")

    def test_subsample_selects_rows_of_full_load(self, tmp_path):
        lines = ["+1 30:2"] + [
            f"{(-1) ** i} {1 + i % 5}:{i + 1} {7 + i % 3}:{0.5 * i}"
            for i in range(49)]
        p = write_libsvm(tmp_path / "rows.txt", lines)
        full = load_dataset(p)
        for k, seed in ((10, 7), (1, 0), (49, 3), (50, 1), (80, 2)):
            sub = load_dataset(p, subsample=k, seed=seed)
            keep = sorted(np.random.default_rng(seed).permutation(50)[:k])
            expect = full.X[keep]
            assert (sub.n, sub.d) == (len(keep), full.d) == (len(keep), 30)
            np.testing.assert_array_equal(sub.labels, full.labels[keep])
            for name in ("indptr", "indices", "data"):
                got, want = getattr(sub.X, name), getattr(expect, name)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    def test_subsample_deterministic(self, tmp_path):
        lines = [f"{(-1) ** i} {1 + i % 5}:{i + 1}" for i in range(50)]
        p = write_libsvm(tmp_path / "big.txt", lines)
        a = load_dataset(p, subsample=10, seed=7)
        b = load_dataset(p, subsample=10, seed=7)
        assert a.n == b.n == 10
        assert (a.X != b.X).nnz == 0
        np.testing.assert_array_equal(a.labels, b.labels)
        c = load_dataset(p, subsample=10, seed=8)
        assert not (np.array_equal(a.labels, c.labels)
                    and (a.X != c.X).nnz == 0)

    @pytest.mark.parametrize("k", [0, -5])
    def test_subsample_below_one_rejected(self, tmp_path, k):
        p = write_libsvm(tmp_path / "few.txt", ["+1 1:1", "-1 2:1", "+1 1:2"])
        with pytest.raises(ValueError, match="subsample must be >= 1"):
            load_dataset(p, subsample=k)

    def test_empty_file_rejected(self, tmp_path):
        p = write_libsvm(tmp_path / "empty.txt", ["# only a comment"])
        with pytest.raises(ParseError, match="no data rows"):
            load_dataset(p)
