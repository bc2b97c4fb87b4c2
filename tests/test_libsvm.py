import bz2
import gzip
import io
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from hcmm import libsvm
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
        # a CSR index is int32, so 2^31 and up would not load as such
        ("-1 2147483649:1", 4, "feature index 2147483649 >= 2^31"),
        ("-1 2147483648:1", 4, "feature index 2147483648 >= 2^31"),
    ])
    def test_error_located_through_load(self, tmp_path, bad, column, message):
        # line 1 is a comment, line 2 blank, line 3 valid, line 4 bad
        p = write_libsvm(tmp_path / "bad.txt",
                         ["# leading comment", "", "+1 1:1 2:0.5", bad, "-1 1:1"])
        with pytest.raises(ParseError) as ei:
            load_dataset(p)
        assert (ei.value.line, ei.value.column) == (4, column)
        assert str(ei.value) == f"{p}:4:{column}: {message}"

    @pytest.mark.parametrize("data,line,column,byte", [
        (b"+1 1:1\n-1 2:1 \xff\n", 2, 8, "ff"),
        # inside a comment, after valid multi-byte text, past the first
        # 8 KB block that text mode decodes at once
        ("# caf\u00e9\n".encode() + b"+1 1:1\n" * 2000 + b"# \xc3\xa9\xe9\n",
         2002, 4, "e9"),
        (b"-1 1:1\r+1 2:\x80\n", 2, 6, "80"),
    ], ids=["feature", "late-comment", "after-cr"])
    def test_non_utf8_byte_located(self, tmp_path, data, line, column, byte):
        p = tmp_path / "enc.txt"
        p.write_bytes(data)
        with pytest.raises(ParseError) as ei:
            load_dataset(str(p))
        assert str(ei.value) == f"{p}:{line}:{column}: non-UTF-8 byte 0x{byte}"

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

    def test_first_bad_line_reported(self, tmp_path):
        # a non-finite value is a fault of its line like any other: the
        # error is the first bad line's, not the first structural fault's
        p = tmp_path / "order.txt"
        p.write_bytes(b"+1 1:nan\n-1 3:1 2:1\n")
        with pytest.raises(ParseError) as ei:
            load_dataset(str(p))
        assert str(ei.value) == f"{p}:1:4: non-finite feature value 'nan'"

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


def reference_load(path, subsample=None, seed=0):
    """The whole-file semantics that `load_dataset` keeps: the file in text
    mode, without chunks, each line through `parse_line`."""
    labels, indptr, indices, data = [], [0], [], []
    with io.TextIOWrapper(libsvm._open(path), encoding="utf-8",
                          errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.encode()
            except UnicodeEncodeError as exc:
                byte = ord(raw[exc.start]) - 0xDC00
                raise ParseError(f"non-UTF-8 byte 0x{byte:02x}", lineno,
                                 exc.start + 1, str(path)) from None
            if raw.split("#", 1)[0].strip():
                label, feats = parse_line(raw, lineno, str(path))
                labels.append(label)
                indices += [idx - 1 for idx, _ in feats]
                data += [val for _, val in feats]
                indptr.append(len(indices))
    if not labels:
        raise ParseError("no data rows", 1, path=str(path))
    X = sp.csr_matrix((np.array(data, dtype=np.float64),
                       np.array(indices, dtype=np.int32),
                       np.array(indptr, dtype=np.int32)),
                      shape=(len(labels), max(indices, default=-1) + 1))
    lab = np.where(np.array(labels) > 0, 1.0, -1.0)
    if subsample is not None and subsample < len(labels):
        keep = sorted(np.random.default_rng(seed).permutation(len(labels))
                      [:subsample].tolist())
        X, lab = X[keep], lab[keep]
    return libsvm.Dataset(libsvm.Csr(X.data, X.indices, X.indptr,
                                     X.shape[1]), lab)


def _outcome(load, path, **kw):
    """load's Dataset or the exception it raised."""
    try:
        return load(path, **kw)
    except (ValueError, OverflowError) as exc:  # UnicodeDecodeError too
        return exc


def _forbidden(*args):
    raise AssertionError("the array path declined a chunk")


def assert_same_as_reference(path, clean=False, chunk_sizes=(7, 64, 1 << 16),
                             **kw):
    """At each CHUNK_BYTES in chunk_sizes, with the array path on and forced
    off, load_dataset gives the reference's arrays, bit for bit, or raises
    the same exception with the same message, line and column. With clean,
    the array path on takes every chunk."""
    want = _outcome(reference_load, path, **kw)
    for chunk_bytes in chunk_sizes:
        for array_path in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(libsvm, "CHUNK_BYTES", chunk_bytes)
                if not array_path:
                    mp.setattr(libsvm, "_parse_chunk", lambda chunk: None)
                elif clean:
                    mp.setattr(libsvm, "_parse_lines", _forbidden)
                got = _outcome(load_dataset, path, **kw)
            if isinstance(want, Exception):
                assert type(got) is type(want) and str(got) == str(want)
                if isinstance(want, ParseError):
                    assert (got.line, got.column) == (want.line, want.column)
            else:
                assert_same_dataset(got, want)


def assert_same_chunk_arrays(data):
    """`_parse_chunk` gives `_parse_lines`' arrays for data, bit for bit:
    labels before they map to +-1 included, so a label's sign bit too."""
    got, want = libsvm._parse_chunk(data), libsvm._parse_lines(data, 1, "-")
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_dataset(got, want):
    """The two Datasets hold the same arrays, bit for bit."""
    assert not isinstance(got, Exception), got
    assert (got.n, got.d, got.X.shape) == (want.n, want.d, want.X.shape)
    for a, b in ((got.labels, want.labels), (got.X.data, want.X.data),
                 (got.X.indices, want.X.indices),
                 (got.X.indptr, want.X.indptr)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


LABELS = ["+1", "-1", "1", "0", "2.5", "-0.0", "1e0", "-0", "+007",
          "123456789012345"]
VALUES = ["1", "0.5", "-1.25", "1e-3", "2.5E+2", ".5", "5.", "+2", "-0", "007",
          "123456.789", "+0", "-00", "999999999999999", "1234567890123456"]
# each sends the file to the line parser: most are errors there, "+3:1" and
# a comment are not
MALFORMED = ["1:2:3", ":5", "3:", "1.0:1", "1e0:1", "+3:1", "0:1", "3:nan",
             "1e999", "3:1e999", "0x1p3", "3:0x1p3", "3:1_0", "3:1.2.3", "3:-",
             "3:1e", "2147483648:1", "nan", "# comment 1:1", "\u00e9",
             "\udcff"]  # the last one is written as the byte 0xff, not UTF-8


@st.composite
def libsvm_files(draw):
    """(file bytes, whether the fast path must take it) from a token grammar:
    rows of a label and increasing idx:val tokens, blank lines, comments,
    malformed tokens, rows without a label, mixed separators and line ends."""
    lines, clean = [], True
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t \v", "# c"])))
            clean &= lines[-1] != "# c"
            continue
        idx = sorted(draw(st.sets(st.integers(1, 40), max_size=5)))
        if draw(st.integers(0, 7)) == 0:
            idx.reverse()  # non-increasing unless it has < 2 entries
            clean &= len(idx) < 2
        form = draw(st.sampled_from(["{}", "{:03d}"]))
        tokens = [draw(st.sampled_from(LABELS))] + [
            form.format(i) + ":" + draw(st.sampled_from(VALUES)) for i in idx]
        if len(tokens) > 1 and draw(st.integers(0, 7)) == 0:
            del tokens[0]  # an idx:val token where the label belongs
            clean = False
        if draw(st.integers(0, 7)) == 0:
            tokens.insert(draw(st.integers(0, len(tokens))),
                          draw(st.sampled_from(MALFORMED)))
            clean = False
        lines.append(draw(st.sampled_from(["", " ", "\t"]))
                     + draw(st.sampled_from([" ", "  ", "\t", " \t"])).join(tokens))
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and not draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    return text.encode("utf-8", "surrogateescape"), clean


class TestFastPath:
    """The chunked loader, array path on and off, against the reference."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(libsvm_files(), st.sampled_from([None, 2]))
    def test_differential(self, tmp_path, case, subsample):
        data, clean = case
        p = tmp_path / "g.svm"
        p.write_bytes(data)
        if clean:
            assert libsvm._parse_chunk(data) is not None
        assert_same_as_reference(str(p), clean, subsample=subsample)

    @pytest.mark.parametrize("name,text", [
        ("straddle", "".join(f"{(-1) ** i} {1 + i % 7}:{i}.25 {9 + i % 5}:-1e-3\n"
                             for i in range(4000))
         + "+1 " + " ".join(f"{j}:0.5" for j in range(1, 9001)) + "\n-1 3:1\n"),
        ("no_final_newline", "+1 1:1\n-1 2:0.5"),
        ("blank_lines", "\n  \n+1 1:1\n\t\n\n-1 2:2 5:1\n \n"),
        ("label_only_rows", "+1\n-1 3:1\n0\n  2.5  \n"),
        ("crlf", "+1 1:1\r\n-1 2:1\r\n"),
        ("lone_cr", "+1 1:1\r-1 2:1\r\r+1 3:1\n\r-1"),
    ], ids=lambda v: v if len(v) < 20 else "")
    def test_fixed_cases(self, tmp_path, name, text):
        p = tmp_path / f"{name}.svm"
        p.write_bytes(text.encode())
        if name == "straddle":
            assert max(map(len, text.splitlines())) > libsvm.CHUNK_BYTES
            assert len(text) > 2 * libsvm.CHUNK_BYTES
        assert_same_as_reference(str(p), True)
        # the rows a subsample keeps do not depend on the chunking
        for subsample in (1, 3):
            assert_same_as_reference(str(p), True, (1 << 16,),
                                     subsample=subsample)

    @pytest.mark.parametrize("data", [
        b"+1 1:1\n# comment\n-1 2:1\n", b"+1 1:1\n-1 2:1 \xff\n",
        "+1 1:1\n-1 2:1 \u00e9\n".encode(), b"+1 +3:1\n", b"nan 1:1\n",
        b"+1 1:1\r2:1\n", b"+1 1:1\r  5:2\n", b"+1 3:1 2:1\n",
        b"+1 0:1\n",
        # at CHUNK_BYTES = 7 the first read ends between a CR and its LF
        b"+1 1:1\r\n-1 0:1\r\n",
        # indices of 15 and 16 digits: integers, but at least 2^31
        b"+1 123456789012345:1\n", b"+1 1234567890123456:1\n",
        # a sign with no digits after it
        b"-1 1:-\n", b"+ 1:1\n", b"-1 1:1 2:+\n"])
    def test_declined_files(self, tmp_path, data):
        # parse_line reads these, or raises on them, alone
        p = tmp_path / "d.svm"
        p.write_bytes(data)
        assert libsvm._parse_chunk(data) is None
        assert_same_as_reference(str(p))

    @pytest.mark.parametrize("text", [
        # 15 digits take the integer path; more go through np.fromstring,
        # and summing 17 digits by place value would misround these two
        "123456789012345 1:999999999999999 2:-100000000000000\n"
        "-999999999999999 3:+000000000000001\n",
        "1234567890123456 1:9007199254740993 2:-9999999999999999\n"
        "-89600958717540151 1:69214448899333387 2:12345678901234567890\n",
        # signed zeros: a label and a value keep the sign bit
        "-0 1:-0 2:+0\n+0 1:0 2:-0\n0 3:-00\n",
        "+007 0001:0042 010:-0009\n-000 002:+000\n",
        # an unsigned label at byte 0 of the file, and so of a chunk
        "5 1:3 2:-4\n7 2:11\n",
    ], ids=["15_digits", "over_15_digits", "signed_zero", "zero_padded",
            "label_at_byte_0"])
    def test_integer_cases(self, tmp_path, text):
        p = tmp_path / "int.svm"
        p.write_bytes(text.encode())
        assert_same_chunk_arrays(text.encode())
        assert_same_as_reference(str(p), True)

    def test_decimal_chunks_beside_integer_chunks(self, tmp_path,
                                                  monkeypatch):
        # decimals, integers, decimals: a chunk of decimals goes through
        # np.fromstring, once, and a chunk of integers does not
        decimal = "".join(f"{(-1) ** i} {1 + i % 5}:{i}.5 {7 + i % 3}:-2e-1\n"
                          for i in range(100))
        integer = "".join(f"{i % 3 - 1} {1 + i % 5}:{i} {7 + i % 3}:-{i % 4}\n"
                          for i in range(300))
        p = tmp_path / "mixed.svm"
        p.write_bytes((decimal + integer + decimal).encode())
        assert_same_as_reference(str(p), True)
        assert_same_as_reference(str(p), True, (1 << 10,))

        seen, calls = [], []
        real_chunk, real_fromstring = libsvm._parse_chunk, np.fromstring

        def counting_fromstring(string, sep):
            calls.append(string)
            return real_fromstring(string, sep=sep)

        def recording_chunk(chunk):
            calls.clear()
            parsed = real_chunk(chunk)
            seen.append((b"." in chunk, len(calls)))
            return parsed

        monkeypatch.setattr(libsvm.np, "fromstring", counting_fromstring)
        monkeypatch.setattr(libsvm, "_parse_chunk", recording_chunk)
        for chunk_bytes in (7, 64, 1 << 10):
            seen.clear()
            monkeypatch.setattr(libsvm, "CHUNK_BYTES", chunk_bytes)
            load_dataset(str(p))
            assert {decimals for decimals, _ in seen} == {True, False}
            assert all(n_calls == decimals for decimals, n_calls in seen)

    def test_integer_file_loads_without_fromstring(self, tmp_path,
                                                   monkeypatch):
        def fromstring(*args, **kwargs):
            raise AssertionError("np.fromstring read an integer-only chunk")

        p = tmp_path / "ints.svm"
        p.write_bytes(("5 1:3 2:-4\n" + "".join(
            f"{(-1) ** i} {1 + i % 9}:{i} {12 + i % 4}:-{i % 3}\n"
            for i in range(300))
            + "+0 1:-0 3:007 4:999999999999999\n-1\n").encode())
        monkeypatch.setattr(libsvm.np, "fromstring", fromstring)
        assert_same_as_reference(str(p), True)

    def test_partial_read_warning_declines(self, tmp_path, monkeypatch):
        # numpy releases that warn on a token read only in part, and return
        # the numbers before it: "1+2" as two, "e" as none, so the count holds
        def fromstring(string, sep):
            warnings.warn("string or file could not be read to its end",
                          DeprecationWarning)
            return np.array([1.0, 1.0, 1.0, 2.0, 3.0])

        p = tmp_path / "w.svm"
        p.write_bytes(b"+1 1:1+2 3:e\n")
        monkeypatch.setattr(libsvm.np, "fromstring", fromstring)
        assert libsvm._parse_chunk(p.read_bytes()) is None
        with pytest.raises(ParseError, match="unparseable feature value '1\\+2'"):
            load_dataset(str(p))

    @pytest.mark.parametrize("suffix,opener", [(".gz", gzip.open),
                                               (".bz2", bz2.open)],
                             ids=["gz", "bz2"])
    def test_compressed(self, tmp_path, suffix, opener):
        # a file the array path takes whole and one with a comment, whose
        # first chunk parse_line reads: each loads as its plain copy does
        text = "".join(f"{(-1) ** i} {1 + i % 3}:{i}\n" for i in range(9000))
        for name, data, clean in (("data", text, True),
                                  ("comment", "# rows\n" + text, False)):
            plain = tmp_path / f"{name}.svm"
            plain.write_text(data)
            packed = tmp_path / f"{name}.svm{suffix}"
            with opener(packed, "wt") as fh:
                fh.write(data)
            assert (libsvm._parse_chunk(data.encode()) is not None) == clean
            assert_same_as_reference(str(packed), clean)
            assert_same_as_reference(str(packed), clean, (1 << 16,),
                                     subsample=100, seed=4)
            assert_same_dataset(load_dataset(str(packed)),
                                load_dataset(str(plain)))

    @pytest.mark.parametrize("name,data,outcome", [
        ("plain", b"+1 1:1 3:2\n-1 2:1\n" * 10000, 20000),
        ("commented", b"# head\n" + b"+1 1:1 3:2\n-1 2:1\n" * 10000
         + b"# tail\n", 20000),
        ("commented.gz", gzip.compress(b"# head\n" + b"+1 1:1\n" * 20000
                                       + b"# tail\n"), 20000),
        ("fault", b"+1 1:1\n" * 20000 + b"-1 3:1 2:1\n",
         ":20001:8: non-increasing feature index 2 after 3"),
        # bytes the array path takes, up to the finiteness check
        ("inf", b"+1 1:1\n" * 20000 + b"-1 3:1e999\n",
         ":20001:4: non-finite feature value '1e999'"),
    ], ids=["plain", "commented", "commented.gz", "fault", "inf"])
    def test_one_read_per_load(self, tmp_path, monkeypatch, name, data,
                               outcome):
        # each file spans several chunks, and each load opens it once
        opened, real_open = [], libsvm._open

        def counting_open(path):
            opened.append(path)
            return real_open(path)

        monkeypatch.setattr(libsvm, "_open", counting_open)
        p = tmp_path / f"one.{name}"
        p.write_bytes(data)
        if isinstance(outcome, str):
            with pytest.raises(ParseError) as ei:
                load_dataset(str(p))
            assert str(ei.value) == f"{p}{outcome}"
        else:
            assert load_dataset(str(p)).n == outcome
        assert opened == [str(p)]

    def test_memory_below_line_parser(self, tmp_path):
        # mushrooms-shaped: 22 one-hot groups over 112 features, 20000 rows;
        # on either path the traced peak stays within 1.8x of what it
        # returns: the text (0.42x here) and the arrays, sized once, plus one
        # chunk's transients. Measured with numpy 2.4: 1.74x on the array
        # path and 1.61x line by line, against 2.09x on both while each
        # chunk's arrays were kept and then concatenated.
        rng = np.random.default_rng(0)
        edges = np.arange(23) * 112 // 22
        cols = edges[:-1] + (rng.random((20000, 22)) * np.diff(edges)).astype(int)
        p = write_libsvm(tmp_path / "mush.svm", [
            ("+1 " if rng.random() < 0.5 else "-1 ")
            + " ".join(f"{c + 1}:1" for c in row) for row in cols])

        for array_path in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                if not array_path:
                    mp.setattr(libsvm, "_parse_chunk", lambda chunk: None)
                tracemalloc.start()
                try:
                    ds = load_dataset(p)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            kept = sum(a.nbytes for a in (ds.X.data, ds.X.indices,
                                          ds.X.indptr, ds.labels))
            assert peak <= 1.8 * kept, (array_path, peak, kept)

    @pytest.mark.parametrize("array_path", [True, False])
    def test_arrays_own_exactly_their_bytes(self, tmp_path, array_path,
                                            monkeypatch):
        # comments hold ten times as many ':' as the rows' features, and a
        # third of the lines are blank or comments: the arrays, sized from
        # those bounds, are cut to what the rows use, and nothing else stays
        rng = np.random.default_rng(5)
        lines = []
        for i in range(3000):
            cols = np.sort(rng.choice(50, 3, replace=False)) + 1
            lines.append(f"{(-1) ** i} " + " ".join(f"{c}:{rng.random()!r}"
                                                     for c in cols)
                         + " # " + "k:v " * 15)
            if i % 2:
                lines += ["", "# note: a:b:c:d:e:f:g:h:i:j"]
        p = write_libsvm(tmp_path / "colons.svm", lines)
        if not array_path:
            monkeypatch.setattr(libsvm, "_parse_chunk", lambda chunk: None)
        tracemalloc.start()
        try:
            ds = load_dataset(p)
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert ds.n == 3000 and ds.X.nnz == 9000
        arrays = (ds.X.data, ds.X.indices, ds.X.indptr, ds.labels)
        assert [a.size for a in arrays] == [9000, 9000, 3001, 3000]
        for a in arrays:  # scipy keeps a full-length view of data and indices
            owner = a
            while owner.base is not None:
                owner = owner.base
            assert owner.nbytes == a.nbytes
        kept = sum(a.nbytes for a in arrays)
        # the bounds held 17 times the nonzeros and 5/3 the rows
        assert current <= kept + 64 * 1024, (current, kept)
