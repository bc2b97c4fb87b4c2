"""Loader for the LIBSVM sparse text format.

Grammar per line: `<label> <idx>:<val> <idx>:<val> ...` with strictly
increasing indices from 1 to 2^31 - 1 and finite numbers; `#` starts a
comment; blank lines are skipped. The text is UTF-8, comments included.
Files ending in .gz or .bz2 (as the LIBSVM site ships ijcnn1) are
decompressed transparently.

`parse_line` is the grammar. `load_dataset` reads a file once, in
CHUNK_BYTES binary chunks, each cut after its last line end. `_parse_chunk`
parses a chunk with array operations when it holds only the bytes
`0-9 . e E + - :` and ASCII whitespace and passes `parse_line`'s checks
made as array checks. Any other byte (a comment, non-ASCII text, `nan`,
`inf`, hex, `_`), a failed check or a non-finite number sends that chunk,
and only that chunk, through `parse_line` line by line. So the rows, and
the error at the first bad line (with its line and column), are
`parse_line`'s; only the time and the transient memory differ.
"""

from __future__ import annotations

import bz2
import gzip
import io
import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp


class ParseError(ValueError):
    """Malformed LIBSVM input, with location."""

    def __init__(self, message: str, line: int, column: int = 0,
                 path: Optional[str] = None):
        self.line = line
        self.column = column
        self.path = path
        loc = f"{path or '<input>'}:{line}"
        if column:
            loc += f":{column}"
        super().__init__(f"{loc}: {message}")


@dataclass(frozen=True)
class Dataset:
    """Sparse design matrix plus labels; indices stored 0-based internally."""

    n: int
    d: int
    X: sp.csr_matrix
    labels: np.ndarray


def _error(message: str, body: str, k: int, lineno: int,
           path: Optional[str]) -> ParseError:
    """ParseError at the k-th (0-based) whitespace-separated token of body.

    The column is found by re-scanning body, so only failing lines pay for it.
    """
    end = 0
    for tok in body.split()[:k + 1]:
        start = body.index(tok, end)
        end = start + len(tok)
    return ParseError(message, lineno, start + 1, path)


def parse_line(line: str, lineno: int = 1,
               path: Optional[str] = None) -> Tuple[float, List[Tuple[int, float]]]:
    """Parse one non-comment line into (label, [(1-based index, value), ...]).

    The error is at the line's first bad token; a nan or infinite label or
    value is one.
    """
    body = line.split("#", 1)[0]
    tokens = body.split()
    if not tokens:
        raise ParseError("empty line", lineno, path=path)
    try:
        label = float(tokens[0])
    except ValueError:
        raise _error(f"unparseable label {tokens[0]!r}", body, 0, lineno,
                     path) from None
    if not math.isfinite(label):
        raise _error(f"non-finite label {tokens[0]!r}", body, 0, lineno, path)
    features: List[Tuple[int, float]] = []
    prev_idx = 0
    for k, tok in enumerate(tokens[1:], start=1):
        idx_s, colon, val_s = tok.partition(":")
        if not colon:
            raise _error(f"malformed feature token {tok!r} (missing ':')",
                         body, k, lineno, path)
        try:
            idx = int(idx_s)
        except ValueError:
            raise _error(f"unparseable feature index {idx_s!r}", body, k,
                         lineno, path) from None
        if idx < 1:
            raise _error(f"feature index {idx} < 1", body, k, lineno, path)
        if idx >= 2 ** 31:
            raise _error(f"feature index {idx} >= 2^31", body, k, lineno, path)
        if idx <= prev_idx:
            raise _error(f"non-increasing feature index {idx} after {prev_idx}",
                         body, k, lineno, path)
        try:
            val = float(val_s)
        except ValueError:
            raise _error(f"unparseable feature value {val_s!r}", body, k,
                         lineno, path) from None
        if not math.isfinite(val):
            raise _error(f"non-finite feature value {val_s!r}", body, k,
                         lineno, path)
        features.append((idx, val))
        prev_idx = idx
    return label, features


def _open(path: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    if str(path).endswith(".bz2"):
        return bz2.open(path, "rb")
    return open(path, "rb")


def _parse_lines(chunk: bytes, first_line: int, path: str):
    """`_parse_chunk`'s arrays through `parse_line`, the chunk's lines
    numbered from first_line; lines end where text mode ends them."""
    labels, lengths, indices, values = [], [], [], []
    # a byte that is not UTF-8 reads as a lone surrogate, which no str
    # encodes; so the line and column are the byte's own
    text = chunk.decode("utf-8", "surrogateescape")
    for lineno, line in enumerate(io.StringIO(text, newline=None),
                                   first_line):
        if not line.isascii():
            try:
                line.encode()
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise ParseError(f"non-UTF-8 byte 0x{byte:02x}", lineno,
                                 exc.start + 1, path) from None
        if not line.split("#", 1)[0].strip():
            continue
        label, feats = parse_line(line, lineno, path)
        labels.append(label)
        lengths.append(len(feats))
        for idx, val in feats:
            indices.append(idx - 1)
            values.append(val)
    return (np.array(labels, dtype=np.float64), np.array(lengths, dtype=np.int64),
            np.array(indices, dtype=np.int32), np.array(values, dtype=np.float64))


CHUNK_BYTES = 1 << 16  # read size; it bounds the transient memory

# byte -> class on the array path: whitespace, line end, ':', digit, the
# other bytes of a float; class 0 sends the chunk to `parse_line`
_NL, _COLON, _DIGIT = 2, 3, 4
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
for _cls, _bytes in enumerate((b" \t\v\f", b"\n\r", b":", b"0123456789",
                               b".eE+-"), start=1):
    _BYTE_CLASS[list(_bytes)] = _cls


def _parse_chunk(chunk: bytes):
    """(labels, row lengths, 0-based indices, values) of whole lines, or
    None if `parse_line` must read them. CR LF reads as two line ends
    around an empty line."""
    cls = _BYTE_CLASS[np.frombuffer(chunk, dtype=np.uint8)]
    if not cls.all():
        return None
    edge = np.diff(np.concatenate(([True], cls <= _NL, [True])).view(np.int8))
    starts, ends = np.flatnonzero(edge == -1), np.flatnonzero(edge == 1)
    line = np.searchsorted(np.flatnonzero(cls == _NL), starts)
    first = np.diff(line, prepend=-1) != 0  # label tokens
    # one ':' in each feature token and none in a label, with a non-empty
    # digits-only index before it and a non-empty value after it
    feat, cpos = np.flatnonzero(~first), np.flatnonzero(cls == _COLON)
    fstart, nondigits = starts[feat], np.cumsum(cls != _DIGIT)
    if not (np.array_equal(np.searchsorted(starts, cpos, "right") - 1, feat)
            and ((cpos > fstart) & (cpos + 1 < ends[feat])
                 & (nondigits[cpos - 1] == nondigits[fstart - 1])).all()):
        return None
    # a token that is no number, or only starts with one, raises ValueError;
    # older numpy only warned and returned the numbers before it, which the
    # count check below can miss. (numpy reads a blank string as [-1.0].)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            nums = (np.fromstring(chunk.replace(b":", b" "), sep=" ")
                    if starts.size else np.empty(0))
    except (ValueError, DeprecationWarning):
        return None
    if nums.size != starts.size + feat.size or not np.isfinite(nums).all():
        return None
    is_label = np.repeat(first, 2 - first)
    idx, values = nums[~is_label].reshape(-1, 2).T
    # indices from 1 to 2^31 - 1, increasing along each row
    prev = np.where(feat[1:] == feat[:-1] + 1, idx[:-1], 0)
    if not ((idx > np.append(0, prev)) & (idx < 2 ** 31)).all():
        return None
    lengths = np.diff(np.append(np.flatnonzero(first), first.size)) - 1
    return nums[is_label], lengths, (idx - 1).astype(np.int32), values.copy()


def load_dataset(path: str, subsample: Optional[int] = None,
                 seed: int = 0) -> Dataset:
    """Load a LIBSVM file into a Dataset, reading it once.

    Labels <= 0 map to -1 and > 0 to +1 (some distributions ship {0, 1}
    labels). The first bad line raises `parse_line`'s ParseError. d is the
    largest feature index in the whole file. With subsample = k (>= 1) and
    k < n, the rows sorted(default_rng(seed).permutation(n)[:k]) are kept,
    in file order.
    """
    if subsample is not None and subsample < 1:
        raise ValueError(f"subsample must be >= 1, got {subsample}")
    parts, rest, block, lineno = [], b"", b"\n", 1
    with _open(path) as fh:
        while block:  # the last pass parses what follows the last line end
            block = fh.read(CHUNK_BYTES)
            buf = rest + block
            # after the last line end, but never between a CR and its LF
            end = len(buf) - buf.endswith(b"\r")
            cut = (max(buf.rfind(b"\n", 0, end), buf.rfind(b"\r", 0, end)) + 1
                   if block else len(buf))
            chunk, rest = buf[:cut], buf[cut:]
            parts.append(_parse_chunk(chunk)
                         or _parse_lines(chunk, lineno, str(path)))
            lineno += (chunk.count(b"\n") + chunk.count(b"\r")
                       - chunk.count(b"\r\n"))
    labels, lengths, indices, values = map(np.concatenate, zip(*parts))
    n = len(labels)
    if not n:
        raise ParseError("no data rows", 1, path=str(path))
    indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int32)
    X = sp.csr_matrix((values, indices, indptr),
                      shape=(n, int(indices.max(initial=-1)) + 1))
    lab = np.where(labels > 0, 1.0, -1.0)
    if subsample is not None and subsample < n:
        keep = sorted(np.random.default_rng(seed).permutation(n)[:subsample].tolist())
        X, lab = X[keep], lab[keep]
    return Dataset(n=X.shape[0], d=X.shape[1], X=X, labels=lab)
