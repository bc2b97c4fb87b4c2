"""Loader for the LIBSVM sparse text format.

Grammar per line: `<label> <idx>:<val> <idx>:<val> ...` with strictly
increasing indices from 1 to 2^31 - 1; `#` starts a comment; blank lines
are skipped. The text is UTF-8, comments included. Files ending in .gz are
decompressed transparently.

`load_dataset` parses CHUNK_BYTES binary chunks, each cut after its last
line end, with array operations. This fast path takes only the bytes
`0-9 . e E + - :` and ASCII whitespace, ends lines where text mode does
(LF, CR, CR LF), and makes the line parser's checks as array checks. Any
other byte (a comment, non-ASCII text, `nan`, `inf`, hex, `_`) or a failed
check sends the whole file to the line parser. So accepted files, errors
(line and column) and Datasets are the line parser's; only the time and
the transient memory differ. A declined file is read twice: the chunks
parsed before the declined one are wasted.
"""

from __future__ import annotations

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

    A nan or infinite label or value is rejected.
    """
    label, features = _parse_fields(line, lineno, path)
    for k, val in enumerate([label] + [val for _, val in features]):
        if not math.isfinite(val):
            body = line.split("#", 1)[0]
            token = body.split()[k].rpartition(":")[2]
            what = "feature value" if k else "label"
            raise _error(f"non-finite {what} {token!r}", body, k, lineno, path)
    return label, features


def _parse_fields(line: str, lineno: int,
                  path: Optional[str]) -> Tuple[float, List[Tuple[int, float]]]:
    """`parse_line` without the finiteness check, which `load_dataset` makes
    on whole arrays."""
    body = line.split("#", 1)[0]
    tokens = body.split()
    if not tokens:
        raise ParseError("empty line", lineno, path=path)
    try:
        label = float(tokens[0])
    except ValueError:
        raise _error(f"unparseable label {tokens[0]!r}", body, 0, lineno,
                     path) from None
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
        features.append((idx, val))
        prev_idx = idx
    return label, features


def _open(path: str):
    return gzip.open(path, "rb") if str(path).endswith(".gz") else open(path, "rb")


def _read_rows(path: str, parse):
    """(labels, indptr, indices, data) of a file, each line through parse."""
    labels: List[float] = []
    indptr = [0]
    indices: List[int] = []
    data: List[float] = []
    # a byte that is not UTF-8 reads as a lone surrogate, which no str
    # encodes; so the line and column are the byte's own
    with io.TextIOWrapper(_open(path), encoding="utf-8",
                          errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                try:
                    raw.encode()
                except UnicodeEncodeError as exc:
                    byte = ord(raw[exc.start]) - 0xDC00
                    raise ParseError(f"non-UTF-8 byte 0x{byte:02x}", lineno,
                                     exc.start + 1, str(path)) from None
            if not raw.split("#", 1)[0].strip():
                continue
            label, feats = parse(raw, lineno, str(path))
            labels.append(label)
            for idx, val in feats:
                indices.append(idx - 1)
                data.append(val)
            indptr.append(len(indices))
    return labels, indptr, indices, data


CHUNK_BYTES = 1 << 16  # fast-path read size; it bounds the transient memory

# byte -> class on the fast path: whitespace, line end, ':', digit, the other
# bytes of a float; class 0 sends the file to the line parser
_NL, _COLON, _DIGIT = 2, 3, 4
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
for _cls, _bytes in enumerate((b" \t\v\f", b"\n\r", b":", b"0123456789",
                               b".eE+-"), start=1):
    _BYTE_CLASS[list(_bytes)] = _cls


def _parse_chunk(chunk: bytes):
    """(labels, row lengths, 0-based indices, values) of whole lines, or
    None if the line parser must read the file. CR LF reads as two line
    ends around an empty line."""
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
    if nums.size != starts.size + feat.size:
        return None
    is_label = np.repeat(first, 2 - first)
    idx, values = nums[~is_label].reshape(-1, 2).T
    # indices from 1 to 2^31 - 1, increasing along each row; finiteness is
    # load_dataset's check on either path
    prev = np.where(feat[1:] == feat[:-1] + 1, idx[:-1], 0)
    if not ((idx > np.append(0, prev)) & (idx < 2 ** 31)).all():
        return None
    lengths = np.diff(np.append(np.flatnonzero(first), first.size)) - 1
    return nums[is_label], lengths, (idx - 1).astype(np.int32), values.copy()


def _read_chunks(path: str):
    """`_read_rows`'s (labels, indptr, indices, data) as arrays, through
    `_parse_chunk`, or None once it declines a chunk."""
    parts, rest, block = [], b"", b"\n"
    with _open(path) as fh:
        while block:  # the last pass parses what follows the last line end
            block = fh.read(CHUNK_BYTES)
            buf = rest + block
            cut = (max(buf.rfind(b"\n"), buf.rfind(b"\r")) + 1 if block
                   else len(buf))
            parts.append(_parse_chunk(buf[:cut]))
            if parts[-1] is None:
                return None
            rest = buf[cut:]
    labels, lengths, indices, data = map(np.concatenate, zip(*parts))
    return labels, np.concatenate(([0], np.cumsum(lengths))), indices, data


def load_dataset(path: str, subsample: Optional[int] = None,
                 seed: int = 0) -> Dataset:
    """Load a LIBSVM file into a Dataset, by the fast path if it accepts
    the file, else by the line parser.

    Labels <= 0 map to -1 and > 0 to +1 (some distributions ship {0, 1}
    labels). A nan or infinite label or value is a ParseError, located by
    reading the file once more through `parse_line`. d is the largest
    feature index in the whole file. With subsample = k (>= 1) and k < n,
    the rows sorted(default_rng(seed).permutation(n)[:k]) are kept, in file
    order.
    """
    if subsample is not None and subsample < 1:
        raise ValueError(f"subsample must be >= 1, got {subsample}")
    labels, indptr, indices, data = (_read_chunks(path)
                                     or _read_rows(path, _parse_fields))
    n = len(labels)
    if not n:
        raise ParseError("no data rows", 1, path=str(path))
    raw_labels = np.asarray(labels, dtype=np.float64)
    values = np.asarray(data, dtype=np.float64)
    if not (np.isfinite(raw_labels).all() and np.isfinite(values).all()):
        _read_rows(path, parse_line)  # raises, located, at the first one

    indices = np.asarray(indices, dtype=np.int32)
    X = sp.csr_matrix((values, indices, np.asarray(indptr, dtype=np.int32)),
                      shape=(n, int(indices.max(initial=-1)) + 1))
    lab = np.where(raw_labels > 0, 1.0, -1.0)
    if subsample is not None and subsample < n:
        keep = sorted(np.random.default_rng(seed).permutation(n)[:subsample].tolist())
        X, lab = X[keep], lab[keep]
    return Dataset(n=X.shape[0], d=X.shape[1], X=X, labels=lab)
