"""Loader for the LIBSVM sparse text format.

Grammar per line: `<label> <idx>:<val> <idx>:<val> ...` with strictly
increasing indices from 1 to 2^31 - 1 and finite numbers; `#` starts a
comment; blank lines are skipped. The text is UTF-8, comments included.
Files ending in .gz or .bz2 (as the LIBSVM site ships ijcnn1) are
decompressed transparently.

`parse_line` is the grammar. `load_dataset` reads a file's bytes once,
whole, and parses them in chunks of about CHUNK_BYTES, each cut after a
line end, into arrays allocated once from bounds on the rows and nonzeros
that the bytes give. `_parse_chunk` parses a chunk with array operations
when it holds only the bytes `0-9 . e E + - :` and ASCII whitespace and
passes `parse_line`'s checks made as array checks. When every number in
the chunk is an integer `[+-]?digits` of 1 to 15 digits, which a float64
holds exactly, the numbers are summed from their digits by place value
(`_integers`); any other chunk the array path takes goes through
`np.fromstring`, the only path that reads decimals and exponents. Any other byte (a comment, non-ASCII text, `nan`,
`inf`, hex, `_`), a failed check or a non-finite number sends that chunk,
and only that chunk, through `parse_line` line by line. So the rows, and
the error at the first bad line (with its line and column), are
`parse_line`'s; only the time and the transient memory differ.

scipy is imported by `load_dataset` when it builds the matrix, not with
this module, so a run that loads no file never imports it.
"""

from __future__ import annotations

import bz2
import gzip
import io
import math
import re
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
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


# least bytes of a chunk, which ends at the first line end from there on.
# A chunk's transients are what the parse holds beyond the file's text and
# the arrays it fills: traced, about 24 bytes a byte of a one-hot chunk on
# the array path and 13 line by line (numpy 2.4)
CHUNK_BYTES = 1 << 16

# byte -> class on the array path, as a `bytes.translate` table:
# whitespace, line end, ':', digit, the other bytes of a float; class 0
# sends the chunk to `parse_line`
_NL, _COLON, _SIGN = 2, 3, 5
_BYTE_CLASS = bytearray(256)
for _cls, _bytes in enumerate((b" \t\v\f", b"\n\r", b":", b"0123456789",
                               b".eE+-"), start=1):
    for _b in _bytes:
        _BYTE_CLASS[_b] = _cls
_BYTE_CLASS = bytes(_BYTE_CLASS)


def _integers(u8: np.ndarray, a: np.ndarray,
              b: np.ndarray) -> Optional[np.ndarray]:
    """The numbers in the byte spans [a, b) of a chunk's bytes u8, each
    `[+-]?digits`, as float64; None if one has more than 15 digits.

    An integer of at most 15 digits is below 2^53, so a float64 holds it
    exactly, as it does every partial sum of its digits by place value:
    the result is what strtod returns, -0 included."""
    head = u8[a]
    width = b - a - ((head == ord("+")) | (head == ord("-")))
    if width.size and width.max() > 15:
        return None
    nums = u8[b - 1] - 48.0  # the units digits
    place, live = 1, np.flatnonzero(width > 1)
    while live.size:
        nums[live] += (u8[b[live] - 1 - place] - 48) * 10.0 ** place
        place += 1
        live = live[width[live] > place]
    return np.negative(nums, out=nums, where=head == ord("-"))


def _parse_chunk(chunk: bytes):
    """(labels, row lengths, 0-based indices, values) of whole lines, or
    None if `parse_line` must read them. CR LF reads as two line ends
    around an empty line."""
    cls = np.frombuffer(chunk.translate(_BYTE_CLASS), dtype=np.uint8)
    if not cls.all():
        return None
    # tokens: each start is followed by its end
    edge = np.diff(np.concatenate(([True], cls <= _NL, [True])).view(np.int8))
    starts, ends = np.flatnonzero(edge).reshape(-1, 2).T
    # label tokens: the chunk's first and each first after a line end
    first = np.zeros(starts.size + 1, dtype=bool)
    first[np.searchsorted(starts, np.flatnonzero(cls == _NL))] = True
    first[0] = True
    first = first[:-1]
    # one ':' in each feature token and none elsewhere, with a non-empty
    # index before it and a non-empty value after it
    feat, cpos = np.flatnonzero(~first), np.flatnonzero(cls == _COLON)
    fstart, fend = starts[feat], ends[feat]
    if cpos.size != feat.size or not ((cpos > fstart) & (cpos + 1 < fend)).all():
        return None
    # no '.', 'e', 'E', '+' or '-' in an index: it is digits only
    sign = np.flatnonzero(cls == _SIGN)
    tok = np.searchsorted(starts, sign, "right") - 1
    colon = np.full(starts.size, -1)
    colon[feat] = cpos
    if not (sign > colon[tok]).all():
        return None
    # integers when those bytes are only a '+' or '-' opening a label or
    # a value and followed by a digit
    u8 = np.frombuffer(chunk, dtype=np.uint8)
    char = u8[sign]
    spans = ((starts[first], ends[first]), (fstart, cpos), (cpos + 1, fend))
    nums = [None]
    if (((char == ord("+")) | (char == ord("-")))
            & (sign == np.maximum(starts[tok], colon[tok] + 1))
            & (sign + 1 < ends[tok])).all():
        nums = [_integers(u8, a, b) for a, b in spans]
    if all(n is not None for n in nums):
        labels, idx, values = nums
    else:
        # a token that is no number, or only starts with one, raises
        # ValueError; older numpy only warned and returned the numbers
        # before it, which the count check below can miss. (numpy reads a
        # blank string as [-1.0].)
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
        labels = nums[is_label]
        idx, values = nums[~is_label].reshape(-1, 2).T
    # indices from 1 to 2^31 - 1, increasing along each row
    prev = np.where(feat[1:] == feat[:-1] + 1, idx[:-1], 0)
    if not ((idx > np.append(0, prev)) & (idx < 2 ** 31)).all():
        return None
    lengths = np.diff(np.append(np.flatnonzero(first), first.size)) - 1
    return (labels, lengths, (idx - 1).astype(np.int32),
            np.ascontiguousarray(values))


# a line end as text mode reads one: CR LF, CR or LF
_LINE_END = re.compile(rb"\r\n?|\n")


def _line_ends(text: bytes, start: int = 0, end: Optional[int] = None) -> int:
    """The line ends in text[start:end], CR LF counting once. CRs are
    counted only when `find`, which is faster than `count`, sees one."""
    ends = text.count(b"\n", start, end)
    if text.find(b"\r", start, end) >= 0:
        ends += text.count(b"\r", start, end) - text.count(b"\r\n", start, end)
    return ends


def _parse_text(text: bytes, path: str):
    """(labels, indptr, indices, values) of a whole file's bytes.

    The arrays are allocated once, from bounds taken from the bytes: a row
    per line and a nonzero per ':'. Each chunk's arrays are copied into
    their slices. The bounds over-count only for blank and comment lines
    and for ':' in comments; only then is the used prefix copied, so each
    array returned owns exactly its bytes."""
    rows = _line_ends(text) + (not text.endswith((b"\n", b"\r")))
    nnz = text.count(b":")
    labels, indptr = np.empty(rows), np.zeros(rows + 1, dtype=np.int32)
    indices, values = np.empty(nnz, dtype=np.int32), np.empty(nnz)
    r = z = start = 0
    lineno, counted = 1, 0  # the line number at text[counted]
    while start < len(text):
        # after the first line end from CHUNK_BYTES on; CR LF is one
        end = _LINE_END.search(text, start + CHUNK_BYTES - 1)
        end = end.end() if end else len(text)
        chunk = text[start:end]
        parsed = _parse_chunk(chunk)
        if parsed is None:
            lineno += _line_ends(text, counted, start)
            counted = start
            parsed = _parse_lines(chunk, lineno, path)
        lab, lengths, idx, val = parsed
        labels[r:r + lab.size] = lab
        indptr[r + 1:r + 1 + lab.size] = lengths
        indices[z:z + idx.size] = idx
        values[z:z + idx.size] = val
        r, z = r + lab.size, z + idx.size
        start = end
    if r < rows:
        labels, indptr = labels[:r].copy(), indptr[:r + 1].copy()
    if z < nnz:
        indices, values = indices[:z].copy(), values[:z].copy()
    return labels, np.cumsum(indptr, out=indptr), indices, values


def load_dataset(path: str, subsample: Optional[int] = None,
                 seed: int = 0) -> Dataset:
    """Load a LIBSVM file into a Dataset, reading it once.

    Labels <= 0 map to -1 and > 0 to +1 (some distributions ship {0, 1}
    labels). The first bad line raises `parse_line`'s ParseError. d is the
    largest feature index in the whole file. With subsample = k (>= 1) and
    k < n, the rows sorted(default_rng(seed).permutation(n)[:k]) are kept,
    in file order.

    The (decompressed) bytes are read whole and parsed into arrays sized
    once (`_parse_text`), then released before the matrix is built. So the
    parse's peak is the text plus the arrays (12 bytes a nonzero and 12 a
    row) plus one chunk's transients, against two copies of the arrays
    plus a chunk's transients for a parse that keeps each chunk's arrays
    and then concatenates them. That is lower whenever the text is no
    longer than its arrays: a binary one-hot file (mushrooms, a9a, w8a)
    takes about 5 bytes of text a nonzero (`23:1 `). Values written as long
    decimals (`23:0.123456789012 `, 18 bytes) make the text longer than the
    arrays, and then it is higher. A .gz or .bz2 file's read joins its
    decompressed pieces, which holds the text twice before the arrays
    exist.
    """
    if subsample is not None and subsample < 1:
        raise ValueError(f"subsample must be >= 1, got {subsample}")
    with _open(path) as fh:
        text = fh.read()
    labels, indptr, indices, values = _parse_text(text, str(path))
    del text
    n = len(labels)
    if not n:
        raise ParseError("no data rows", 1, path=str(path))
    import scipy.sparse as sp

    X = sp.csr_matrix((values, indices, indptr),
                      shape=(n, int(indices.max(initial=-1)) + 1))
    lab = np.where(labels > 0, 1.0, -1.0)
    if subsample is not None and subsample < n:
        keep = sorted(np.random.default_rng(seed).permutation(n)[:subsample].tolist())
        X, lab = X[keep], lab[keep]
    return Dataset(n=X.shape[0], d=X.shape[1], X=X, labels=lab)
