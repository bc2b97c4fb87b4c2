"""Loader for the LIBSVM sparse text format.

Grammar per line: `<label> <idx>:<val> <idx>:<val> ...` with 1-based,
strictly increasing indices; `#` starts a comment; blank lines are skipped.
Files ending in .gz are decompressed transparently.
"""

from __future__ import annotations

import gzip
import io
import math
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


def _open_text(path: str):
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def _read_rows(path: str, parse):
    """(labels, indptr, indices, data) of a file, each line through parse."""
    labels: List[float] = []
    indptr = [0]
    indices: List[int] = []
    data: List[float] = []
    with _open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.split("#", 1)[0].strip():
                continue
            label, feats = parse(raw, lineno, str(path))
            labels.append(label)
            for idx, val in feats:
                indices.append(idx - 1)
                data.append(val)
            indptr.append(len(indices))
    return labels, indptr, indices, data


def load_dataset(path: str, subsample: Optional[int] = None,
                 seed: int = 0) -> Dataset:
    """Load a LIBSVM file into a Dataset, reading it once.

    Labels <= 0 map to -1 and > 0 to +1 (some distributions ship {0, 1}
    labels). A nan or infinite label or value is a ParseError; only then is
    the file read again, to locate it. d is the largest feature index in
    the whole file. With subsample = k (>= 1) and k < n, the rows
    sorted(default_rng(seed).permutation(n)[:k]) are kept, in file order.
    """
    if subsample is not None and subsample < 1:
        raise ValueError(f"subsample must be >= 1, got {subsample}")
    labels, indptr, indices, data = _read_rows(path, _parse_fields)
    n = len(labels)
    if not n:
        raise ParseError("no data rows", 1, path=str(path))
    raw_labels = np.asarray(labels, dtype=np.float64)
    values = np.asarray(data, dtype=np.float64)
    if not (np.isfinite(raw_labels).all() and np.isfinite(values).all()):
        _read_rows(path, parse_line)  # raises, located, at the first one

    X = sp.csr_matrix(
        (values, np.asarray(indices, dtype=np.int32),
         np.asarray(indptr, dtype=np.int32)),
        shape=(n, max(indices, default=-1) + 1))
    lab = np.where(raw_labels > 0, 1.0, -1.0)
    if subsample is not None and subsample < n:
        keep = sorted(np.random.default_rng(seed).permutation(n)[:subsample].tolist())
        X, lab = X[keep], lab[keep]
    return Dataset(n=X.shape[0], d=X.shape[1], X=X, labels=lab)
