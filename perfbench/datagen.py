"""Synthetic LIBSVM-shaped data for the robust-logistic workloads.

Rows copy the one-hot layout of the mushrooms set: the `d` features are cut
into `groups` consecutive blocks and each row sets exactly one feature per
block to 1, so a row holds `groups` ones at strictly increasing indices.
Labels come from a planted linear model: a row r is labelled +1 with
probability sigmoid(scale * (r^T w - mean margin)), else -1.

The file is written as text and read back through the program's own parser,
so parsing is part of what the benchmark times.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def make_dataset(n: int, d: int, groups: int, seed: int):
    """Return (columns, labels): 0-based column indices (n, groups) and +-1 labels."""
    if not 1 <= groups <= d:
        raise ValueError(f"need 1 <= groups <= d, got groups={groups}, d={d}")
    rng = np.random.default_rng(seed)
    edges = (np.arange(groups + 1) * d) // groups
    sizes = np.diff(edges)
    cols = edges[:-1] + (rng.random((n, groups)) * sizes).astype(np.int64)
    w = rng.standard_normal(d)
    margin = w[cols].sum(axis=1)
    margin = (margin - margin.mean()) / margin.std()
    p = 1.0 / (1.0 + np.exp(-3.0 * margin))
    labels = np.where(rng.random(n) < p, 1, -1)
    return cols, labels


def write_libsvm(path: Path, n: int, d: int, groups: int, seed: int) -> Path:
    """Write an n x d file with `groups` ones per row; same seed, same bytes."""
    cols, labels = make_dataset(n, d, groups, seed)
    tokens = [f"{j + 1}:1" for j in range(d)]
    label_text = {1: "+1", -1: "-1"}
    lines = [label_text[lab] + " " + " ".join(map(tokens.__getitem__, row))
             for lab, row in zip(labels.tolist(), cols.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
