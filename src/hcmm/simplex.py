"""Euclidean projection onto the probability simplex."""

from __future__ import annotations

from typing import Optional

import numpy as np

# passes of the threshold iteration before the sort takes over; inputs that
# need more are adversarial ([1, -2!, -3!, ..., -n!] needs n)
MAX_PASSES = 32


def sort_threshold(u: np.ndarray) -> float:
    """The threshold tau of the projection of u, by sorting: sort descending,
    find the largest k with u_k + (1 - sum_{j<=k} u_j)/k > 0. O(n log n)."""
    u = np.sort(u, kind="stable")[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, u.size + 1)
    k = ks[u + (1.0 - css) / ks > 0.0][-1]
    return (css[k - 1] - 1.0) / k


def project_simplex(v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Project v onto {w : w_i >= 0, sum w_i = 1} in the Euclidean norm,
    into `out` when given (it may be v itself, to project in place).

    The result is max(v - tau, 0). Michelot's threshold iteration finds tau
    without sorting: start from the candidates C = all of v and
    tau = (sum v - 1)/n, then repeat C <- {v_i > tau},
    tau <- (sum_C v_i - 1)/|C| until C stops shrinking. tau only grows, so
    every dropped entry is outside the support, and the final tau is exact.
    Each pass is O(|C|); after MAX_PASSES the survivors are sorted instead.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("project_simplex expects a nonempty 1-D vector")
    cand = v
    tau = (cand.sum() - 1.0) / cand.size
    for _ in range(MAX_PASSES):
        keep = cand > tau
        k = np.count_nonzero(keep)
        if k == cand.size:
            break
        if k == 0:
            # tau rounded onto the largest candidate: 1/|C| is below its ulp
            # (an entry of about 2^53 or more), or v holds a nan or inf
            raise ValueError("project_simplex: the threshold is lost to "
                             f"rounding (max |v| = {np.max(np.abs(v)):g})")
        cand = cand[keep]
        tau = (cand.sum() - 1.0) / k
    else:
        tau = sort_threshold(cand)
    w = np.subtract(v, tau, out=out)
    return np.maximum(w, 0.0, out=w)
