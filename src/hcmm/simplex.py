"""Euclidean projection onto the probability simplex."""

from __future__ import annotations

import math
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


def project_simplex(v: np.ndarray, out: Optional[np.ndarray] = None,
                    pooled: int = 0) -> np.ndarray:
    """Project v onto {w : w_i >= 0, sum w_i = 1} in the Euclidean norm,
    into `out` when given (it may be v itself, to project in place).

    The result is max(v - tau, 0). Michelot's threshold iteration finds tau
    without sorting: start from the candidates C = all of v and
    tau = (sum v - 1)/n, then repeat C <- {v_i > tau},
    tau <- (sum_C v_i - 1)/|C| until C stops shrinking. tau only grows, so
    every dropped entry is outside the support, and the final tau is exact.
    Each pass is O(|C|); after MAX_PASSES the survivors are sorted instead.

    With pooled = w > 0, the last entry p stands for w equal entries of
    p / sqrt(w) each (the rows a robust-logistic run never draws; see
    RobustLogisticProblem.restrict): it counts w times in |C| and sqrt(w) p
    in the sum, and projects to max(p - sqrt(w) tau, 0). That is the
    projection of the vector with those w entries written out, rescaled
    the same way.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("project_simplex expects a nonempty 1-D vector")
    # while the pooled entries are candidates, k_pool counts them and shift
    # adds their sum; shift = -1.0 alone gives the bits of sum - 1.0
    if pooled:
        r, last = math.sqrt(pooled), float(v[-1])
        cand, k_pool, shift = v[:-1], pooled, r * last - 1.0
    else:
        cand, k_pool, shift = v, 0, -1.0
    # np.add.reduce is the reduction ndarray.sum runs, without its wrapper
    tau = (np.add.reduce(cand) + shift) / (cand.size + k_pool)
    for _ in range(MAX_PASSES):
        kept = cand[cand > tau]
        k = kept.size
        if k_pool and not last > r * tau:
            k_pool, shift = 0, -1.0
        elif k == cand.size:
            break
        if k + k_pool == 0:
            # tau rounded onto the largest candidate: 1/|C| is below its ulp
            # (an entry of about 2^53 or more), or v holds a nan or inf
            raise ValueError("project_simplex: the threshold is lost to "
                             f"rounding (max |v| = {np.max(np.abs(v)):g})")
        cand = kept
        tau = (np.add.reduce(cand) + shift) / (k + k_pool)
    else:
        tau = sort_threshold(np.append(cand, np.full(k_pool, last / r))
                             if k_pool else cand)
    w = np.subtract(v, tau, out=out)
    np.maximum(w, 0.0, out=w)
    if pooled:
        w[-1] = max(last - r * tau, 0.0)
    return w
