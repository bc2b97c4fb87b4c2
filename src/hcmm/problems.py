"""Concrete minimax problem instances.

Each stochastic oracle takes and returns joint vectors z = (x, y) (see
oracle.py); x and y are views into z.

- RobustLogisticProblem: distributionally robust logistic regression with a
  nonconvex coordinate-wise regularizer on x and a quadratic divergence on
  the simplex weights y. Single-sample stochastic model: drawing row i gives
  the surrogate Q(x, y; i) = n*y_i*Q_i(x) - V(y) + g(x), which is unbiased
  for the full objective under uniform i. The inner max is a simplex
  projection in closed form. A run steps on the restriction to the rows it
  draws, with one pooled y coordinate for the rest (`restrict`).
- QuadraticMinimaxProblem: strongly concave quadratic testbed with closed
  forms for the inner max, P(x) and grad P(x); optional additive Gaussian
  gradient noise, where the noise draw itself is the sample; its oracles
  are products with the joint Hessian M = [[A, B], [B', -nu I]].
- PlToyProblem: the quadratic testbed with a singular PSD C block in place
  of nu I, so PL in y but not strongly concave; minimum-norm inner
  maximizer via the pseudo-inverse; joint Hessian M = [[A, B], [B', -C]].
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, Optional, Tuple, Union

import numpy as np

from .core import Vec
from .oracle import InnerMaxReport, MinimaxProblem, SampleId
from .simplex import project_simplex

if TYPE_CHECKING:
    import scipy.sparse as sp


# ---------------------------------------------------------------------------
# robust logistic regression
# ---------------------------------------------------------------------------

# fewest undrawn rows a restriction pools: each pooled row saves about 13 ns
# of a step, while the pooled bookkeeping (the set-up, the weighted
# projection) costs about 7 us a step. Measured on a 2-vCPU VM (Python 3.11,
# numpy 2.4) at n = 2000 over 500 HCMM-2 steps: pooling 16 rows cost 10 us
# a step more than the full step, 512 about broke even, 1024 saved 3 us.
MIN_POOLED = 1024

# largest share of nonzero y entries at which `_grad_x_at` forms X'coef over
# those rows alone; past it the product over every row is cheaper. Measured
# on a 2-vCPU VM (Python 3.11, numpy 2.4, scipy 1.17, BLAS 1 thread) on
# datagen files with 22 nonzeros a row: the two cost the same at about 12%
# of the rows at n = 8124 and 50000 (0.3 and 1.8 ms) and 30% at n = 3000;
# at 5 rows of 50000 the support product took 0.07 ms against 1.6 ms.
MAX_SUPPORT_SHARE = 0.1

# rows `_y_star` first screens: those with the SCREEN_ROWS smallest margins,
# four times as many each time the last of them is in y*'s support there.
# y* of the `logistic_scale` runs (n = 50000) has 2 to 1202 nonzero entries.
# Measured on a 2-vCPU VM (Python 3.11, numpy 2.4, BLAS 1 thread) over the 24
# inner maxes of one such job, 3 jobs each: 256, 1024 and 4096 rows took
# 52-70 ms in total, against 101-114 ms with every row screened.
SCREEN_ROWS = 1024

# rows whose sums of squares `_largest_row_norm` takes at a time: the squared
# data of one block is all it allocates (about 0.7 MB at 22 nonzeros a row)
BOUND_ROWS = 4096


def _expit(u: float) -> float:
    """scipy.special.expit of a scalar, bit for bit: 1 / (1 + exp(-u)),
    which is 0.0 where exp(-u) overflows. scipy is imported only for robust
    logistic, and a per-step oracle cannot pay an import per call."""
    try:
        return 1.0 / (1.0 + math.exp(-u))
    except OverflowError:
        return 0.0


def _largest_row_norm(X: sp.csr_matrix) -> float:
    """The largest Euclidean norm of a row of X, with the bits of
    float(np.sqrt(X.power(2).sum(axis=1).max())).

    scipy's row sum is one np.add.reduceat over the squared data, at the
    start of each non-empty row (an empty row sums to 0); this takes the
    same reductions BOUND_ROWS rows at a time, so it squares one block's
    data, not a copy of X. Like X.power, it first sums duplicate entries
    of X in place."""
    X.sum_duplicates()
    largest = np.float64(0.0)
    for r in range(0, X.shape[0], BOUND_ROWS):
        ptr = X.indptr[r:r + BOUND_ROWS + 1]
        rows = np.flatnonzero(np.diff(ptr))
        if rows.size:
            sums = np.add.reduceat(X.data[ptr[0]:ptr[-1]] ** 2,
                                   ptr[rows] - ptr[0])
            largest = np.maximum(largest, sums.max())
    return float(np.sqrt(largest))


def _softplus(u: float) -> float:
    """np.logaddexp(0.0, u) of a scalar, bit for bit: numpy's branches,
    u + log1p(exp(-u)) for u > 0 and log1p(exp(u)) otherwise, on the same C
    library exp and log1p. Like `_expit`, it spares a per-step oracle
    numpy's per-call cost on a scalar."""
    if u > 0.0:
        return u + math.log1p(math.exp(-u))
    return math.log1p(math.exp(u))


class RobustLogisticProblem(MinimaxProblem):
    """min_x max_{y in simplex}  sum_i y_i Q_i(x) - V(y) + g(x).

    Q_i(x) = log(1 + exp(-l_i r_i^T x)), g(x) = lambda2 * sum_j rho x_j^2 /
    (1 + rho x_j^2), V(y) = 0.5 * lambda1 * ||n y - 1||^2. Rows are sparse;
    all x-side products are O(nnz of the touched rows).

    The y-Hessian is exactly -lambda1 n^2 I, so y -> J(x, y) equals
    -0.5 lambda1 n^2 ||y - (1/n + q(x) / (lambda1 n^2))||^2 plus terms free
    of y, with q_i = Q_i(x); its maximizer over the simplex is the projection
    of that centre.

    `restrict` gives the instance a run steps on: the same class, so the
    same oracle code, holding only the rows the run draws. On the full
    problem `rows` is None and `pooled` is 0.
    """

    def __init__(self, rows: sp.spmatrix, labels: np.ndarray,
                 lambda1: Optional[float] = None, lambda2: float = 0.001,
                 rho: float = 10.0):
        import scipy.sparse as sp

        X = sp.csr_matrix(rows, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        n, d = X.shape
        if n < 1 or d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got shape {(n, d)}")
        if labels.shape != (n,):
            raise ValueError(f"labels shape {labels.shape} does not match n={n}")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be in {+1, -1}")
        if lambda1 is None:
            lambda1 = 1.0 / n ** 2
        if lambda1 <= 0 or lambda2 < 0 or rho <= 0:
            raise ValueError(
                f"need lambda1 > 0, lambda2 >= 0, rho > 0; got "
                f"lambda1={lambda1}, lambda2={lambda2}, rho={rho}")
        self.X = X
        self.labels = labels
        self.lambda1 = float(lambda1)
        self.lambda2 = float(lambda2)
        self.rho = float(rho)
        self.n = n
        self.d = d
        self.dim_x = d
        self.dim_y = n
        self.n_samples = n
        # set by `restrict`: the row ids held, the rows behind the pooled y
        # coordinate and n y - ones (1 per row, sqrt(w) at the pooled
        # coordinate)
        self.rows: Optional[np.ndarray] = None
        self.pooled = 0
        self._ones: Union[float, np.ndarray] = 1.0
        self._lipschitz_L_f: Optional[float] = None
        # X.indices as intp, made by the first `_row`: an int32 index array
        # is cast on every fancy index
        self._row_indices: Optional[np.ndarray] = None

    @property
    def lipschitz_L_f(self) -> float:
        """A crude analytic bound on the joint-gradient Lipschitz constant,
        n rmax^2 / 4 + 2 lambda2 rho + lambda1 n^2 + n rmax with rmax the
        largest row norm (`_largest_row_norm`, a block of rows at a time).
        It is computed on first read; a restriction holds its parent's."""
        if self._lipschitz_L_f is None:
            n = self.n
            rmax = _largest_row_norm(self.X)
            self._lipschitz_L_f = (n * rmax ** 2 / 4.0
                                   + 2.0 * self.lambda2 * self.rho
                                   + self.lambda1 * n ** 2 + n * rmax)
        return self._lipschitz_L_f

    # -- single-row helpers ------------------------------------------------
    def _row(self, i: SampleId) -> Tuple[np.ndarray, np.ndarray]:
        held = len(self.labels)
        if not (0 <= i < held):
            raise IndexError(f"sample index {i} out of range [0, {held})")
        if self._row_indices is None:
            self._row_indices = self.X.indices.astype(np.intp)
        s, e = self.X.indptr[i], self.X.indptr[i + 1]
        return self._row_indices[s:e], self.X.data[s:e]

    def _margin(self, i: SampleId, x: Vec) -> float:
        idx, val = self._row(i)
        return self.labels[i] * float(val.dot(x[idx]))

    @staticmethod
    def _q_of_margin(t):
        # log(1 + exp(-t)), stable for large |t|
        return np.logaddexp(0.0, -t)

    def _g_value(self, x: Vec) -> float:
        rx2 = self.rho * x * x
        return self.lambda2 * float(np.sum(rx2 / (1.0 + rx2)))

    def _g_grad(self, x: Vec, out: Optional[Vec] = None) -> Vec:
        return np.divide(2.0 * self.lambda2 * self.rho * x,
                         (1.0 + self.rho * x * x) ** 2, out=out)

    def _g_hess_diag(self, x: Vec) -> Vec:
        rx2 = self.rho * x * x
        return 2.0 * self.lambda2 * self.rho * (1.0 - 3.0 * rx2) / (1.0 + rx2) ** 3

    def _v_value(self, y: Vec) -> float:
        return 0.5 * self.lambda1 * float(np.sum((self.n * y - self._ones) ** 2))

    def _v_grad(self, y: Vec) -> Vec:
        return self.lambda1 * self.n * (self.n * y - self._ones)

    def _all_rows(self, what: str) -> None:
        if self.rows is not None:
            raise NotImplementedError(
                f"{what} needs every row; this restriction holds "
                f"{self.rows.size} of {self.n}")

    # -- restriction to the rows a run draws --------------------------------
    def restrict(self, samples: Iterator[SampleId], y0: Vec
                 ) -> Tuple["RobustLogisticProblem", Vec, Iterator[SampleId]]:
        """This problem on the rows in `samples`, y0 on it, and the samples
        as positions among its rows.

        Every y-side operation of the four optimizers works entry by entry,
        except the bump at the sampled row. So the w rows a run never draws
        keep one common value c for the whole run when they start with one.
        The restriction holds one y coordinate per drawn row, in row order,
        and one pooled coordinate sqrt(w) c last. That keeps ||y||, so the
        HCMM-2 normalisation and HCMM-1's clipping see full-length norms;
        the pooled coordinate's gradient constant is sqrt(w) (`_ones`) and
        `project_y` weighs it w times. X and labels hold the drawn rows and
        n stays the full count. The samples come back as positions among
        the held rows, so `rows[positions]` are the drawn row ids. Oracles
        that need every row raise.

        Returns (self, y0, the drawn row ids) when fewer than MIN_POOLED
        rows go undrawn (the pooling would cost more than it saves) or y0
        differs on the undrawn rows.
        """
        drawn = np.fromiter(samples, dtype=np.int64)
        rows, local = np.unique(drawn, return_inverse=True)
        held = np.zeros(self.n, dtype=bool)
        held[rows] = True
        rest = y0[~held]
        if rest.size < MIN_POOLED or np.any(rest != rest[0]):
            return self, y0, iter(drawn.tolist())
        r = math.sqrt(rest.size)
        # built by __init__, not copied: a copied instance keeps its
        # attributes in a plain dict, which makes every attribute read in
        # the oracles slower
        sub = RobustLogisticProblem(self.X[rows], self.labels[rows],
                                    self.lambda1, self.lambda2, self.rho)
        sub.n = self.n
        sub._lipschitz_L_f = self.lipschitz_L_f
        sub.rows, sub.pooled, sub.dim_y = rows, rest.size, rows.size + 1
        sub._ones = np.append(np.ones(rows.size), r)
        return (sub, np.append(y0[rows], r * rest[0]),
                iter(local.tolist()))

    def lift_y(self, y: Vec) -> Vec:
        if self.rows is None:
            return y
        full = np.full(self.n, y[-1] / math.sqrt(self.pooled))
        full[self.rows] = y[:-1]
        return full

    # -- oracle interface --------------------------------------------------
    def sample_loss(self, x: Vec, y: Vec, xi: SampleId) -> float:
        t = self._margin(xi, x)
        return (self.n * y[xi] * float(self._q_of_margin(t)) - self._v_value(y)
                + self._g_value(x))

    def sample_gradient(self, z: Vec, xi: SampleId) -> Vec:
        d = self.d
        x, y = z[:d], z[d:]
        idx, val = self._row(xi)
        t = self.labels[xi] * float(val.dot(x[idx]))
        # grad Q_i(x) = -l_i sigma(-t) r_i
        coef = -self.labels[xi] * _expit(-t)
        g = np.empty_like(z)
        gx, gy = g[:d], g[d:]
        self._g_grad(x, out=gx)
        gx[idx] += self.n * y[xi] * coef * val
        # -grad V(y); a product with the negated factor is its exact negation
        np.multiply(self.n * y - self._ones, -(self.lambda1 * self.n), out=gy)
        gy[xi] += self.n * _softplus(-t)
        return g

    def sample_hvp(self, z: Vec, xi: SampleId, dz: Vec) -> Vec:
        d = self.d
        x, y, dx, dy = z[:d], z[d:], dz[:d], dz[d:]
        idx, val = self._row(xi)
        li = self.labels[xi]
        t = li * float(val.dot(x[idx]))
        s = _expit(-t)
        q2 = s * (1.0 - s)                     # sigma(-t) sigma(t)
        rdx = float(val.dot(dx[idx]))
        gq_coef = -li * s                      # grad Q_i = gq_coef * r_i
        h = np.empty_like(z)
        hx, hy = h[:d], h[d:]
        np.multiply(self._g_hess_diag(x), dx, out=hx)
        hx[idx] += self.n * (y[xi] * q2 * rdx + dy[xi] * gq_coef) * val
        np.multiply(-self.lambda1 * self.n ** 2, dy, out=hy)
        hy[xi] += self.n * gq_coef * rdx
        return h

    def _margins(self, x: Vec) -> np.ndarray:
        return self.labels * (self.X @ x)

    # J and grad_x J from the margins t (and the losses q = q(t))
    def _objective_at(self, q: np.ndarray, x: Vec, y: Vec) -> float:
        return float(np.dot(y, q)) - self._v_value(y) + self._g_value(x)

    def _grad_x_at(self, t: np.ndarray, x: Vec, y: Vec) -> Vec:
        # X'(-l o sigma(-t) o y) + g'(x). While at most MAX_SUPPORT_SHARE of
        # y is nonzero, the product runs over those rows alone. It has the
        # dense product's bits: scipy's csc_matvec and np.bincount both add
        # each data * coef into a +0.0 start in row order, and the rows
        # left out add exact zeros, unless a margin is nan (then nan * 0
        # is not zero, so the dense product runs).
        # scipy's vector expit, whose bits np.exp does not give
        from scipy.special import expit

        held = y != 0
        if (np.count_nonzero(held) > MAX_SUPPORT_SHARE * y.size
                or np.isnan(t.min())):
            coef = -self.labels * expit(-t) * y
            return np.asarray(self.X.T @ coef).ravel() + self._g_grad(x)
        rows = np.flatnonzero(held)
        X = self.X
        start = X.indptr[rows]
        counts = X.indptr[rows + 1] - start
        # the rows' positions in X.data, row after row
        pos = np.arange(counts.sum()) + np.repeat(
            start - np.cumsum(counts) + counts, counts)
        coef = -self.labels[rows] * expit(-t[rows]) * y[rows]
        return np.bincount(X.indices[pos], minlength=self.d,
                           weights=X.data[pos] * np.repeat(coef, counts)) \
            + self._g_grad(x)

    def full_gradient(self, z: Vec) -> Vec:
        self._all_rows("full_gradient")
        x, y = z[:self.d], z[self.d:]
        t = self._margins(x)
        return np.concatenate((self._grad_x_at(t, x, y),
                               self._q_of_margin(t) - self._v_grad(y)))

    def grad_x(self, z: Vec, margins: Optional[Vec] = None) -> Vec:
        # full_gradient's x block, without its y block
        self._all_rows("grad_x")
        x, y = z[:self.d], z[self.d:]
        t = self._margins(x) if margins is None else margins
        return self._grad_x_at(t, x, y)

    def objective(self, x: Vec, y: Vec) -> float:
        self._all_rows("objective")
        return self._objective_at(self._q_of_margin(self._margins(x)), x, y)

    def project_y(self, y: Vec) -> Vec:
        return project_simplex(y, out=y, pooled=self.pooled)

    def _y_star(self, x: Vec) -> Tuple[np.ndarray, np.ndarray, Vec]:
        # (margins t, losses q, y*(x)): one margin vector serves y*,
        # P(x) = J(x, y*) and, by Danskin (the maximizer is unique),
        # grad P(x) = grad_x J(x, y*). q and y* are formed on the rows whose
        # margin is at most the k-th smallest, t_k (and any nan one), and
        # are 0 elsewhere. Every other row has a larger margin, so a centre
        # no larger than a row at t_k; once no row at t_k is in the support
        # there, no other row is, and the projection over all rows would
        # end on the same rows, in the same order, with the same sum: the
        # same bits. Off those rows y* is +0.0, so np.dot(y, q) adds the
        # same products and `_grad_x_at` sees the same y.
        # At n <= SCREEN_ROWS the first screen holds every row, so y* is
        # formed over all of them without one.
        t = self._margins(x)
        n = self.n
        if n <= SCREEN_ROWS:
            q = self._q_of_margin(t)
            return t, q, project_simplex(1.0 / n + q / (self.lambda1 * n ** 2))
        k = SCREEN_ROWS
        while True:
            t_k = np.partition(t, k - 1)[k - 1]
            rows = np.flatnonzero(~(t > t_k))
            q_rows = self._q_of_margin(t[rows])
            y_rows = project_simplex(1.0 / n + q_rows / (self.lambda1 * n ** 2))
            if rows.size == n or not y_rows[t[rows] == t_k].any():
                break
            k = min(4 * k, n)
        q, y = np.zeros(n), np.zeros(n)
        q[rows], y[rows] = q_rows, y_rows
        return t, q, y

    def inner_max(self, x: Vec) -> InnerMaxReport:
        self._all_rows("inner_max")
        t, q, y = self._y_star(x)
        return InnerMaxReport(y, self._objective_at(q, x, y),
                              self._grad_x_at(t, x, y), margins=t)

    def p_value(self, x: Vec) -> float:
        # inner_max's P(x), without the X' coef product of grad P
        self._all_rows("p_value")
        _, q, y = self._y_star(x)
        return self._objective_at(q, x, y)


# ---------------------------------------------------------------------------
# synthetic quadratic testbeds
# ---------------------------------------------------------------------------

class QuadraticMinimaxProblem(MinimaxProblem):
    """J(x, y) = 0.5 x'Ax + x'By - 0.5 y'Hy with H = nu I, and additive
    gradient noise; a subclass sets its own H, y* map and P.

    A sample is noise_sigma * N(0, I) over z = (x, y), from the run's own
    stream, and sample_gradient adds it to the exact gradient M z. A fixed
    sample therefore always gives the same perturbation, so the correction
    terms of recursive-momentum methods cancel the noise exactly, as they
    assume. A block of k samples is one fresh (k, dim_x + dim_y) array,
    one sample per row. A noiseless problem draws nothing (the sample is
    None).
    """

    def __init__(self, A: np.ndarray, B: np.ndarray, nu: float,
                 noise_sigma: float = 0.0):
        if nu <= 0:
            raise ValueError(f"nu must be positive, got {nu}")
        self.nu = float(nu)
        self._setup(A, B, nu * np.eye(np.shape(B)[-1]), noise_sigma)
        # P(x) = 0.5 x' p_hessian x
        self.p_hessian = self.A + self.B @ self.B.T / nu

    def _setup(self, A: np.ndarray, B: np.ndarray, H: np.ndarray,
               noise_sigma: float) -> None:
        """Check A and B; set them and the joint Hessian [[A, B], [B', -H]]."""
        A = np.asarray(A, dtype=np.float64)
        B = np.asarray(B, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if not np.allclose(A, A.T, atol=1e-12):
            raise ValueError("A must be symmetric")
        if B.shape[0] != A.shape[0]:
            raise ValueError(f"B row count {B.shape[0]} != dim of A {A.shape[0]}")
        self.A, self.B = A, B
        self.noise_sigma = float(noise_sigma)
        self.dim_x, self.dim_y = B.shape
        self.M = np.block([[A, B], [B.T, -H]])
        self.lipschitz_L_f = float(np.linalg.norm(self.M, 2))

    @classmethod
    def random(cls, d: int, m: int, nu: float, noise_sigma: float, seed: int,
               a_eigs: Tuple[float, float] = (-0.5, 0.5), b_scale: float = 0.5):
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        A = Q @ np.diag(np.linspace(a_eigs[0], a_eigs[1], d)) @ Q.T
        A = 0.5 * (A + A.T)
        B = b_scale * rng.standard_normal((d, m)) / np.sqrt(m)
        return cls(A, B, nu, noise_sigma=noise_sigma)

    # the oracles of both testbeds: perfbench wraps the methods in vars(cls),
    # so a subclass's calls go through these wrappers, once
    def draw_samples(self, rng: np.random.Generator, k: int):
        if self.noise_sigma == 0.0:
            return [None] * k
        return self.noise_sigma * rng.standard_normal((k, self.dim_x + self.dim_y))

    def sample_gradient(self, z: Vec, xi: SampleId) -> Vec:
        g = self.M.dot(z)
        if self.noise_sigma != 0.0:
            g += xi
        return g

    def sample_hvp(self, z: Vec, xi: SampleId, dz: Vec) -> Vec:
        return self.M.dot(dz)

    def full_gradient(self, z: Vec) -> Vec:
        return self.M.dot(z)

    def objective(self, x: Vec, y: Vec) -> float:
        return float(0.5 * x @ self.A @ x + x @ self.B @ y
                     - 0.5 * self.nu * y @ y)

    def _y_star(self, x: Vec) -> Vec:
        return self.B.T @ x / self.nu

    def inner_max(self, x: Vec) -> InnerMaxReport:
        return InnerMaxReport(self._y_star(x),
                              float(0.5 * x @ self.p_hessian @ x),
                              self.grad_p(x))

    def grad_p(self, x: Vec) -> Vec:
        """grad P(x), or of each row of a stack, bit-equal to p_hessian.dot."""
        return np.matmul(self.p_hessian, x[..., None])[..., 0]


class PlToyProblem(QuadraticMinimaxProblem):
    """J(x, y) = 0.5 x'Ax + x'By - 0.5 y'Cy: the quadratic testbed with
    H = C, PSD and singular.

    -J is PL in y with constant delta = smallest nonzero eigenvalue of C.
    The inner argmax is a set; the minimum-norm solution pinv(C) B' x is
    returned. Construction rejects couplings whose range leaves range(C)
    (the inner max would be unbounded).
    """

    def __init__(self, A: np.ndarray, B: np.ndarray, C: np.ndarray,
                 noise_sigma: float = 0.0):
        self.C = C = np.asarray(C, dtype=np.float64)
        m = np.shape(B)[-1]
        if C.shape != (m, m):
            raise ValueError(f"C must be {m} x {m} (B has {m} columns), "
                             f"got shape {C.shape}")
        self._setup(A, B, C, noise_sigma)
        if not np.allclose(C, C.T, atol=1e-12):
            raise ValueError("C must be symmetric")
        evals = np.linalg.eigvalsh(C)
        if evals.min() < -1e-10:
            raise ValueError("C must be positive semidefinite")
        self.C_pinv = np.linalg.pinv(C, rcond=1e-12)
        # range(B^T-image) must lie inside range(C)
        leak = self.B.T - C @ (self.C_pinv @ self.B.T)
        if np.linalg.norm(leak) > 1e-8 * max(1.0, np.linalg.norm(self.B)):
            raise ValueError("columns of B' leave range(C): inner max unbounded")
        nonzero = evals[evals > 1e-10]
        if nonzero.size == 0:
            raise ValueError("C is identically zero; no PL constant")
        self.delta = float(nonzero.min())
        self.p_hessian = self.A + self.B @ self.C_pinv @ self.B.T

    @classmethod
    def random(cls, d: int, m: int, rank: int, c_min: float, c_max: float,
               noise_sigma: float, seed: int):
        rng = np.random.default_rng(seed)
        Qm, _ = np.linalg.qr(rng.standard_normal((m, m)))
        evals = np.zeros(m)
        evals[:rank] = np.linspace(c_min, c_max, rank)
        C = Qm @ np.diag(evals) @ Qm.T
        C = 0.5 * (C + C.T)
        Ad = rng.standard_normal((d, d))
        A = 0.1 * (Ad + Ad.T) / 2.0
        # coupling built inside range(C)
        B = (C @ rng.standard_normal((m, d))).T * 0.3
        return cls(A, B, C, noise_sigma=noise_sigma)

    def objective(self, x: Vec, y: Vec) -> float:
        return float(0.5 * x @ self.A @ x + x @ self.B @ y - 0.5 * y @ self.C @ y)

    def _y_star(self, x: Vec) -> Vec:
        return self.C_pinv @ (self.B.T @ x)
