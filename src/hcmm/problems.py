"""Concrete minimax problem instances.

- RobustLogisticProblem: distributionally robust logistic regression with a
  nonconvex coordinate-wise regularizer on x and a quadratic divergence on
  the simplex weights y. Single-sample stochastic model: drawing row i gives
  the surrogate Q(x, y; i) = n*y_i*Q_i(x) - V(y) + g(x), which is unbiased
  for the full objective under uniform i. The inner max is a simplex
  projection in closed form.
- QuadraticMinimaxProblem: strongly concave quadratic testbed with closed
  forms for the inner max, P(x) and grad P(x); optional additive Gaussian
  gradient noise, where the noise draw itself is the sample.
- PlToyProblem: rank-deficient concave part, PL in y but not strongly
  concave; minimum-norm inner maximizer via the pseudo-inverse.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .core import Vec
from .oracle import (GradPair, HvpResult, InnerMaxReport, MinimaxProblem,
                     SampleId)
from .simplex import project_simplex


# ---------------------------------------------------------------------------
# robust logistic regression
# ---------------------------------------------------------------------------

class RobustLogisticProblem(MinimaxProblem):
    """min_x max_{y in simplex}  sum_i y_i Q_i(x) - V(y) + g(x).

    Q_i(x) = log(1 + exp(-l_i r_i^T x)), g(x) = lambda2 * sum_j rho x_j^2 /
    (1 + rho x_j^2), V(y) = 0.5 * lambda1 * ||n y - 1||^2. Rows are sparse;
    all x-side products are O(nnz of the touched rows).

    The y-Hessian is exactly -lambda1 n^2 I, so y -> J(x, y) equals
    -0.5 lambda1 n^2 ||y - (1/n + q(x) / (lambda1 n^2))||^2 plus terms free
    of y, with q_i = Q_i(x); its maximizer over the simplex is the projection
    of that centre.
    """

    def __init__(self, rows: sp.spmatrix, labels: np.ndarray,
                 lambda1: Optional[float] = None, lambda2: float = 0.001,
                 rho: float = 10.0):
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
        # crude analytic bound on the joint-gradient Lipschitz constant
        rmax = float(np.sqrt(X.power(2).sum(axis=1).max()))
        self.lipschitz_L_f = (n * rmax ** 2 / 4.0 + 2.0 * self.lambda2 * self.rho
                              + self.lambda1 * n ** 2 + n * rmax)

    # -- single-row helpers ------------------------------------------------
    def _row(self, i: SampleId) -> Tuple[np.ndarray, np.ndarray]:
        if not (0 <= i < self.n):
            raise IndexError(f"sample index {i} out of range [0, {self.n})")
        s, e = self.X.indptr[i], self.X.indptr[i + 1]
        return self.X.indices[s:e], self.X.data[s:e]

    def _margin(self, i: SampleId, x: Vec) -> float:
        idx, val = self._row(i)
        return self.labels[i] * float(np.dot(val, x[idx]))

    @staticmethod
    def _q_of_margin(t):
        # log(1 + exp(-t)), stable for large |t|
        return np.logaddexp(0.0, -t)

    def _g_value(self, x: Vec) -> float:
        rx2 = self.rho * x * x
        return self.lambda2 * float(np.sum(rx2 / (1.0 + rx2)))

    def _g_grad(self, x: Vec) -> Vec:
        return 2.0 * self.lambda2 * self.rho * x / (1.0 + self.rho * x * x) ** 2

    def _g_hess_diag(self, x: Vec) -> Vec:
        rx2 = self.rho * x * x
        return 2.0 * self.lambda2 * self.rho * (1.0 - 3.0 * rx2) / (1.0 + rx2) ** 3

    def _v_value(self, y: Vec) -> float:
        return 0.5 * self.lambda1 * float(np.sum((self.n * y - 1.0) ** 2))

    def _v_grad(self, y: Vec) -> Vec:
        return self.lambda1 * self.n * (self.n * y - 1.0)

    # -- oracle interface --------------------------------------------------
    def sample_loss(self, x: Vec, y: Vec, xi: SampleId) -> float:
        t = self._margin(xi, x)
        return (self.n * y[xi] * float(self._q_of_margin(t)) - self._v_value(y)
                + self._g_value(x))

    def sample_gradient(self, x: Vec, y: Vec, xi: SampleId) -> GradPair:
        idx, val = self._row(xi)
        t = self.labels[xi] * float(np.dot(val, x[idx]))
        # grad Q_i(x) = -l_i sigma(-t) r_i
        coef = -self.labels[xi] * expit(-t)
        gx = self._g_grad(x)
        gx[idx] += self.n * y[xi] * coef * val
        gy = -self._v_grad(y)
        gy[xi] += self.n * self._q_of_margin(t)
        return GradPair(gx, gy)

    def sample_hvp(self, x: Vec, y: Vec, xi: SampleId, dx: Vec, dy: Vec) -> HvpResult:
        idx, val = self._row(xi)
        li = self.labels[xi]
        t = li * float(np.dot(val, x[idx]))
        s = expit(-t)
        q2 = s * (1.0 - s)                     # sigma(-t) sigma(t)
        rdx = float(np.dot(val, dx[idx]))
        gq_coef = -li * s                      # grad Q_i = gq_coef * r_i
        hx = self._g_hess_diag(x) * dx
        hx[idx] += self.n * (y[xi] * q2 * rdx + dy[xi] * gq_coef) * val
        hy = -self.lambda1 * self.n ** 2 * dy
        hy[xi] += self.n * gq_coef * rdx
        return HvpResult(hx, hy)

    def _margins(self, x: Vec) -> np.ndarray:
        return self.labels * (self.X @ x)

    # J and grad_x J from the margins t (and the losses q = q(t))
    def _objective_at(self, q: np.ndarray, x: Vec, y: Vec) -> float:
        return float(np.dot(y, q)) - self._v_value(y) + self._g_value(x)

    def _grad_x_at(self, t: np.ndarray, x: Vec, y: Vec) -> Vec:
        coef = -self.labels * expit(-t) * y
        return np.asarray(self.X.T @ coef).ravel() + self._g_grad(x)

    def full_gradient(self, x: Vec, y: Vec) -> GradPair:
        t = self._margins(x)
        return GradPair(self._grad_x_at(t, x, y),
                        self._q_of_margin(t) - self._v_grad(y))

    def objective(self, x: Vec, y: Vec) -> float:
        return self._objective_at(self._q_of_margin(self._margins(x)), x, y)

    def project_y(self, y: Vec) -> Vec:
        return project_simplex(y)

    def inner_max(self, x: Vec) -> InnerMaxReport:
        # one margin vector serves y*, P(x) = J(x, y*) and, by Danskin (the
        # maximizer is unique), grad P(x) = grad_x J(x, y*)
        t = self._margins(x)
        q = self._q_of_margin(t)
        y = project_simplex(1.0 / self.n + q / (self.lambda1 * self.n ** 2))
        return InnerMaxReport(y, self._objective_at(q, x, y),
                              self._grad_x_at(t, x, y))


# ---------------------------------------------------------------------------
# synthetic quadratic testbeds
# ---------------------------------------------------------------------------

def _joint_hessian_norm(A: np.ndarray, B: np.ndarray, Hyy: np.ndarray) -> float:
    """Spectral norm of [[A, B], [B', Hyy]]: L_f of a quadratic J."""
    return float(np.linalg.norm(np.block([[A, B], [B.T, Hyy]]), 2))


class _AdditiveNoise(MinimaxProblem):
    """Additive Gaussian gradient noise whose draw is the sample.

    draw_sample returns noise_sigma * N(0, I) over (x, y), from the run's
    own stream, and sample_gradient adds it to the exact gradient. A fixed
    sample therefore always gives the same perturbation, so the correction
    terms of recursive-momentum methods cancel the noise exactly, as they
    assume. A noiseless problem draws nothing (the sample is None).
    """

    noise_sigma: float

    def draw_sample(self, rng: np.random.Generator) -> SampleId:
        if self.noise_sigma == 0.0:
            return None
        return self.noise_sigma * rng.standard_normal(self.dim_x + self.dim_y)

    def _add_noise(self, g: GradPair, xi: SampleId) -> GradPair:
        if self.noise_sigma == 0.0:
            return g
        return GradPair(g.gx + xi[:self.dim_x], g.gy + xi[self.dim_x:])


class QuadraticMinimaxProblem(_AdditiveNoise):
    """J(x, y) = 0.5 x'Ax + x'By - 0.5 nu ||y||^2 with additive gradient
    noise (see _AdditiveNoise)."""

    def __init__(self, A: np.ndarray, B: np.ndarray, nu: float,
                 noise_sigma: float = 0.0):
        A = np.asarray(A, dtype=np.float64)
        B = np.asarray(B, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if not np.allclose(A, A.T, atol=1e-12):
            raise ValueError("A must be symmetric")
        if B.shape[0] != A.shape[0]:
            raise ValueError(f"B row count {B.shape[0]} != dim of A {A.shape[0]}")
        if nu <= 0:
            raise ValueError(f"nu must be positive, got {nu}")
        self.A, self.B, self.nu = A, B, float(nu)
        self.noise_sigma = float(noise_sigma)
        self.dim_x, self.dim_y = B.shape
        self.lipschitz_L_f = _joint_hessian_norm(A, B, -nu * np.eye(self.dim_y))
        self._p_hessian = A + B @ B.T / nu

    @classmethod
    def random(cls, d: int, m: int, nu: float, noise_sigma: float, seed: int,
               a_eigs: Tuple[float, float] = (-0.5, 0.5), b_scale: float = 0.5):
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        A = Q @ np.diag(np.linspace(a_eigs[0], a_eigs[1], d)) @ Q.T
        A = 0.5 * (A + A.T)
        B = b_scale * rng.standard_normal((d, m)) / np.sqrt(m)
        return cls(A, B, nu, noise_sigma=noise_sigma)

    def _exact_gradient(self, x: Vec, y: Vec) -> GradPair:
        return GradPair(self.A @ x + self.B @ y, self.B.T @ x - self.nu * y)

    def sample_gradient(self, x: Vec, y: Vec, xi: SampleId) -> GradPair:
        return self._add_noise(self._exact_gradient(x, y), xi)

    def sample_hvp(self, x: Vec, y: Vec, xi: SampleId, dx: Vec, dy: Vec) -> HvpResult:
        return HvpResult(self.A @ dx + self.B @ dy, self.B.T @ dx - self.nu * dy)

    def full_gradient(self, x: Vec, y: Vec) -> GradPair:
        return self._exact_gradient(x, y)

    def objective(self, x: Vec, y: Vec) -> float:
        return float(0.5 * x @ self.A @ x + x @ self.B @ y
                     - 0.5 * self.nu * y @ y)

    def inner_max(self, x: Vec) -> InnerMaxReport:
        return InnerMaxReport(self.B.T @ x / self.nu,
                              float(0.5 * x @ self._p_hessian @ x),
                              self.grad_p(x))

    def grad_p(self, x: Vec) -> Vec:
        return self._p_hessian @ x


class PlToyProblem(_AdditiveNoise):
    """J(x, y) = 0.5 x'Ax + x'By - 0.5 y'Cy with C PSD and singular.

    -J is PL in y with constant delta = smallest nonzero eigenvalue of C.
    The inner argmax is a set; the minimum-norm solution pinv(C) B' x is
    returned. Construction rejects couplings whose range leaves range(C)
    (the inner max would be unbounded).
    """

    def __init__(self, A: np.ndarray, B: np.ndarray, C: np.ndarray,
                 noise_sigma: float = 0.0):
        A = np.asarray(A, dtype=np.float64)
        B = np.asarray(B, dtype=np.float64)
        C = np.asarray(C, dtype=np.float64)
        if not np.allclose(A, A.T, atol=1e-12):
            raise ValueError("A must be symmetric")
        if not np.allclose(C, C.T, atol=1e-12):
            raise ValueError("C must be symmetric")
        evals = np.linalg.eigvalsh(C)
        if evals.min() < -1e-10:
            raise ValueError("C must be positive semidefinite")
        self.C_pinv = np.linalg.pinv(C, rcond=1e-12)
        # range(B^T-image) must lie inside range(C)
        leak = B.T - C @ (self.C_pinv @ B.T)
        if np.linalg.norm(leak) > 1e-8 * max(1.0, np.linalg.norm(B)):
            raise ValueError("columns of B' leave range(C): inner max unbounded")
        nonzero = evals[evals > 1e-10]
        if nonzero.size == 0:
            raise ValueError("C is identically zero; no PL constant")
        self.delta = float(nonzero.min())
        self.A, self.B, self.C = A, B, C
        self.noise_sigma = float(noise_sigma)
        self.dim_x, self.dim_y = B.shape
        self.lipschitz_L_f = _joint_hessian_norm(A, B, -C)
        self._p_hessian = A + B @ self.C_pinv @ B.T

    def sample_gradient(self, x: Vec, y: Vec, xi: SampleId) -> GradPair:
        return self._add_noise(self.full_gradient(x, y), xi)

    def sample_hvp(self, x: Vec, y: Vec, xi: SampleId, dx: Vec, dy: Vec) -> HvpResult:
        return HvpResult(self.A @ dx + self.B @ dy, self.B.T @ dx - self.C @ dy)

    def full_gradient(self, x: Vec, y: Vec) -> GradPair:
        return GradPair(self.A @ x + self.B @ y, self.B.T @ x - self.C @ y)

    def objective(self, x: Vec, y: Vec) -> float:
        return float(0.5 * x @ self.A @ x + x @ self.B @ y - 0.5 * y @ self.C @ y)

    def inner_max(self, x: Vec) -> InnerMaxReport:
        return InnerMaxReport(self.C_pinv @ (self.B.T @ x),
                              float(0.5 * x @ self._p_hessian @ x),
                              self.grad_p(x))

    def grad_p(self, x: Vec) -> Vec:
        return self._p_hessian @ x
