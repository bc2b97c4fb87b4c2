"""Minimax problem interface, the worst-case evaluator and the metrics.

A problem exposes stochastic gradients and matrix-free block Hessian-vector
products over the joint variable z = (x, y), plus the closed-form inner max:
y*(x), P(x) = max_y J(x, y) and grad P(x), all in one report. The
finite-difference oracle here is deliberately independent of the analytic
code paths it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import Vec, norm2

# A sample is a dataset row index for finite-sample problems, or the oracle
# noise draw itself for synthetic ones (None when they are noiseless).
SampleId = Union[int, np.ndarray, None]


@dataclass(frozen=True)
class GradPair:
    gx: Vec
    gy: Vec


@dataclass(frozen=True)
class HvpResult:
    """Block Hessian-vector product: hx = Hxx dx + Hxy dy, hy = Hyx dx + Hyy dy."""

    hx: Vec
    hy: Vec


@dataclass(frozen=True)
class InnerMaxReport:
    """The inner max at x: y*(x), P(x) = J(x, y*(x)) and grad P(x). It is
    solved in closed form, so iters_used is always 0 and converged always
    True."""

    y_star: Vec
    p_value: float
    grad_p: Vec
    iters_used: int = 0
    converged: bool = True


class MinimaxProblem:
    """Base class for min-max problems J(x, y) = E_xi Q(x, y; xi).

    Subclasses implement the stochastic oracle and the closed-form inner max;
    everything is a pure function of its arguments (problems are immutable
    after construction).
    """

    dim_x: int
    dim_y: int
    n_samples: Optional[int] = None  # rows of a finite-sample problem
    lipschitz_L_f: float             # bound on the Lipschitz constant of grad J

    # -- stochastic oracle -------------------------------------------------
    def draw_sample(self, rng: np.random.Generator) -> SampleId:
        return int(rng.integers(self.n_samples))

    def sample_gradient(self, x: Vec, y: Vec, xi: SampleId) -> GradPair:
        raise NotImplementedError

    def sample_hvp(self, x: Vec, y: Vec, xi: SampleId,
                   dx: Vec, dy: Vec) -> HvpResult:
        raise NotImplementedError

    def full_gradient(self, x: Vec, y: Vec) -> GradPair:
        raise NotImplementedError

    def objective(self, x: Vec, y: Vec) -> float:
        raise NotImplementedError

    # -- constraint hook ---------------------------------------------------
    def project_y(self, y: Vec) -> Vec:
        return y

    # -- closed-form inner max ---------------------------------------------
    def inner_max(self, x: Vec) -> InnerMaxReport:
        raise NotImplementedError

    def grad_p(self, x: Vec) -> Vec:
        return self.inner_max(x).grad_p


def finite_difference_hvp(problem: MinimaxProblem, x: Vec, y: Vec, xi: SampleId,
                          dx: Vec, dy: Vec, h: Optional[float] = None) -> HvpResult:
    """Central-difference reference for sample_hvp.

    [grad Q(z + h d) - grad Q(z - h d)] / (2h) along the joint direction
    d = (dx, dy). The step is scaled by max(1, ||z||) and by ||d|| to balance
    truncation against roundoff.
    """
    dnorm = np.sqrt(norm2(dx) ** 2 + norm2(dy) ** 2)
    if dnorm == 0.0:
        return HvpResult(np.zeros_like(dx), np.zeros_like(dy))
    if h is None:
        znorm = np.sqrt(norm2(x) ** 2 + norm2(y) ** 2)
        h = 1e-5 * max(1.0, znorm)
    t = h / dnorm
    gp = problem.sample_gradient(x + t * dx, y + t * dy, xi)
    gm = problem.sample_gradient(x - t * dx, y - t * dy, xi)
    return HvpResult((gp.gx - gm.gx) / (2.0 * t), (gp.gy - gm.gy) / (2.0 * t))


def evaluate_P(problem: MinimaxProblem, x: Vec) -> InnerMaxReport:
    """Evaluate the worst-case objective P(x) = max_y J(x, y) in closed form."""
    return problem.inner_max(x)


def metric_ci(problem: MinimaxProblem, x: Vec, y: Vec, m_x_clipped: Vec,
              y_star: Vec) -> float:
    """Stationarity surrogate: L_f ||y*(x) - y|| + ||grad_x J - m|| + ||m||,
    with y_star = y*(x) as the caller's inner max gave it.

    Upper-bounds ||grad P(x)|| = ||grad_x J(x, y*(x))|| (Danskin).
    """
    gx = problem.full_gradient(x, y).gx
    return (problem.lipschitz_L_f * norm2(y_star - y)
            + norm2(gx - m_x_clipped) + norm2(m_x_clipped))
