"""Minimax problem interface, the worst-case evaluator and the metrics.

A problem's stochastic oracle works on the joint variable z = (x, y), one
array of length dim_x + dim_y with x first: `sample_gradient(z, xi)`
returns the joint gradient and `sample_hvp(z, xi, dz)` the joint
Hessian-vector product H(z; xi) dz, each as one such array. Samples are
drawn in blocks from the run's stream by `draw_samples`. The closed-form
inner max gives y*(x), P(x) = max_y J(x, y) and grad P(x), all in one
report. The finite-difference oracle here is deliberately independent of
the analytic code paths it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from .core import Vec, norm2

# A sample is a dataset row index for finite-sample problems, or the oracle
# noise draw itself for synthetic ones (None when they are noiseless).
SampleId = Union[int, np.ndarray, None]


@dataclass(frozen=True)
class InnerMaxReport:
    """The inner max at x: y*(x), P(x) = J(x, y*(x)) and grad P(x). It is
    solved in closed form, so iters_used is always 0 and converged always
    True. margins is whatever `grad_x` at this x may reuse (robust
    logistic's l * (X x)), or None."""

    y_star: Vec
    p_value: float
    grad_p: Vec
    iters_used: int = 0
    converged: bool = True
    margins: Optional[Vec] = None


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

    # -- stochastic oracle, on z = (x, y) ------------------------------------
    def draw_samples(self, rng: np.random.Generator, k: int) -> Sequence[SampleId]:
        """k samples in one draw from rng: the same samples, in the same
        order, as k successive one-sample draws."""
        return rng.integers(self.n_samples, size=k).tolist()

    def sample_gradient(self, z: Vec, xi: SampleId) -> Vec:
        raise NotImplementedError

    def sample_hvp(self, z: Vec, xi: SampleId, dz: Vec) -> Vec:
        raise NotImplementedError

    def full_gradient(self, z: Vec) -> Vec:
        raise NotImplementedError

    def grad_x(self, z: Vec, margins: Optional[Vec] = None) -> Vec:
        """The exact x-gradient grad_x J(z); margins are an inner max's at
        z's x (`InnerMaxReport.margins`), for a problem that can reuse them."""
        return self.full_gradient(z)[:self.dim_x]

    def objective(self, x: Vec, y: Vec) -> float:
        raise NotImplementedError

    # -- constraint hook ---------------------------------------------------
    def project_y(self, y: Vec) -> Vec:
        """Project y onto the feasible set in place and return y itself;
        `step` passes a view into the new iterate and rejects any other
        return value."""
        return y

    # -- the problem a run steps on ----------------------------------------
    def restrict(self, samples: Iterator[SampleId], y0: Vec
                 ) -> Tuple["MinimaxProblem", Vec, Iterator[SampleId]]:
        """(problem, y0, samples) for a run that draws `samples`: the
        identity here, which returns the iterator unread. A problem may
        return one that steps on a shorter y, with the samples as that
        problem's ids; `lift_y` maps its y back."""
        return self, y0, samples

    def lift_y(self, y: Vec) -> Vec:
        """A y of the problem `restrict` returned, on this problem."""
        return y

    # -- closed-form inner max ---------------------------------------------
    def inner_max(self, x: Vec) -> InnerMaxReport:
        raise NotImplementedError

    def grad_p(self, x: Vec) -> Vec:
        """grad P(x), or each row's of a (k, dim_x) stack: an inner max a row."""
        if x.ndim == 1:
            return self.inner_max(x).grad_p
        out = np.empty_like(x)
        for i, row in enumerate(x):
            out[i] = self.inner_max(row).grad_p
        return out

    def p_value(self, x: Vec) -> float:
        """P(x) alone: the inner max's value, without grad P where that
        costs a product of its own."""
        return self.inner_max(x).p_value


def finite_difference_hvp(problem: MinimaxProblem, z: Vec, xi: SampleId,
                          dz: Vec, h: Optional[float] = None) -> Vec:
    """Central-difference reference for sample_hvp.

    [grad Q(z + h d) - grad Q(z - h d)] / (2h) along the joint direction
    d = dz. The step is scaled by max(1, ||z||) and by ||d|| to balance
    truncation against roundoff.
    """
    dnorm = norm2(dz)
    if dnorm == 0.0:
        return np.zeros_like(dz)
    if h is None:
        h = 1e-5 * max(1.0, norm2(z))
    t = h / dnorm
    gp = problem.sample_gradient(z + t * dz, xi)
    gm = problem.sample_gradient(z - t * dz, xi)
    return (gp - gm) / (2.0 * t)


def evaluate_P(problem: MinimaxProblem, x: Vec) -> InnerMaxReport:
    """Evaluate the worst-case objective P(x) = max_y J(x, y) in closed form."""
    return problem.inner_max(x)


def metric_ci(problem: MinimaxProblem, z: Vec, m_x_clipped: Vec,
              y_star: Vec, margins: Optional[Vec] = None) -> float:
    """Stationarity surrogate at z = (x, y):
    L_f ||y*(x) - y|| + ||grad_x J - m|| + ||m||, with m = m_x_clipped, and
    y_star = y*(x) and margins as the caller's inner max gave them.

    Upper-bounds ||grad P(x)|| = ||grad_x J(x, y*(x))|| (Danskin).
    """
    gx = problem.grad_x(z, margins)
    return (problem.lipschitz_L_f * norm2(y_star - z[problem.dim_x:])
            + norm2(gx - m_x_clipped) + norm2(m_x_clipped))
