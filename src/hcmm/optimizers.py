"""The four iterative methods, as one step function.

HCMM-1, HCMM-2 and STORM-GDA share one corrected-momentum recursion,

    m <- (1 - beta) (m + c) + beta g,

with g a stochastic gradient at z_i = (x_i, y_i) and c the correction for the
move from z_{i-1}: the sample Hessian-vector product H (z_i - z_{i-1}) for
HCMM, and the same-sample gradient difference g(z_i) - g(z_{i-1}) for STORM.
They differ only in how m becomes a step: HCMM-1 clips it, HCMM-2 normalizes
it and STORM-GDA uses it as is. SAGDA (stochastic alternating GDA) keeps no
momentum and takes its ascent gradient at the already-updated x.

One `StepState` holds what a step leaves behind and all the next step reads.
`step` is a pure function of (kind, state, schedule, problem, rng);
`iterate_steps` threads the state and owns the single RNG stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple, Union

import numpy as np

from .core import HyperSchedule, Vec, clip_momentum, norm2
from .oracle import MinimaxProblem, SampleId

# HCMM-2 leaves a block in place while its momentum norm is at most this:
# the normalized step is undefined at m = 0
NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class Hcmm1:
    # theory mode feeds the momentum recursion from the clipped vectors;
    # experiment mode (default) updates from the raw momentum
    update_from_clipped: bool = False


@dataclass(frozen=True)
class Hcmm2:
    pass


@dataclass(frozen=True)
class StormGda:
    pass


@dataclass(frozen=True)
class Sagda:
    pass


OptimizerKind = Union[Hcmm1, Hcmm2, StormGda, Sagda]


@dataclass
class StepState:
    """One step's record: the iterates it reached and the momentum it used.

    The step formed m_x, m_y at (x_prev, y_prev) and moved from there to
    (x, y); the next step's correction applies to that displacement.
    m_x_clipped is HCMM-1's clipped momentum when clipping rescaled it, and
    m_x itself otherwise and for every other kind (likewise for y), so
    `m_x_clipped is not m_x` says the step clipped. m_x_norm and m_y_norm
    are ||m_x|| and ||m_y||; SAGDA keeps its momentum at zero and records
    the norms of its two stochastic gradients there. `samples` holds one
    id per stochastic oracle draw, and `iter` counts steps from 0 at
    `init_run`.
    """

    x: Vec
    y: Vec
    x_prev: Vec
    y_prev: Vec
    m_x: Vec
    m_y: Vec
    m_x_clipped: Vec
    m_y_clipped: Vec
    m_x_norm: float
    m_y_norm: float
    samples: Tuple[SampleId, ...]
    iter: int


def hcmm_momentum_update(prev_m: Vec, beta: float, grad_sample: Vec,
                         hvp_sample: Vec) -> Vec:
    """(1 - beta) [prev_m + H d] + beta g, the bias-corrected recursion.

    Computed in place on one new vector, in the operation order of the
    expression, so the bits match it exactly."""
    m = prev_m + hvp_sample
    m *= 1.0 - beta
    m += beta * grad_sample
    return m


def init_run(kind: OptimizerKind, problem: MinimaxProblem,
             schedule: HyperSchedule, x0: Vec, y0: Vec,
             rng: np.random.Generator) -> StepState:
    """Initial state: z1 = z0 (first correction term vanishes) and momentum
    seeded with one fresh stochastic gradient at z0; SAGDA keeps no momentum."""
    hcmm1 = isinstance(kind, Hcmm1)
    N, N1 = schedule.clip_threshold, schedule.clip_norm
    if hcmm1 and (N is None or N1 is None):
        raise ValueError("HCMM-1 needs clip_threshold and clip_norm")
    x0 = np.asarray(x0, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    if isinstance(kind, Sagda):
        samples: Tuple[SampleId, ...] = ()
        m_x, m_y = np.zeros_like(x0), np.zeros_like(y0)
    else:
        xi0 = problem.draw_sample(rng)
        samples = (xi0,)
        g0 = problem.sample_gradient(x0, y0, xi0)
        m_x, m_y = g0.gx, g0.gy
    nx, ny = norm2(m_x), norm2(m_y)
    mc_x, mc_y = m_x, m_y
    if hcmm1:
        mc_x = clip_momentum(m_x, N, N1, nx)
        mc_y = clip_momentum(m_y, N, N1, ny)
    return StepState(x0.copy(), y0.copy(), x0.copy(), y0.copy(), m_x, m_y,
                     mc_x, mc_y, nx, ny, samples, 0)


def step(kind: OptimizerKind, s: StepState, schedule: HyperSchedule,
         problem: MinimaxProblem, rng: np.random.Generator,
         project_y: bool = True) -> StepState:
    """One iteration of `kind` from `s`; the shared recursion is in the
    module docstring."""
    if not isinstance(kind, (Hcmm1, Hcmm2, StormGda, Sagda)):
        raise TypeError(f"unknown optimizer kind: {kind!r}")
    x, y = s.x, s.y
    xi = problem.draw_sample(rng)
    samples: Tuple[SampleId, ...] = (xi,)
    g = problem.sample_gradient(x, y, xi)
    if isinstance(kind, Sagda):
        # alternating: the ascent gradient is taken at the already-updated x
        x_next = x - schedule.mu_x * g.gx
        xi2 = problem.draw_sample(rng)
        samples = (xi, xi2)
        gy = problem.sample_gradient(x_next, y, xi2).gy
        y_next = y + schedule.mu_y * gy
        m_x, m_y, mc_x, mc_y = s.m_x, s.m_y, s.m_x_clipped, s.m_y_clipped
        nx, ny = norm2(g.gx), norm2(gy)
    else:
        if isinstance(kind, StormGda):
            # g + (1 - beta)(m - g_prev), not the HCMM form: the last bits
            # of every STORM trace depend on this operation order
            g_prev = problem.sample_gradient(s.x_prev, s.y_prev, xi)
            m_x = g.gx + (1.0 - schedule.beta_x) * (s.m_x - g_prev.gx)
            m_y = g.gy + (1.0 - schedule.beta_y) * (s.m_y - g_prev.gy)
        else:
            H = problem.sample_hvp(x, y, xi, x - s.x_prev, y - s.y_prev)
            from_clipped = isinstance(kind, Hcmm1) and kind.update_from_clipped
            m_x = hcmm_momentum_update(
                s.m_x_clipped if from_clipped else s.m_x,
                schedule.beta_x, g.gx, H.hx)
            m_y = hcmm_momentum_update(
                s.m_y_clipped if from_clipped else s.m_y,
                schedule.beta_y, g.gy, H.hy)
        nx, ny = norm2(m_x), norm2(m_y)
        mc_x, mc_y = m_x, m_y
        if isinstance(kind, Hcmm2):
            x_next = x - schedule.mu_x * m_x / nx if nx > NORM_FLOOR else x
            y_next = y + schedule.mu_y * m_y / ny if ny > NORM_FLOOR else y
        else:
            if isinstance(kind, Hcmm1):
                N, N1 = schedule.clip_threshold, schedule.clip_norm
                mc_x = clip_momentum(m_x, N, N1, nx)
                mc_y = clip_momentum(m_y, N, N1, ny)
            x_next = x - schedule.mu_x * mc_x
            y_next = y + schedule.mu_y * mc_y
    if project_y:
        y_next = problem.project_y(y_next)
    return StepState(x_next, y_next, x, y, m_x, m_y, mc_x, mc_y, nx, ny,
                     samples, s.iter + 1)


def iterate_steps(kind: OptimizerKind, problem: MinimaxProblem,
                  schedule: HyperSchedule, x0: Vec, y0: Vec, T: int,
                  rng_seed: int, project_y: bool = True) -> Iterator[StepState]:
    """Yield the T states after steps 1..T; deterministic for a fixed
    (seed, config)."""
    rng = np.random.default_rng(rng_seed)
    s = init_run(kind, problem, schedule, x0, y0, rng)
    for i in range(T):
        try:
            s = step(kind, s, schedule, problem, rng, project_y=project_y)
        except Exception as exc:
            raise RuntimeError(f"optimizer step failed at iteration {i + 1}") from exc
        yield s
