"""The four iterative methods, as one step function.

HCMM-1, HCMM-2 and STORM-GDA share one corrected-momentum recursion,

    m <- (1 - beta) (m + c) + beta g,

with g a stochastic gradient at z_i = (x_i, y_i) and c the correction for the
move from z_{i-1}: the sample Hessian-vector product H (z_i - z_{i-1}) for
HCMM, and the same-sample gradient difference g(z_i) - g(z_{i-1}) for STORM.
They differ only in how m becomes a step: HCMM-1 clips it, HCMM-2 normalizes
it and STORM-GDA uses it as is. SAGDA (stochastic alternating GDA) keeps no
momentum and takes its ascent gradient at the already-updated x.

`step` is a pure function of (kind, state, momentum, schedule, problem,
rng); `iterate_steps` threads the state and owns the single RNG stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Tuple, Union

import numpy as np

from .core import (HyperSchedule, IterateState, MomentumState, Vec,
                   clip_momentum, norm2)
from .oracle import MinimaxProblem, SampleId


@dataclass(frozen=True)
class Hcmm1:
    # theory mode feeds the momentum recursion from the clipped vectors;
    # experiment mode (default) updates from the raw momentum
    update_from_clipped: bool = False


@dataclass(frozen=True)
class Hcmm2:
    norm_floor: float = 1e-12

    def __post_init__(self):
        if self.norm_floor <= 0:
            raise ValueError(f"norm_floor must be positive, got {self.norm_floor}")


@dataclass(frozen=True)
class StormGda:
    pass


@dataclass(frozen=True)
class Sagda:
    pass


OptimizerKind = Union[Hcmm1, Hcmm2, StormGda, Sagda]


@dataclass(frozen=True)
class StepOutput:
    next_state: IterateState
    next_momentum: MomentumState
    samples_used: Tuple[SampleId, ...]   # one per stochastic oracle draw
    diagnostics: dict = field(default_factory=dict)


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
             rng: np.random.Generator) -> Tuple[IterateState, MomentumState]:
    """Initial state: z1 = z0 (first correction term vanishes) and momentum
    seeded with one fresh stochastic gradient at z0; SAGDA keeps no momentum."""
    x0 = np.asarray(x0, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    state = IterateState(x_curr=x0.copy(), y_curr=y0.copy(),
                         x_prev=x0.copy(), y_prev=y0.copy(), iter=0)
    if isinstance(kind, Sagda):
        return state, MomentumState(np.zeros_like(x0), np.zeros_like(y0))
    xi0 = problem.draw_sample(rng)
    g0 = problem.sample_gradient(x0, y0, xi0)
    if isinstance(kind, Hcmm1):
        N, N1 = schedule.clip_threshold, schedule.clip_norm
        if N is None or N1 is None:
            raise ValueError("HCMM-1 needs clip_threshold and clip_norm")
        return state, MomentumState(g0.gx, g0.gy,
                                    clip_momentum(g0.gx, N, N1),
                                    clip_momentum(g0.gy, N, N1))
    return state, MomentumState(g0.gx, g0.gy)


def step(kind: OptimizerKind, state: IterateState, momentum: MomentumState,
         schedule: HyperSchedule, problem: MinimaxProblem,
         rng: np.random.Generator, project_y: bool = True) -> StepOutput:
    """One iteration of `kind` from `state`; the shared recursion is in the
    module docstring."""
    if not isinstance(kind, (Hcmm1, Hcmm2, StormGda, Sagda)):
        raise TypeError(f"unknown optimizer kind: {kind!r}")
    hcmm1 = isinstance(kind, Hcmm1)
    if hcmm1 and (momentum.m_x_clipped is None or momentum.m_y_clipped is None):
        raise ValueError("HCMM-1 step requires momentum with clipped fields")
    x, y = state.x_curr, state.y_curr
    xi = problem.draw_sample(rng)
    samples: Tuple[SampleId, ...] = (xi,)
    g = problem.sample_gradient(x, y, xi)
    mc_x = mc_y = None
    if isinstance(kind, Sagda):
        # alternating: the ascent gradient is taken at the already-updated x
        m_x = g.gx
        x_next = x - schedule.mu_x * m_x
        xi2 = problem.draw_sample(rng)
        samples = (xi, xi2)
        m_y = problem.sample_gradient(x_next, y, xi2).gy
        y_next = y + schedule.mu_y * m_y
    elif isinstance(kind, StormGda):
        # g + (1 - beta)(m - g_prev), not the HCMM form: the last bits of
        # every STORM trace depend on this operation order
        g_prev = problem.sample_gradient(state.x_prev, state.y_prev, xi)
        m_x = g.gx + (1.0 - schedule.beta_x) * (momentum.m_x - g_prev.gx)
        m_y = g.gy + (1.0 - schedule.beta_y) * (momentum.m_y - g_prev.gy)
    else:
        H = problem.sample_hvp(x, y, xi, x - state.x_prev, y - state.y_prev)
        from_clipped = hcmm1 and kind.update_from_clipped
        m_x = hcmm_momentum_update(
            momentum.m_x_clipped if from_clipped else momentum.m_x,
            schedule.beta_x, g.gx, H.hx)
        m_y = hcmm_momentum_update(
            momentum.m_y_clipped if from_clipped else momentum.m_y,
            schedule.beta_y, g.gy, H.hy)
    nx, ny = norm2(m_x), norm2(m_y)
    if isinstance(kind, Hcmm2):
        # the normalized update is undefined at m = 0; skip that block instead
        x_next = x - schedule.mu_x * m_x / nx if nx > kind.norm_floor else x
        y_next = y + schedule.mu_y * m_y / ny if ny > kind.norm_floor else y
    elif not isinstance(kind, Sagda):
        d_x, d_y = m_x, m_y
        if hcmm1:
            N, N1 = schedule.clip_threshold, schedule.clip_norm
            if N is None or N1 is None:
                raise ValueError("HCMM-1 needs clip_threshold and clip_norm "
                                 "on the schedule")
            d_x = mc_x = clip_momentum(m_x, N, N1, nx)
            d_y = mc_y = clip_momentum(m_y, N, N1, ny)
        x_next = x - schedule.mu_x * d_x
        y_next = y + schedule.mu_y * d_y
    if project_y:
        y_next = problem.project_y(y_next)
    return StepOutput(
        next_state=IterateState(x_curr=x_next, y_curr=y_next, x_prev=x,
                                y_prev=y, iter=state.iter + 1),
        next_momentum=momentum if isinstance(kind, Sagda)
        else MomentumState(m_x, m_y, mc_x, mc_y),
        samples_used=samples,
        diagnostics={"m_x_norm": nx, "m_y_norm": ny,
                     "clipped_x": hcmm1 and mc_x is not m_x,
                     "clipped_y": hcmm1 and mc_y is not m_y})


def iterate_steps(kind: OptimizerKind, problem: MinimaxProblem,
                  schedule: HyperSchedule, x0: Vec, y0: Vec, T: int,
                  rng_seed: int, project_y: bool = True) -> Iterator[StepOutput]:
    """Yield T step outputs; deterministic for a fixed (seed, config)."""
    rng = np.random.default_rng(rng_seed)
    state, momentum = init_run(kind, problem, schedule, x0, y0, rng)
    for i in range(T):
        try:
            out = step(kind, state, momentum, schedule, problem, rng,
                       project_y=project_y)
        except Exception as exc:
            raise RuntimeError(f"optimizer step failed at iteration {i + 1}") from exc
        yield out
        state, momentum = out.next_state, out.next_momentum
