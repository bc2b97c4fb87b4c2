"""The four iterative methods, as one step function on the joint iterate.

HCMM-1, HCMM-2 and STORM-GDA share one corrected-momentum recursion on
z = (x, y),

    m <- (1 - beta) (m + c) + beta g,

with g a stochastic gradient at z_i and c the correction for the move from
z_{i-1}: the sample Hessian-vector product H (z_i - z_{i-1}) for HCMM, and
the same-sample gradient difference g(z_i) - g(z_{i-1}) for STORM. They
differ only in how m becomes a step: HCMM-1 clips it, HCMM-2 normalizes it
and STORM-GDA uses it as is, each block (x, then y) by its own norm. SAGDA
(stochastic alternating GDA) keeps no momentum and takes its ascent
gradient at the already-updated x.

Iterates, momenta and oracle results are single arrays of length
dim_x + dim_y, with x and y as views into them, so the recursion, the
displacement and the descent-ascent update are one numpy call each.
`JointSchedule` expands a schedule's per-block scalars over the coordinates
once per run (one scalar stays when both blocks share it); elementwise this
gives the same bits as the scalars.

One `StepState` holds what a step leaves behind and all the next step reads.
`step` is a pure function of (kind, state, joint schedule, problem,
samples); `iterate_steps` threads the state and takes the samples from the
iterator it is given: the run's one stream (`sample_stream`), or a
restriction's replay of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Iterator, Tuple, Union

import numpy as np

from .core import HyperSchedule, Vec, clip_momentum, norm2
from .oracle import MinimaxProblem, SampleId

# HCMM-2 leaves a block in place while its momentum norm is at most this:
# the normalized step is undefined at m = 0
NORM_FLOOR = 1e-12

# samples drawn from the run's stream per block; a synthetic problem's block
# is one (SAMPLE_BLOCK, dim_x + dim_y) noise array
SAMPLE_BLOCK = 1024


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
KINDS = (Hcmm1, Hcmm2, StormGda, Sagda)


@dataclass(frozen=True)
class JointSchedule:
    """A schedule expanded over the coordinates of z = (x, y).

    beta is beta_x on x and beta_y on y, keep = 1 - beta, and move is
    -mu_x on x and +mu_y on y, so z + move * m is the descent-ascent update.
    beta and keep are one scalar each when beta_x = beta_y, as in every
    shipped schedule: the same bits, and on a large z one vector fewer to
    read per numpy call. The scalar is a 0-d array: numpy takes one faster
    than a Python float. move differs in sign between the blocks, so it is
    always a vector. mu_x and mu_y are SAGDA's step sizes, one per block,
    as 0-d arrays too.
    """

    schedule: HyperSchedule
    dim_x: int
    beta: Vec
    keep: Vec
    move: Vec
    mu_x: Vec
    mu_y: Vec

    @classmethod
    def expand(cls, schedule: HyperSchedule, dim_x: int,
               dim_y: int) -> "JointSchedule":
        def per_block(vx: float, vy: float) -> Vec:
            if vx == vy:
                return np.array(vx)
            return np.repeat([vx, vy], [dim_x, dim_y])

        s = schedule
        return cls(s, dim_x, per_block(s.beta_x, s.beta_y),
                   per_block(1.0 - s.beta_x, 1.0 - s.beta_y),
                   per_block(-s.mu_x, s.mu_y), np.array(s.mu_x),
                   np.array(s.mu_y))


@dataclass(slots=True)
class StepState:
    """One step's record: the iterate it reached and the momentum it used.

    The step formed m at z_prev and moved from there to z; the next step's
    correction applies to that displacement. m_clipped is HCMM-1's
    momentum after clipping each block, and m itself when neither block
    was clipped and for every other kind; clipped_x and clipped_y say which
    blocks were. m_x_norm and m_y_norm are the norms of m's blocks; SAGDA
    keeps its momentum at zero and records the norms of its descent and
    ascent stochastic gradients there. `iter` counts steps from 0 at
    `init_run`.
    x and y are views into z; each state carries dim_x (the problem and the
    JointSchedule hold it too) so that these views need nothing else.
    """

    z: Vec
    z_prev: Vec
    m: Vec
    m_clipped: Vec
    clipped_x: bool
    clipped_y: bool
    m_x_norm: float
    m_y_norm: float
    iter: int
    dim_x: int

    @property
    def x(self) -> Vec:
        return self.z[:self.dim_x]

    @property
    def y(self) -> Vec:
        return self.z[self.dim_x:]


def samples_per_run(kind: OptimizerKind, T: int) -> int:
    """How many samples a run of T steps draws: two per SAGDA step; one per
    step plus the initial momentum's for the others."""
    return 2 * T if isinstance(kind, Sagda) else T + 1


def sample_stream(problem: MinimaxProblem,
                  rng: np.random.Generator) -> Iterator[SampleId]:
    """The samples of `problem` from rng, endlessly, drawn SAMPLE_BLOCK at a
    time: the same samples, in the same order, as one draw per sample. Each
    block is a fresh array, so a sample stays as drawn."""
    while True:
        yield from problem.draw_samples(rng, SAMPLE_BLOCK)


def _clip_blocks(m: Vec, m_x: Vec, m_y: Vec, nx: float, ny: float,
                 schedule: HyperSchedule) -> Tuple[Vec, bool, bool]:
    """HCMM-1's clipping of each block of m (the views m_x and m_y, of
    norms nx and ny) by its own norm: (m_clipped, clipped_x, clipped_y),
    with m itself when neither block was clipped."""
    N, N1 = schedule.clip_threshold, schedule.clip_norm
    mc_x = clip_momentum(m_x, N, N1, nx)
    mc_y = clip_momentum(m_y, N, N1, ny)
    # clip_momentum returns its argument itself when it does not rescale
    clipped_x, clipped_y = mc_x is not m_x, mc_y is not m_y
    if clipped_x or clipped_y:
        return np.concatenate((mc_x, mc_y)), clipped_x, clipped_y
    return m, False, False


def init_run(kind: OptimizerKind, problem: MinimaxProblem, js: JointSchedule,
             x0: Vec, y0: Vec, samples: Iterator[SampleId]) -> StepState:
    """Initial state: z1 = z0 (first correction term vanishes) and momentum
    seeded with one fresh stochastic gradient at z0; SAGDA keeps no momentum."""
    hcmm1 = isinstance(kind, Hcmm1)
    if hcmm1 and (js.schedule.clip_threshold is None
                  or js.schedule.clip_norm is None):
        raise ValueError("HCMM-1 needs clip_threshold and clip_norm")
    d = js.dim_x
    z0 = np.concatenate((x0, y0), dtype=np.float64)
    if isinstance(kind, Sagda):
        m = np.zeros_like(z0)
    else:
        m = problem.sample_gradient(z0, next(samples))
    m_x, m_y = m[:d], m[d:]
    nx, ny = norm2(m_x), norm2(m_y)
    mc, cx, cy = _clip_blocks(m, m_x, m_y, nx, ny, js.schedule) if hcmm1 \
        else (m, False, False)
    return StepState(z0, z0, m, mc, cx, cy, nx, ny, 0, d)


def step(kind: OptimizerKind, s: StepState, js: JointSchedule,
         problem: MinimaxProblem, samples: Iterator[SampleId]) -> StepState:
    """One iteration of `kind` from `s`, drawing its samples from `samples`;
    the shared recursion is in the module docstring."""
    if (t := type(kind)) not in KINDS:
        raise TypeError(f"unknown optimizer kind: {kind!r}")
    d, z = js.dim_x, s.z
    xi = next(samples)
    g = problem.sample_gradient(z, xi)
    m, mc, cx, cy = s.m, s.m_clipped, False, False
    if t is Sagda:
        # alternating: the ascent gradient is taken at the already-updated x
        gx = g[:d]
        z_next = z.copy()
        z_next[:d] -= js.mu_x * gx
        gy = problem.sample_gradient(z_next, next(samples))[d:]
        z_next[d:] += js.mu_y * gy
        nx, ny = sqrt(gx.dot(gx)), sqrt(gy.dot(gy))
    else:
        if t is StormGda:
            # g + (1 - beta)(m - g_prev), not the HCMM form: the last bits
            # of every STORM trace depend on this operation order
            c = problem.sample_gradient(s.z_prev, xi)
            np.subtract(m, c, out=c)
            c *= js.keep
            m = np.add(g, c, out=c)
        else:
            # (1 - beta)(m + H d) + beta g in place, in the expression's order
            if t is Hcmm1 and kind.update_from_clipped:
                m = mc
            m = m + problem.sample_hvp(z, xi, z - s.z_prev)
            m *= js.keep
            m += js.beta * g
        m_x, m_y = m[:d], m[d:]
        nx, ny = sqrt(m_x.dot(m_x)), sqrt(m_y.dot(m_y))
        mc = m
        if t is Hcmm2:
            u = js.move * m
            if nx > NORM_FLOOR:
                u[:d] /= nx
            if ny > NORM_FLOOR:
                u[d:] /= ny
            z_next = z + u
            # a block whose momentum is at most the floor stays where it is
            if nx <= NORM_FLOOR:
                z_next[:d] = z[:d]
            if ny <= NORM_FLOOR:
                z_next[d:] = z[d:]
        else:
            if t is Hcmm1:
                mc, cx, cy = _clip_blocks(m, m_x, m_y, nx, ny, js.schedule)
            z_next = js.move * mc
            z_next += z
    y_next = z_next[d:]
    if problem.project_y(y_next) is not y_next:
        raise TypeError(f"{type(problem).__name__}.project_y must project "
                        "in place and return its argument")
    return StepState(z_next, z, m, mc, cx, cy, nx, ny, s.iter + 1, d)


def iterate_steps(kind: OptimizerKind, problem: MinimaxProblem,
                  schedule: HyperSchedule, x0: Vec, y0: Vec, T: int,
                  samples: Iterator[SampleId]) -> Iterator[StepState]:
    """Yield the T states after steps 1..T, taking the run's samples from
    `samples` (`samples_per_run` of them); deterministic for fixed samples
    and config."""
    js = JointSchedule.expand(schedule, problem.dim_x, problem.dim_y)
    s = init_run(kind, problem, js, x0, y0, samples)
    for i in range(T):
        try:
            s = step(kind, s, js, problem, samples)
        except Exception as exc:
            raise RuntimeError(f"optimizer step failed at iteration {i + 1}") from exc
        yield s
