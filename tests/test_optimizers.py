import re
from dataclasses import fields, replace
from itertools import islice

import numpy as np
import pytest

import hcmm.problems
from hcmm.core import HyperSchedule, clip_momentum
from hcmm.optimizers import (SAMPLE_BLOCK, Hcmm1, Hcmm2, JointSchedule, Sagda,
                             StepState, StormGda, iterate_steps,
                             sample_stream, samples_per_run, step)
from hcmm.problems import PlToyProblem, QuadraticMinimaxProblem

from conftest import join, make_logistic, make_quadratic, stream


def explicit_schedule(mu_x=0.01, mu_y=0.01, beta=0.1, N=None, N1=None):
    return HyperSchedule(mu_x=mu_x, mu_y=mu_y, beta_x=beta, beta_y=beta,
                         clip_threshold=N, clip_norm=N1)


def make_state(x, y, m_x, m_y, x_prev=None, y_prev=None):
    """The state at (x, y), moved to from (x_prev, y_prev) (default: the
    same point) with momentum (m_x, m_y), unclipped."""
    m = join(m_x, m_y)
    return StepState(join(x, y), join(x if x_prev is None else x_prev,
                                      y if y_prev is None else y_prev),
                     m, m, False, False, np.linalg.norm(m_x),
                     np.linalg.norm(m_y), 0, len(x))


def run_step(kind, state, sched, problem, source):
    """One `step` with the schedule expanded, on a list of samples or on
    the stream of `source` (a seed or a Generator)."""
    js = JointSchedule.expand(sched, problem.dim_x, problem.dim_y)
    samples = iter(source) if isinstance(source, list) \
        else stream(problem, source)
    return step(kind, state, js, problem, samples)


def first_samples(problem, seed, count=2):
    """The first samples of a seed's stream, enough for one step of any
    kind, as a list that a test replays."""
    return list(islice(stream(problem, seed), count))


class FixedOracle:
    """A problem whose sample gradient is always g and whose sample HVP is
    always c, the same arrays on every call, so that a step's momentum is
    the recursion on given vectors."""

    def __init__(self, dim_x, g, c):
        self.dim_x, self.dim_y = dim_x, g.size - dim_x
        self.g, self.c = g, c

    def sample_gradient(self, z, xi):
        return self.g

    def sample_hvp(self, z, xi, dz):
        return self.c

    def project_y(self, y):
        return y


def momentum_step(kind, m, beta, g, c):
    """The momentum `step` forms from momentum m on FixedOracle(g, c), from
    a state at z = z_prev = 0 with x the first half of z, with beta and
    keep = 1 - beta one per coordinate when beta is a vector and one scalar
    otherwise (beta = 0 included, which no HyperSchedule takes)."""
    d = (g.size + 1) // 2
    p = FixedOracle(d, g, c)
    js = replace(JointSchedule.expand(explicit_schedule(N=1e300, N1=1e300),
                                      d, p.dim_y), beta=beta, keep=1.0 - beta)
    z = np.zeros(g.size)
    state = StepState(z, z, m, m, False, False, 0.0, 0.0, 0, d)
    return step(kind, state, js, p, iter([None])).m


def blocks(s, v):
    """The x and y blocks of a joint vector of state s."""
    return v[:s.dim_x], v[s.dim_x:]


class CountingProblem:
    """Wrapper that counts oracle calls and the samples taken off the
    stream, and records the sample of each gradient call."""

    def __init__(self, inner):
        self.inner = inner
        self.draws = 0
        self.grad_calls = 0
        self.hvp_calls = 0
        self.grad_samples = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def draw_samples(self, rng, k):
        for xi in self.inner.draw_samples(rng, k):
            self.draws += 1
            yield xi

    def sample_gradient(self, z, xi):
        self.grad_calls += 1
        self.grad_samples.append(xi)
        return self.inner.sample_gradient(z, xi)

    def sample_hvp(self, z, xi, dz):
        self.hvp_calls += 1
        return self.inner.sample_hvp(z, xi, dz)


class TestMomentumUpdate:
    # the HCMM recursion (1 - beta)(m + H d) + beta g, as `step` forms it
    # for HCMM-1 and HCMM-2
    def test_beta_one_returns_gradient(self):
        g = np.array([1.0, 2.0])
        for kind in (Hcmm1(), Hcmm2()):
            out = momentum_step(kind, np.array([9.0, 9.0]), np.ones(2), g,
                                np.array([5.0, 5.0]))
            np.testing.assert_array_equal(out, g)

    def test_beta_zero_no_hvp_keeps_history(self):
        m = np.array([1.0, -1.0])
        for kind in (Hcmm1(), Hcmm2()):
            out = momentum_step(kind, m, np.zeros(2), np.array([7.0, 7.0]),
                                np.zeros(2))
            np.testing.assert_array_equal(out, m)

    def test_bit_equal_to_expression_inputs_untouched(self):
        rng = np.random.default_rng(3)
        for n in (1, 10, 5000):
            for beta in (1e-4, 0.1, 0.5, 1.0):
                m, g, c = (rng.standard_normal(n) for _ in range(3))
                saved = [v.copy() for v in (m, g, c)]
                ref = (1.0 - beta) * (m + c) + beta * g
                # per-coordinate vectors, and the scalars a JointSchedule
                # keeps when both blocks share beta
                for kind in (Hcmm1(), Hcmm2()):
                    for b in (np.full(n, beta), np.array(beta)):
                        out = momentum_step(kind, m, b, g, c)
                        assert out.tobytes() == ref.tobytes()
                        for v, v0 in zip((m, g, c), saved):
                            assert v.tobytes() == v0.tobytes()

    @pytest.mark.parametrize("kind", [Hcmm1(update_from_clipped=True),
                                      Hcmm2(), StormGda()])
    def test_residual_decays_geometrically_noiseless(self, kind):
        # on a noiseless quadratic the correction is exact, so the momentum
        # residual m_i - grad J(z_i) contracts by (1 - beta) every step
        q = make_quadratic(d=5, m=4, seed=2)
        beta = 0.23
        sched = explicit_schedule(mu_x=0.02, mu_y=0.03, beta=beta, N=1e9, N1=1e9)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(q.dim_x)
        y = rng.standard_normal(q.dim_y)
        # deliberately wrong initial momentum so the residual is nonzero
        m0x = rng.standard_normal(q.dim_x)
        m0y = rng.standard_normal(q.dim_y)
        s = make_state(x, y, m0x, m0y)
        g0x, g0y = blocks(s, q.full_gradient(join(x, y)))
        r_prev = np.sqrt(np.sum((m0x - g0x) ** 2)
                         + np.sum((m0y - g0y) ** 2))
        for i in range(1, 101):
            s = run_step(kind, s, sched, q, rng)
            # m_i is formed at z_i before the move to z_{i+1}
            gx, gy = blocks(s, q.full_gradient(s.z_prev))
            m_x, m_y = blocks(s, s.m)
            r = np.sqrt(np.sum((m_x - gx) ** 2)
                        + np.sum((m_y - gy) ** 2))
            # per-step contraction is exact; avoid compounding rounding
            # abs floor covers cancellation noise once r is near eps scale
            assert r == pytest.approx((1 - beta) * r_prev, rel=1e-9,
                                      abs=1e-12)
            r_prev = r

    @pytest.mark.parametrize("kind", [Hcmm1(), Hcmm2(), StormGda()])
    def test_distinct_block_betas_bit_equal_per_block(self, kind):
        # beta_x != beta_y takes the per-coordinate vectors; each block of
        # the new momentum is the per-block scalar formula, written out
        q = make_quadratic(d=4, m=3, seed=3)
        bx, by = 0.3, 0.05
        sched = HyperSchedule(mu_x=0.02, mu_y=0.03, beta_x=bx, beta_y=by,
                              clip_threshold=1e9, clip_norm=1e9)
        rng = np.random.default_rng(4)
        x, y, xp, yp, m0x, m0y = (rng.standard_normal(n)
                                  for n in (4, 3, 4, 3, 4, 3))
        s = run_step(kind, make_state(x, y, m0x, m0y, xp, yp), sched, q,
                     np.random.default_rng(0))
        gx, gy = blocks(s, q.M @ join(x, y))
        if isinstance(kind, StormGda):
            px, py = blocks(s, q.M @ join(xp, yp))
            want_x = gx + (1.0 - bx) * (m0x - px)
            want_y = gy + (1.0 - by) * (m0y - py)
        else:
            hx, hy = blocks(s, q.M @ (join(x, y) - join(xp, yp)))
            want_x = (1.0 - bx) * (m0x + hx) + bx * gx
            want_y = (1.0 - by) * (m0y + hy) + by * gy
        assert s.m.tobytes() == join(want_x, want_y).tobytes()


class TestDispatch:
    def test_unknown_kind_raises_before_any_sample(self):
        # a kind is matched on its exact type: neither another object nor a
        # subclass of a kind is a kind, and nothing is drawn for it
        q = make_quadratic(d=3, m=2, seed=1)
        s = make_state(np.ones(3), np.zeros(2), np.ones(3), np.ones(2))

        class Clipped(Hcmm1):
            pass

        for kind in ("hcmm1", Hcmm1, Clipped(), None):
            with pytest.raises(TypeError, match=re.escape(
                    f"unknown optimizer kind: {kind!r}")):
                run_step(kind, s, explicit_schedule(N=1.0, N1=1.0), q, [])


class TestHcmm1:
    def test_fixed_point_at_saddle(self):
        q = make_quadratic(d=3, m=3, seed=1)
        sched = explicit_schedule(N=10.0, N1=10.0)
        x = np.zeros(3)
        y = np.zeros(3)
        out = run_step(Hcmm1(), make_state(x, y, np.zeros(3), np.zeros(3)),
                       sched, q, np.random.default_rng(0))
        np.testing.assert_array_equal(out.x, x)
        np.testing.assert_array_equal(out.y, y)

    def test_single_step_1d_concave(self):
        # J = -y^2/2: from y0=1 with beta=1, m_y = -1, y1 = 1 + 0.1*(-1)
        q = QuadraticMinimaxProblem(np.array([[0.0]]), np.array([[0.0]]), 1.0)
        sched = HyperSchedule(mu_x=0.1, mu_y=0.1, beta_x=1.0, beta_y=1.0,
                              clip_threshold=100.0, clip_norm=100.0)
        state = make_state(np.zeros(1), np.array([1.0]), np.zeros(1),
                           np.zeros(1))
        out = run_step(Hcmm1(), state, sched, q, np.random.default_rng(0))
        assert blocks(out, out.m)[1][0] == pytest.approx(-1.0)
        assert out.y[0] == pytest.approx(0.9)

    def test_infinite_clip_matches_unclipped_recursion(self):
        q = make_quadratic(d=4, m=3, seed=5, noise_sigma=0.2)
        big = explicit_schedule(N=1e300, N1=1e300)
        outs = list(iterate_steps(Hcmm1(), q, big, np.ones(4), np.zeros(3),
                                  50, stream(q, 9)))
        np.testing.assert_allclose(blocks(outs[-1], outs[-1].m)[0],
                                   blocks(outs[-1], outs[-1].m_clipped)[0])

    def test_clipping_flag_reported(self):
        q = make_quadratic(d=3, m=3, seed=0)
        sched = explicit_schedule(N=1e-6, N1=1e-6)
        outs = list(iterate_steps(Hcmm1(), q, sched, np.ones(3) * 5,
                                  np.zeros(3), 3, stream(q, 0)))
        assert outs[0].clipped_x
        assert np.linalg.norm(blocks(outs[0], outs[0].m_clipped)[0]) \
            == pytest.approx(1e-6)

    @pytest.mark.parametrize("big", ["x", "y"])
    def test_each_block_clipped_by_its_own_norm(self, big):
        q = make_quadratic(d=4, m=3, seed=3, noise_sigma=0.1)
        sched = explicit_schedule(beta=1e-3, N=1.0, N1=1.0)
        mx, my = (100.0, 0.01) if big == "x" else (0.01, 100.0)
        x, y = np.full(4, 0.01), np.full(3, 0.01)
        out = run_step(Hcmm1(), make_state(x, y, np.full(4, mx),
                                           np.full(3, my)),
                       sched, q, np.random.default_rng(0))
        for raw, clipped, flag in zip(blocks(out, out.m),
                                      blocks(out, out.m_clipped),
                                      (out.clipped_x, out.clipped_y)):
            ref = clip_momentum(raw, 1.0, 1.0)
            if ref is raw:
                assert not flag
                assert clipped.tobytes() == raw.tobytes()
            else:
                assert flag
                assert clipped.tobytes() == ref.tobytes()
        assert out.clipped_x == (big == "x")
        assert out.clipped_y == (big == "y")

    def test_theory_mode_recurses_from_clipped_momentum(self):
        # step 1 clips the x block of m; step 2 forms its momentum from
        # step 1's m_clipped in theory mode and from its m in experiment mode
        q = make_quadratic(d=4, m=3, seed=3)
        beta = 0.3
        sched = explicit_schedule(mu_x=0.02, mu_y=0.03, beta=beta, N=1.0,
                                  N1=0.5)
        rng = np.random.default_rng(6)
        x, y, xp, yp = (0.1 * rng.standard_normal(n) for n in (4, 3, 4, 3))
        first = run_step(Hcmm1(update_from_clipped=True),
                         make_state(x, y, np.full(4, 3.0), np.full(3, 0.01),
                                    xp, yp), sched, q, 0)
        assert first.clipped_x and not first.clipped_y
        assert np.linalg.norm(first.m_clipped[:4]) == pytest.approx(0.5)
        assert first.m_clipped.tobytes() != first.m.tobytes()
        # noiseless: the sample gradient is M z and the HVP M dz
        g = q.M @ first.z
        h = q.M @ (first.z - first.z_prev)
        for kind, prev in ((Hcmm1(update_from_clipped=True), first.m_clipped),
                           (Hcmm1(), first.m)):
            out = run_step(kind, first, sched, q, 1)
            want = (1 - beta) * (prev + h) + beta * g
            assert out.m.tobytes() == want.tobytes()

    def test_requires_clip_fields(self):
        # init_run is the one place that checks N and N1, before any draw
        for N, N1 in ((None, 1.0), (1.0, None)):
            counter = CountingProblem(make_quadratic())
            run = iterate_steps(Hcmm1(), counter, explicit_schedule(N=N, N1=N1),
                                np.zeros(4), np.zeros(3), 5, stream(counter, 0))
            with pytest.raises(ValueError, match="clip_threshold and clip_norm"):
                next(run)
            assert (counter.draws, counter.grad_calls, counter.hvp_calls) \
                == (0, 0, 0)


class TestHcmm2:
    def test_step_length_exact(self):
        q = make_quadratic(d=4, m=3, seed=7, noise_sigma=0.1)
        sched = explicit_schedule(mu_x=0.05, mu_y=0.07)
        outs = list(iterate_steps(Hcmm2(), q, sched, np.ones(4), np.ones(3),
                                  20, stream(q, 3)))
        for out in outs:
            dx = np.linalg.norm(out.x - blocks(out, out.z_prev)[0])
            assert dx == pytest.approx(0.05) or dx == 0.0

    def test_norm_floor_skips_update(self):
        # at the exact saddle the noiseless gradient is 0, so with beta = 1
        # the momentum is 0 and the normalized step must be skipped
        q = make_quadratic(d=3, m=3, seed=0)
        z = np.zeros(3)
        out = run_step(Hcmm2(), make_state(z, z, z, z),
                       explicit_schedule(beta=1.0), q, np.random.default_rng(0))
        np.testing.assert_array_equal(out.x, np.zeros(3))

    def test_direction_invariance(self):
        q = make_quadratic(d=4, m=3, seed=2)
        sched = explicit_schedule(beta=0.0001)
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        x = np.ones(4)
        y = np.ones(3)
        m_x, m_y = np.array([1.0, 2, 3, 4]), np.array([1.0, 1, 1])
        a = run_step(Hcmm2(), make_state(x, y, m_x, m_y),
                     explicit_schedule(beta=1e-9), q, rng_a)
        b = run_step(Hcmm2(), make_state(x, y, 10 * m_x, 10 * m_y),
                     explicit_schedule(beta=1e-9), q, rng_b)
        np.testing.assert_allclose(a.x, b.x, atol=1e-7)


class TestStormGda:
    def test_beta_one_is_plain_stochastic_gradient(self):
        q = make_quadratic(d=3, m=2, seed=4, noise_sigma=0.3)
        rng = np.random.default_rng(1)
        x = np.ones(3)
        y = np.ones(2)
        state = make_state(x, y, np.full(3, 99.0), np.full(2, 99.0),
                           0.5 * x, 0.5 * y)
        sched = explicit_schedule(beta=1.0)
        drawn = first_samples(q, rng)
        out = run_step(StormGda(), state, sched, q, drawn)
        xi = drawn[0]
        g = q.sample_gradient(join(x, y), xi)
        np.testing.assert_allclose(blocks(out, out.m)[0], blocks(out, g)[0])
        np.testing.assert_allclose(blocks(out, out.m)[1], blocks(out, g)[1])

    def test_same_sample_difference_is_exact(self):
        # the noise draw is the sample, so the correction g(z; xi) -
        # g(z'; xi) that STORM takes cancels the noise exactly
        q = make_quadratic(d=4, m=3, seed=6, noise_sigma=2.0)
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal(4), rng.standard_normal(3)
        xp, yp = rng.standard_normal(4), rng.standard_normal(3)
        drawn = first_samples(q, rng)
        out = run_step(StormGda(), make_state(x, y, np.zeros(4), np.zeros(3),
                                              xp, yp),
                       explicit_schedule(beta=0.5), q, drawn)
        xi = drawn[0]
        z, zp = join(x, y), join(xp, yp)
        g, g_prev = q.sample_gradient(z, xi), q.sample_gradient(zp, xi)
        f, f_prev = q.full_gradient(z), q.full_gradient(zp)
        np.testing.assert_allclose(blocks(out, g - g_prev)[0],
                                   blocks(out, f - f_prev)[0],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(blocks(out, g - g_prev)[1],
                                   blocks(out, f - f_prev)[1],
                                   rtol=0, atol=1e-12)

    def test_equal_iterate_degeneracy(self):
        q = make_quadratic(d=3, m=2, seed=4, noise_sigma=0.3)
        x = np.ones(3)
        y = np.ones(2)
        m_x = np.array([1.0, 2, 3])
        beta = 0.25
        drawn = first_samples(q, 2)
        out = run_step(StormGda(), make_state(x, y, m_x, np.array([4.0, 5])),
                       explicit_schedule(beta=beta), q, drawn)
        gx = blocks(out, q.sample_gradient(join(x, y), drawn[0]))[0]
        np.testing.assert_allclose(blocks(out, out.m)[0],
                                   gx + (1 - beta) * (m_x - gx))


class TestSagda:
    def test_fixed_point(self):
        q = make_quadratic(d=3, m=3, seed=1)
        z = np.zeros(3)
        out = run_step(Sagda(), make_state(z, z, z, z), explicit_schedule(), q,
                       np.random.default_rng(0))
        np.testing.assert_array_equal(out.x, np.zeros(3))
        np.testing.assert_array_equal(out.y, np.zeros(3))

    def test_alternating_bilinear_hand_computed(self):
        # J = xy, mu = 0.1, from (1, 1): x1 = 1 - 0.1, y1 = 1 + 0.1*(1 - 0.1)
        q = QuadraticMinimaxProblem(np.array([[0.0]]), np.array([[1.0]]),
                                    nu=1e-12)
        mu = 0.1
        state = make_state(np.array([1.0]), np.array([1.0]), np.zeros(1),
                           np.zeros(1))
        out = run_step(Sagda(), state, explicit_schedule(mu_x=mu, mu_y=mu), q,
                       np.random.default_rng(0))
        assert out.x[0] == pytest.approx(1 - mu)
        assert out.y[0] == pytest.approx(1 + mu * (1 - mu), rel=1e-9)

    def test_decoupled_matches_simultaneous(self):
        # B = 0: the ascent gradient does not see the updated x
        d = 3
        rng = np.random.default_rng(0)
        A = np.diag([0.5, 1.0, 1.5])
        q = QuadraticMinimaxProblem(A, np.zeros((d, d)), 1.0)
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        out = run_step(Sagda(), make_state(x, y, np.zeros(d), np.zeros(d)),
                       explicit_schedule(mu_x=0.1, mu_y=0.1), q,
                       np.random.default_rng(1))
        np.testing.assert_allclose(out.x, x - 0.1 * (A @ x))
        np.testing.assert_allclose(out.y, y + 0.1 * (-y))


class TestRunDiscipline:
    def test_T_zero_empty_trace(self):
        q = make_quadratic()
        outs = list(iterate_steps(Sagda(), q, explicit_schedule(), np.zeros(4),
                                  np.zeros(3), 0, stream(q, 0)))
        assert outs == []

    def test_same_seed_identical_traces(self):
        q = make_quadratic(noise_sigma=0.5)
        sched = explicit_schedule()
        for kind in (Hcmm1(), Hcmm2(), StormGda(), Sagda()):
            s = explicit_schedule(N=1.0, N1=1.0) if isinstance(kind, Hcmm1) \
                else sched
            a, b = (list(iterate_steps(kind, q, s, np.ones(4), np.ones(3),
                                       30, stream(q, 11)))
                    for _ in range(2))
            assert len(a) == len(b) == 30
            for oa, ob in zip(a, b):
                for field in ("z", "z_prev", "m", "m_clipped"):
                    assert getattr(oa, field).tobytes() \
                        == getattr(ob, field).tobytes()
                assert (oa.m_x_norm, oa.m_y_norm, oa.clipped_x, oa.clipped_y) \
                    == (ob.m_x_norm, ob.m_y_norm, ob.clipped_x, ob.clipped_y)

    def test_state_threading(self):
        q = make_quadratic(noise_sigma=0.1)
        for kind in (Hcmm1(), Hcmm2(), StormGda(), Sagda()):
            s = explicit_schedule(N=5.0, N1=5.0)
            prev = None
            for out in iterate_steps(kind, q, s, np.ones(4), np.ones(3),
                                     20, stream(q, 3)):
                if prev is not None:
                    x_prev, y_prev = blocks(out, out.z_prev)
                    np.testing.assert_array_equal(x_prev, prev.x)
                    np.testing.assert_array_equal(y_prev, prev.y)
                prev = out
            assert prev.iter == 20

    def test_sample_counts_per_step(self):
        base = make_logistic(n=12, d=5)
        for kind, expected_draws in ((Hcmm1(), 1), (Hcmm2(), 1),
                                     (StormGda(), 1), (Sagda(), 2)):
            counter = CountingProblem(base)
            sched = explicit_schedule(N=5.0, N1=5.0)
            x0 = np.zeros(5)
            y0 = np.full(12, 1 / 12)
            T = 7
            list(iterate_steps(kind, counter, sched, x0, y0, T,
                               stream(counter, 0)))
            init_draws = 0 if isinstance(kind, Sagda) else 1
            assert counter.draws == init_draws + expected_draws * T
            # the count a restriction to the drawn rows is built from
            assert counter.draws == samples_per_run(kind, T)

    def test_y_feasible_on_simplex_problem(self):
        p = make_logistic(n=8, d=4)
        sched = explicit_schedule(mu_x=0.1, mu_y=0.5, N=5.0, N1=5.0)
        for kind in (Hcmm1(), Hcmm2(), StormGda(), Sagda()):
            for out in iterate_steps(kind, p, sched, np.zeros(4),
                                     np.full(8, 1 / 8), 25, stream(p, 1)):
                y = out.y
                assert np.all(y >= 0) and abs(y.sum() - 1) <= 1e-12

    def test_projection_that_returns_a_copy_is_rejected(self):
        class CopyingProjection(CountingProblem):
            def project_y(self, y):
                return self.inner.project_y(y.copy())

        p = CopyingProjection(make_logistic(n=8, d=4))
        run = iterate_steps(Hcmm2(), p, explicit_schedule(), np.zeros(4),
                            np.full(8, 1 / 8), 3, stream(p, 0))
        with pytest.raises(RuntimeError, match="iteration 1") as err:
            next(run)
        assert "in place" in str(err.value.__cause__)

    def test_oracle_error_carries_iteration(self):
        class Exploding(CountingProblem):
            def sample_gradient(self, z, xi):
                if self.grad_calls >= 3:
                    raise RuntimeError("boom")
                return super().sample_gradient(z, xi)

        p = Exploding(make_quadratic())
        with pytest.raises(RuntimeError, match="iteration"):
            list(iterate_steps(StormGda(), p, explicit_schedule(),
                               np.ones(4), np.ones(3), 10, stream(p, 0)))


class TestSampleStream:
    """Block draws give the samples that one draw per call gave, in order."""

    def per_call_draws(self, problem, seed, count):
        # the one-sample draws, written out: a row index, or a noise vector
        rng = np.random.default_rng(seed)
        if problem.n_samples is not None:
            return [int(rng.integers(problem.n_samples)) for _ in range(count)]
        return [problem.noise_sigma
                * rng.standard_normal(problem.dim_x + problem.dim_y)
                for _ in range(count)]

    @pytest.mark.parametrize("make", [
        lambda: make_quadratic(d=4, m=3, noise_sigma=0.7),
        lambda: make_logistic(n=50, d=5)])
    def test_blocks_equal_per_call_draws(self, make):
        p = make()
        # past the first block boundary, into the second block
        count = SAMPLE_BLOCK + 5
        blocked = list(islice(sample_stream(p, np.random.default_rng(3)),
                              count))
        expected = self.per_call_draws(p, 3, count)
        assert len(blocked) == count
        for got, want in zip(blocked, expected):
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_sagda_draws_two_per_step_in_order(self):
        # the descent gradient takes a step's first sample, the ascent
        # gradient at the updated x its second
        q = CountingProblem(make_quadratic(d=4, m=3, noise_sigma=0.5))
        for s in iterate_steps(Sagda(), q, explicit_schedule(), np.ones(4),
                               np.ones(3), 5, stream(q, 8)):
            assert q.draws == len(q.grad_samples) == 2 * s.iter
        want = self.per_call_draws(q.inner, 8, 10)
        for got, xi in zip(q.grad_samples, want):
            assert got.tobytes() == xi.tobytes()

    def test_momentum_methods_draw_init_then_one_per_step(self):
        p = CountingProblem(make_logistic(n=30, d=5))
        for s in iterate_steps(Hcmm2(), p, explicit_schedule(), np.zeros(5),
                               np.full(30, 1 / 30), 6, stream(p, 2)):
            assert p.draws == len(p.grad_samples) == s.iter + 1
        assert p.grad_samples == self.per_call_draws(p.inner, 2, 7)

    def test_recorded_sample_unchanged_by_later_draws(self):
        # run past a block boundary: later blocks must not overwrite the
        # array a sample taken earlier views
        q = make_quadratic(d=4, m=3, noise_sigma=0.5)
        samples = stream(q, 1)
        first = next(samples)
        saved = first.copy()
        last = None
        for last in iterate_steps(StormGda(), q, explicit_schedule(),
                                  np.ones(4), np.ones(3), 2500, samples):
            pass
        assert last.iter == 2500
        assert first.tobytes() == saved.tobytes()


class TestInputsUntouched:
    """`step` changes nothing in the state it is given, and every state a
    run yielded stays as it was: what any in-place work in a step must
    keep."""

    STEPS = 50
    KINDS = [Hcmm1(), Hcmm1(update_from_clipped=True), Hcmm2(), StormGda(),
             Sagda()]
    # N below the momentum norms, so that HCMM-1 clips
    SCHEDULE = explicit_schedule(mu_x=0.02, mu_y=0.05, N=0.5, N1=0.4)

    def run_on(self, testbed, kind, monkeypatch):
        """(problem, x0, y0, samples) of a STEPS-step run on the testbed;
        robust logistic steps on the restriction to its drawn rows, pooled
        or declined (the problem itself)."""
        if testbed == "quadratic":
            p = QuadraticMinimaxProblem.random(4, 3, nu=1.0, noise_sigma=0.5,
                                               seed=3)
            return p, np.ones(4), np.zeros(3), stream(p, 1)
        if testbed == "pl_toy":
            p = PlToyProblem.random(4, 5, 2, 0.5, 1.5, 0.5, seed=3)
            return p, np.ones(4), np.zeros(5), stream(p, 1)
        pooled = testbed == "logistic_pooled"
        monkeypatch.setattr(hcmm.problems, "MIN_POOLED",
                            1 if pooled else 10 ** 6)
        p = make_logistic(n=200, d=6, seed=2)
        drawn = islice(stream(p, 1), samples_per_run(kind, self.STEPS))
        sub, y0, samples = p.restrict(drawn, np.full(p.n, 1.0 / p.n))
        assert (sub is not p) == pooled
        return sub, np.full(6, 0.1), y0, samples

    @staticmethod
    def snapshot(s):
        return [v.tobytes() if isinstance(v, np.ndarray) else v
                for v in (getattr(s, f.name) for f in fields(s))]

    @pytest.mark.parametrize("testbed", ["quadratic", "pl_toy", "logistic",
                                         "logistic_pooled"])
    @pytest.mark.parametrize("kind", KINDS, ids=repr)
    def test_step_writes_into_no_state(self, testbed, kind, monkeypatch):
        p, x0, y0, samples = self.run_on(testbed, kind, monkeypatch)
        states = []
        for s in iterate_steps(kind, p, self.SCHEDULE, x0, y0, self.STEPS,
                               samples):
            # the step that yielded s read the state before it
            if states:
                assert self.snapshot(states[-1][0]) == states[-1][1]
            states.append((s, self.snapshot(s)))
        assert len(states) == self.STEPS
        for s, snapshot in states:
            assert self.snapshot(s) == snapshot
        assert any(s.clipped_x or s.clipped_y for s, _ in states) \
            == isinstance(kind, Hcmm1)
