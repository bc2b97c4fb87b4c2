from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest

from hcmm.core import HyperSchedule, clip_momentum
from hcmm.optimizers import (SAMPLE_BLOCK, Hcmm1, Hcmm2, JointSchedule, Sagda,
                             StepState, StormGda, hcmm_momentum_update,
                             iterate_steps, sample_stream, step)
from hcmm.problems import QuadraticMinimaxProblem

from conftest import join, make_logistic, make_quadratic


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
                     np.linalg.norm(m_y), (), 0, len(x))


def run_step(kind, state, sched, problem, rng):
    """One `step` with the schedule expanded and its samples drawn from rng."""
    js = JointSchedule.expand(sched, problem.dim_x, problem.dim_y)
    return step(kind, state, js, problem, sample_stream(problem, rng))


def weights(beta, n):
    """beta and keep = 1 - beta over n coordinates, the two fields of a
    JointSchedule that hcmm_momentum_update reads (beta = 0 included)."""
    b = np.full(n, float(beta))
    return SimpleNamespace(beta=b, keep=1.0 - b)


def blocks(s, v):
    """The x and y blocks of a joint vector of state s."""
    return v[:s.dim_x], v[s.dim_x:]


class CountingProblem:
    """Wrapper that counts oracle calls and the samples taken off the
    stream."""

    def __init__(self, inner):
        self.inner = inner
        self.draws = 0
        self.grad_calls = 0
        self.hvp_calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def draw_samples(self, rng, k):
        for xi in self.inner.draw_samples(rng, k):
            self.draws += 1
            yield xi

    def sample_gradient(self, z, xi):
        self.grad_calls += 1
        return self.inner.sample_gradient(z, xi)

    def sample_hvp(self, z, xi, dz):
        self.hvp_calls += 1
        return self.inner.sample_hvp(z, xi, dz)


class TestMomentumUpdate:
    def test_beta_one_returns_gradient(self):
        g = np.array([1.0, 2.0])
        out = hcmm_momentum_update(np.array([9.0, 9.0]), weights(1.0, 2), g,
                                   np.array([5.0, 5.0]))
        np.testing.assert_array_equal(out, g)

    def test_beta_zero_no_hvp_keeps_history(self):
        m = np.array([1.0, -1.0])
        out = hcmm_momentum_update(m, weights(0.0, 2), np.array([7.0, 7.0]),
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
                for js in (weights(beta, n),
                           SimpleNamespace(beta=beta, keep=1.0 - beta)):
                    out = hcmm_momentum_update(m, js, g, c)
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
                                  50, 9))
        np.testing.assert_allclose(blocks(outs[-1], outs[-1].m)[0],
                                   blocks(outs[-1], outs[-1].m_clipped)[0])

    def test_clipping_flag_reported(self):
        q = make_quadratic(d=3, m=3, seed=0)
        sched = explicit_schedule(N=1e-6, N1=1e-6)
        outs = list(iterate_steps(Hcmm1(), q, sched, np.ones(3) * 5,
                                  np.zeros(3), 3, 0))
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

    def test_requires_clip_fields(self):
        # init_run is the one place that checks N and N1, before any draw
        for N, N1 in ((None, 1.0), (1.0, None)):
            counter = CountingProblem(make_quadratic())
            run = iterate_steps(Hcmm1(), counter, explicit_schedule(N=N, N1=N1),
                                np.zeros(4), np.zeros(3), 5, 0)
            with pytest.raises(ValueError, match="clip_threshold and clip_norm"):
                next(run)
            assert (counter.draws, counter.grad_calls, counter.hvp_calls) \
                == (0, 0, 0)


class TestHcmm2:
    def test_step_length_exact(self):
        q = make_quadratic(d=4, m=3, seed=7, noise_sigma=0.1)
        sched = explicit_schedule(mu_x=0.05, mu_y=0.07)
        outs = list(iterate_steps(Hcmm2(), q, sched, np.ones(4), np.ones(3),
                                  20, 3))
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
        out = run_step(StormGda(), state, sched, q, rng)
        xi = out.samples[0]
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
        out = run_step(StormGda(), make_state(x, y, np.zeros(4), np.zeros(3),
                                              xp, yp),
                       explicit_schedule(beta=0.5), q, rng)
        xi = out.samples[0]
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
        out = run_step(StormGda(), make_state(x, y, m_x, np.array([4.0, 5])),
                       explicit_schedule(beta=beta), q, np.random.default_rng(2))
        gx = blocks(out, q.sample_gradient(join(x, y), out.samples[0]))[0]
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
                                  np.zeros(3), 0, 0))
        assert outs == []

    def test_same_seed_identical_traces(self):
        q = make_quadratic(noise_sigma=0.5)
        sched = explicit_schedule()
        for kind in (Hcmm1(), Hcmm2(), StormGda(), Sagda()):
            s = explicit_schedule(N=1.0, N1=1.0) if isinstance(kind, Hcmm1) \
                else sched
            a = list(iterate_steps(kind, q, s, np.ones(4), np.ones(3), 30, 11))
            b = list(iterate_steps(kind, q, s, np.ones(4), np.ones(3), 30, 11))
            np.testing.assert_array_equal(a[-1].x, b[-1].x)
            # a synthetic sample is its noise draw: compare element-wise
            for oa, ob in zip(a, b):
                assert len(oa.samples) == len(ob.samples)
                for sa, sb in zip(oa.samples, ob.samples):
                    np.testing.assert_array_equal(sa, sb)

    def test_state_threading(self):
        q = make_quadratic(noise_sigma=0.1)
        for kind in (Hcmm1(), Hcmm2(), StormGda(), Sagda()):
            s = explicit_schedule(N=5.0, N1=5.0)
            prev = None
            for out in iterate_steps(kind, q, s, np.ones(4), np.ones(3),
                                     20, 3):
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
            list(iterate_steps(kind, counter, sched, x0, y0, T, 0))
            init_draws = 0 if isinstance(kind, Sagda) else 1
            assert counter.draws == init_draws + expected_draws * T

    def test_y_feasible_on_simplex_problem(self):
        p = make_logistic(n=8, d=4)
        sched = explicit_schedule(mu_x=0.1, mu_y=0.5, N=5.0, N1=5.0)
        for kind in (Hcmm1(), Hcmm2(), StormGda(), Sagda()):
            for out in iterate_steps(kind, p, sched, np.zeros(4),
                                     np.full(8, 1 / 8), 25, 1):
                y = out.y
                assert np.all(y >= 0) and abs(y.sum() - 1) <= 1e-12

    def test_projection_that_returns_a_copy_is_rejected(self):
        class CopyingProjection(CountingProblem):
            def project_y(self, y):
                return self.inner.project_y(y.copy())

        p = CopyingProjection(make_logistic(n=8, d=4))
        run = iterate_steps(Hcmm2(), p, explicit_schedule(), np.zeros(4),
                            np.full(8, 1 / 8), 3, 0)
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
                               np.ones(4), np.ones(3), 10, 0))


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
        q = make_quadratic(d=4, m=3, noise_sigma=0.5)
        states = list(iterate_steps(Sagda(), q, explicit_schedule(), np.ones(4),
                                    np.ones(3), 5, 8))
        drawn = [xi for s in states for xi in s.samples]
        assert [len(s.samples) for s in states] == [2] * 5
        for got, want in zip(drawn, self.per_call_draws(q, 8, 10)):
            assert got.tobytes() == want.tobytes()

    def test_momentum_methods_draw_init_then_one_per_step(self):
        p = make_logistic(n=30, d=5)
        states = list(iterate_steps(Hcmm2(), p, explicit_schedule(),
                                    np.zeros(5), np.full(30, 1 / 30), 6, 2))
        assert [xi for s in states for xi in s.samples] \
            == self.per_call_draws(p, 2, 7)[1:]

    def test_recorded_sample_unchanged_by_later_draws(self):
        # run past a block boundary: later blocks must not overwrite the
        # array a recorded sample views
        q = make_quadratic(d=4, m=3, noise_sigma=0.5)
        run = iterate_steps(StormGda(), q, explicit_schedule(), np.ones(4),
                            np.ones(3), 2500, 1)
        first = next(run)
        saved = first.samples[0].copy()
        last = None
        for last in run:
            pass
        assert last.iter == 2500
        assert first.samples[0].tobytes() == saved.tobytes()
