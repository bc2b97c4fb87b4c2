import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hcmm.core import (ConfigError, HyperSchedule, ProblemConstants,
                       clip_momentum, norm2, schedule_hcmm1, schedule_hcmm2)


def constants(**kw):
    base = dict(L_f=1.0, nu=1.0, L_h=1.0, sigma_h=1.0)
    base.update(kw)
    return ProblemConstants(**base)


class TestVectorPrimitives:
    def test_norm2(self):
        assert norm2(np.array([3.0, 4.0])) == 5.0

    @pytest.mark.parametrize("size", [1, 10, 50_000])
    def test_norm2_bit_equal_to_numpy(self, size):
        rng = np.random.default_rng(size)
        for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
            for _ in range(20):
                v = scale * rng.standard_normal(size)
                assert norm2(v) == float(np.linalg.norm(v))


class TestClipMomentum:
    def test_below_threshold_unchanged(self):
        m = np.array([3.0, 4.0])
        np.testing.assert_array_equal(clip_momentum(m, 10.0, 10.0), m)

    def test_rescale_to_clip_norm(self):
        np.testing.assert_allclose(
            clip_momentum(np.array([9.0, 12.0]), 5.0, 10.0),
            np.array([6.0, 8.0]))

    def test_rescale_equal_constants(self):
        np.testing.assert_allclose(
            clip_momentum(np.array([6.0, 8.0]), 5.0, 5.0),
            np.array([3.0, 4.0]))

    def test_trigger_is_inclusive(self):
        m = np.array([3.0, 4.0])  # norm exactly 5
        np.testing.assert_allclose(clip_momentum(m, 5.0, 2.0), 0.4 * m)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=16),
           st.floats(0.1, 10), st.floats(0.01, 1))
    def test_idempotent_when_norm_not_raised(self, vals, N, frac):
        # N1 <= N: a second clip never changes the result
        N1 = frac * N
        m = np.array(vals)
        once = clip_momentum(m, N, N1)
        np.testing.assert_allclose(clip_momentum(once, N, N1), once)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=16),
           st.floats(0.1, 10), st.floats(0.1, 10))
    def test_output_colinear_nonnegative(self, vals, N, N1):
        m = np.array(vals)
        if norm2(m) == 0:
            return
        out = clip_momentum(m, N, N1)
        lam = norm2(out) / norm2(m)
        np.testing.assert_allclose(out, lam * m, atol=1e-12)
        assert lam >= 0

    def test_clipping_deviation_inequality(self):
        # regime ||m|| >= N1 >= N >= ||g||: clipping never moves the
        # momentum farther from the bounded gradient
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            dim = int(rng.integers(1, 65))
            G = float(rng.uniform(0.1, 5.0))
            N = G * float(rng.uniform(1.0, 2.0))
            N1 = N * float(rng.uniform(1.0, 2.0))
            g = rng.standard_normal(dim)
            gn = np.linalg.norm(g)
            if gn > 0:
                g *= rng.uniform(0, G) / gn
            m = rng.standard_normal(dim)
            m *= (N1 * rng.uniform(1.0, 10.0)) / np.linalg.norm(m)
            mc = clip_momentum(m, N, N1)
            assert np.sum((mc - g) ** 2) <= np.sum((m - g) ** 2) + 1e-12

    @pytest.mark.parametrize("N", [1.0, 3.0, 5.0])
    def test_given_norm_same_result(self, N):
        # the step passes the norm it already has; the result must not move
        rng = np.random.default_rng(int(N))
        moments = [rng.standard_normal(12) * rng.uniform(0.05, 3.0)
                   for _ in range(200)] + [np.array([3.0, 4.0])]
        sides = set()
        for m in moments:
            plain = clip_momentum(m, N, 2.0)
            given = clip_momentum(m, N, 2.0, norm2(m))
            sides.add(norm2(m) >= N)
            if norm2(m) < N:
                assert plain is m and given is m
            else:
                assert given is not m
                assert given.tobytes() == plain.tobytes()
        assert sides == {False, True}

    def test_rejects_nonpositive_constants(self):
        with pytest.raises(ConfigError):
            clip_momentum(np.ones(2), 0.0, 1.0)


class TestScheduleHcmm1:
    def test_beta_small_T(self):
        s = schedule_hcmm1(8, constants(), N1=1.0)
        assert s.beta_x == s.beta_y == 0.25

    def test_derived_constants(self):
        s = schedule_hcmm1(10, constants(L_f=2.0, nu=1.0), N1=1.0)
        assert s.derived["kappa"] == 2.0
        assert s.derived["L1"] == 6.0
        assert s.derived["pi1"] == pytest.approx(0.2)

    def test_golden_values_T1000(self):
        # hand evaluation of the minimum expressions for
        # (T=1000, L_f=nu=L_h=sigma_h=1, N1=1):
        #   beta = 1000^(-2/3) = 0.01
        #   pi1 = 1/3, C = min(5/24, 4, 1/128) = 1/128
        #   mu_y = min(0.1, sqrt(0.02), sqrt(0.01/256), sqrt(0.01/(128*30)),
        #              2, 1/3) = sqrt(1/384000)
        #   mu_x = min(mu_y, mu_y/sqrt(480), 1/4) = mu_y/sqrt(480)
        s = schedule_hcmm1(1000, constants(), N1=1.0)
        assert s.beta_x == pytest.approx(0.01)
        assert s.derived["C"] == pytest.approx(1.0 / 128.0)
        mu_y_expect = (1.0 / 384000.0) ** 0.5
        assert s.mu_y == pytest.approx(mu_y_expect, rel=1e-12)
        assert s.mu_x == pytest.approx(mu_y_expect / 480.0 ** 0.5, rel=1e-12)

    def test_two_time_scale(self):
        for T in (1, 10, 1000, 10 ** 6):
            s = schedule_hcmm1(T, constants(L_f=2.0), N1=0.5)
            assert s.mu_x <= s.mu_y
            assert s.beta_x <= 0.5

    def test_monotone_in_T(self):
        prev = None
        for T in (100, 1000, 10_000, 100_000):
            s = schedule_hcmm1(T, constants(), N1=1.0)
            if prev is not None:
                assert s.mu_y <= prev.mu_y
                assert s.mu_x <= prev.mu_x
                assert s.beta_x <= prev.beta_x
            prev = s

    def test_rejects_bad_constants(self):
        with pytest.raises(ConfigError, match="sigma_h"):
            schedule_hcmm1(10, constants(sigma_h=0.0), N1=1.0)
        with pytest.raises(ConfigError, match="nu"):
            schedule_hcmm1(10, constants(nu=-1.0), N1=1.0)

    def test_warns_on_upward_rescale_regime(self):
        with pytest.warns(UserWarning, match="rescaled UP"):
            schedule_hcmm1(10, constants(), N1=2.0, N=1.0)


class TestScheduleHcmm2:
    def test_T1(self):
        s = schedule_hcmm2(1, ProblemConstants(L_f=1.0, delta=2.0))
        assert s.beta_x == 1.0
        assert s.mu_y == 1.0

    def test_stated_formula(self):
        s = schedule_hcmm2(1000, ProblemConstants(L_f=1.0, delta=2.0))
        assert s.derived["delta1"] == pytest.approx(1.0)
        assert s.mu_y == pytest.approx(0.01)
        assert s.mu_x == pytest.approx(0.005)

    def test_large_T(self):
        s = schedule_hcmm2(10 ** 6, ProblemConstants(L_f=1.0, delta=2.0))
        assert s.mu_y == pytest.approx(1e-4)

    def test_two_time_scale(self):
        for T in (1, 100, 10 ** 5):
            s = schedule_hcmm2(T, ProblemConstants(L_f=3.0, delta=0.5))
            assert s.mu_x <= s.mu_y
            assert s.beta_x <= 1.0

    def test_monotone_in_T(self):
        mus = [schedule_hcmm2(T, ProblemConstants(L_f=1.0, delta=2.0)).mu_y
               for T in (10, 100, 1000)]
        assert mus == sorted(mus, reverse=True)

    def test_rejects_missing_delta(self):
        with pytest.raises(ConfigError, match="delta"):
            schedule_hcmm2(10, ProblemConstants(L_f=1.0))


class TestHyperScheduleValidation:
    def test_rejects_beta_out_of_range(self):
        with pytest.raises(ConfigError):
            HyperSchedule(mu_x=0.1, mu_y=0.1, beta_x=0.0, beta_y=0.5)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ConfigError):
            HyperSchedule(mu_x=-0.1, mu_y=0.1, beta_x=0.5, beta_y=0.5)
