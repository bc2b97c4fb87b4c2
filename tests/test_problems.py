import numpy as np
import pytest

from hcmm.problems import (PlToyProblem, QuadraticMinimaxProblem,
                           RobustLogisticProblem)

from conftest import make_logistic, make_quadratic


class TestRobustLogisticValues:
    def test_surrogate_at_origin_uniform_weights(self, logistic_small):
        p = logistic_small
        x = np.zeros(p.d)
        y = np.full(p.n, 1.0 / p.n)
        for i in (0, p.n // 2, p.n - 1):
            # n * (1/n) * log 2 - 0 + 0
            assert p.sample_loss(x, y, i) == pytest.approx(np.log(2.0))

    def test_loss_limit_correct_side(self):
        p = RobustLogisticProblem(np.array([[1.0]]), np.array([1.0]),
                                  lambda1=1.0, lambda2=0.0)
        big = np.array([30.0])
        t = p._margin(0, big)
        assert p._q_of_margin(t) == pytest.approx(0.0, abs=1e-12)

    def test_surrogate_mean_equals_full_objective(self, logistic_small):
        p = logistic_small
        rng = np.random.default_rng(5)
        x = rng.standard_normal(p.d)
        y = rng.dirichlet(np.ones(p.n))
        mean = np.mean([p.sample_loss(x, y, i) for i in range(p.n)])
        assert mean == pytest.approx(p.objective(x, y), rel=1e-12)

    def test_grad_q_at_zero(self, logistic_small):
        p = logistic_small
        x = np.zeros(p.d)
        y = np.zeros(p.n)
        for i in range(3):
            g = p.sample_gradient(x, y, i)
            idx, val = p._row(i)
            expect = np.zeros(p.d)
            # n*y_i term vanishes at y=0; only grad g(x)=0 remains in gx
            np.testing.assert_allclose(g.gx, expect, atol=1e-14)

    def test_grad_y_at_origin_uniform(self, logistic_small):
        p = logistic_small
        x = np.zeros(p.d)
        y = np.full(p.n, 1.0 / p.n)
        g = p.full_gradient(x, y)
        np.testing.assert_allclose(g.gy, np.full(p.n, np.log(2.0)), atol=1e-12)

    def test_sample_grad_y_structure_at_origin(self, logistic_small):
        # gy = n*log2*e_i when x = 0, y uniform (V-gradient vanishes)
        p = logistic_small
        x = np.zeros(p.d)
        y = np.full(p.n, 1.0 / p.n)
        i = 3
        g = p.sample_gradient(x, y, i)
        expect = np.zeros(p.n)
        expect[i] = p.n * np.log(2.0)
        np.testing.assert_allclose(g.gy, expect, atol=1e-12)

    def test_g_gradient_odd(self, logistic_small):
        p = logistic_small
        np.testing.assert_array_equal(p._g_grad(np.zeros(p.d)), np.zeros(p.d))
        x = np.linspace(-1, 1, p.d)
        np.testing.assert_allclose(p._g_grad(-x), -p._g_grad(x))

    def test_y_hessian_exact(self, logistic_small):
        p = logistic_small
        rng = np.random.default_rng(1)
        x = rng.standard_normal(p.d)
        y = rng.dirichlet(np.ones(p.n))
        dy = rng.standard_normal(p.n)
        h = p.sample_hvp(x, y, 0, np.zeros(p.d), dy)
        # with dx = 0 the cross term only touches entry 0 of hy
        mask = np.ones(p.n, bool)
        mask[0] = False
        np.testing.assert_allclose(h.hy[mask],
                                   (-p.lambda1 * p.n ** 2 * dy)[mask],
                                   rtol=1e-12)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="labels"):
            RobustLogisticProblem(np.eye(2), np.array([1.0, 2.0]))

    def test_default_lambda1(self):
        p = make_logistic(n=10)
        assert p.lambda1 == pytest.approx(1.0 / 100.0)

    def test_sample_index_out_of_range(self, logistic_small):
        p = logistic_small
        with pytest.raises(IndexError):
            p.sample_gradient(np.zeros(p.d), np.zeros(p.n), p.n)


class TestRobustLogisticUnbiasedness:
    def test_gradient_mean_matches_full(self, logistic_small):
        p = logistic_small
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.standard_normal(p.d)
            y = rng.dirichlet(np.ones(p.n))
            gx = np.zeros(p.d)
            gy = np.zeros(p.n)
            for i in range(p.n):
                g = p.sample_gradient(x, y, i)
                gx += g.gx
                gy += g.gy
            full = p.full_gradient(x, y)
            np.testing.assert_allclose(gx / p.n, full.gx, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(gy / p.n, full.gy, rtol=1e-12, atol=1e-14)

    def test_hvp_mean_matches_full_fd(self, logistic_small):
        # average the analytic per-sample HVPs and compare against a
        # finite difference of the full gradient
        p = logistic_small
        rng = np.random.default_rng(2)
        x = rng.standard_normal(p.d) * 0.5
        y = rng.dirichlet(np.ones(p.n))
        dx = rng.standard_normal(p.d)
        dy = rng.standard_normal(p.n)
        hx = np.zeros(p.d)
        hy = np.zeros(p.n)
        for i in range(p.n):
            h = p.sample_hvp(x, y, i, dx, dy)
            hx += h.hx
            hy += h.hy
        hx /= p.n
        hy /= p.n
        eps = 1e-6
        gp = p.full_gradient(x + eps * dx, y + eps * dy)
        gm = p.full_gradient(x - eps * dx, y - eps * dy)
        np.testing.assert_allclose(hx, (gp.gx - gm.gx) / (2 * eps),
                                   rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(hy, (gp.gy - gm.gy) / (2 * eps),
                                   rtol=1e-5, atol=1e-8)

    def test_gradient_lipschitz_spot_check(self, logistic_small):
        p = logistic_small
        L_hat = p.lipschitz_L_f
        rng = np.random.default_rng(17)
        for _ in range(1000):
            x1 = rng.standard_normal(p.d)
            y1 = rng.dirichlet(np.ones(p.n))
            x2 = x1 + 0.1 * rng.standard_normal(p.d)
            y2 = y1 + 0.01 * rng.standard_normal(p.n)
            g1 = p.full_gradient(x1, y1)
            g2 = p.full_gradient(x2, y2)
            dg = np.sqrt(np.sum((g1.gx - g2.gx) ** 2)
                         + np.sum((g1.gy - g2.gy) ** 2))
            dz = np.sqrt(np.sum((x1 - x2) ** 2) + np.sum((y1 - y2) ** 2))
            assert dg <= L_hat * dz + 1e-12


class TestRobustLogisticClosedForms:
    def test_danskin_consistency(self):
        # grad P against central differences of P, both from the closed form
        p = make_logistic(n=30, d=6, seed=2)
        rng = np.random.default_rng(8)
        h = 1e-5
        # small x keeps most weights positive, large x leaves few
        for scale in (0.01, 0.1, 1.0) * 4:
            x = scale * rng.standard_normal(p.d)
            fd = np.array([(p.inner_max(x + h * e).p_value
                            - p.inner_max(x - h * e).p_value) / (2 * h)
                           for e in np.eye(p.d)])
            np.testing.assert_allclose(p.grad_p(x), fd, rtol=1e-6, atol=1e-8)

    def test_lipschitz_matches_row_loop(self):
        # the bound's largest row norm, taken one row at a time
        for n, d, seed in ((20, 8, 0), (300, 40, 5)):
            p = make_logistic(n=n, d=d, seed=seed)
            rmax = max(np.linalg.norm(p.X.getrow(i).toarray()) for i in range(n))
            L = (n * rmax ** 2 / 4.0 + 2.0 * p.lambda2 * p.rho
                 + p.lambda1 * n ** 2 + n * rmax)
            assert p.lipschitz_L_f == pytest.approx(L, rel=1e-13)


class TestQuadratic:
    def test_closed_forms_identity_coupling(self):
        q = QuadraticMinimaxProblem(np.zeros((3, 3)), np.eye(3), 1.0)
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(q.inner_max(x).y_star, x)
        assert q.inner_max(x).p_value == pytest.approx(0.5 * np.dot(x, x))

    def test_saddle_gradient_zero(self, quadratic_small):
        q = quadratic_small
        np.testing.assert_allclose(q.grad_p(np.zeros(q.dim_x)),
                                   np.zeros(q.dim_x))

    def test_danskin_consistency(self, quadratic_small):
        q = quadratic_small
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.standard_normal(q.dim_x)
            gx = q.full_gradient(x, q.inner_max(x).y_star).gx
            np.testing.assert_allclose(gx, q.grad_p(x), rtol=1e-10, atol=1e-12)

    def test_noiseless_sample_equals_full(self, quadratic_small):
        q = quadratic_small
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(q.dim_x), rng.standard_normal(q.dim_y)
        s = q.sample_gradient(x, y, 12345)
        f = q.full_gradient(x, y)
        np.testing.assert_array_equal(s.gx, f.gx)
        np.testing.assert_array_equal(s.gy, f.gy)

    def test_noise_reproducible_and_zero_mean(self):
        q = make_quadratic(noise_sigma=0.5)
        x, y = np.ones(q.dim_x), np.ones(q.dim_y)
        rng = np.random.default_rng(42)
        xi = q.draw_sample(rng)
        a = q.sample_gradient(x, y, xi)
        b = q.sample_gradient(x, y, xi)
        np.testing.assert_array_equal(a.gx, b.gx)
        np.testing.assert_array_equal(a.gy, b.gy)
        full = q.full_gradient(x, y)
        mean = np.mean([q.sample_gradient(x, y, q.draw_sample(rng)).gx
                        for _ in range(4000)], axis=0)
        assert np.linalg.norm(mean - full.gx) < 0.05

    def test_strong_concavity_witness(self, quadratic_small):
        q = quadratic_small
        rng = np.random.default_rng(8)
        for _ in range(200):
            x = rng.standard_normal(q.dim_x)
            y1 = rng.standard_normal(q.dim_y)
            y2 = rng.standard_normal(q.dim_y)
            lhs = q.objective(x, y2)
            gy = q.full_gradient(x, y1).gy
            rhs = (q.objective(x, y1) + gy @ (y2 - y1)
                   - 0.5 * q.nu * np.sum((y2 - y1) ** 2))
            assert lhs <= rhs + 1e-9

    def test_rejects_asymmetric_A(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticMinimaxProblem(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                    np.eye(2), 1.0)

    def test_rejects_nonpositive_nu(self):
        with pytest.raises(ValueError, match="nu"):
            QuadraticMinimaxProblem(np.zeros((2, 2)), np.eye(2), 0.0)


def noisy_quadratic(sigma):
    return make_quadratic(d=4, m=3, seed=1, noise_sigma=sigma)


def noisy_pl_toy(sigma):
    B = np.zeros((2, 3))
    B[:, :2] = [[1.0, 0.5], [-0.3, 2.0]]
    return PlToyProblem(0.1 * np.eye(2), B, np.diag([2.0, 1.0, 0.0]),
                        noise_sigma=sigma)


@pytest.mark.parametrize("make", [noisy_quadratic, noisy_pl_toy])
class TestAdditiveNoise:
    def test_variance_is_sigma_squared(self, make):
        sigma = 0.7
        p = make(sigma)
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal(p.dim_x), rng.standard_normal(p.dim_y)
        full = p.full_gradient(x, y)
        dev = []
        for _ in range(4000):
            g = p.sample_gradient(x, y, p.draw_sample(rng))
            dev.append(np.concatenate([g.gx - full.gx, g.gy - full.gy]))
        assert np.var(np.array(dev)) == pytest.approx(sigma ** 2, rel=0.1)

    def test_noiseless_draw_leaves_stream(self, make):
        p = make(0.0)
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        xi = p.draw_sample(rng)
        assert rng.bit_generator.state == before
        x, y = np.ones(p.dim_x), np.ones(p.dim_y)
        g, full = p.sample_gradient(x, y, xi), p.full_gradient(x, y)
        np.testing.assert_array_equal(g.gx, full.gx)
        np.testing.assert_array_equal(g.gy, full.gy)


class TestPlToy:
    def make(self, seed=0):
        rng = np.random.default_rng(seed)
        C = np.diag([2.0, 1.0, 0.0])
        B = np.zeros((2, 3))
        B[:, :2] = rng.standard_normal((2, 2))
        A = rng.standard_normal((2, 2))
        A = 0.1 * (A + A.T)
        return PlToyProblem(A, B, C)

    def test_delta_is_smallest_nonzero_eigenvalue(self):
        p = self.make()
        assert p.delta == pytest.approx(1.0)
        q = PlToyProblem(np.zeros((1, 1)), np.array([[1.0, 0.0]]),
                         np.diag([2.0, 0.0]))
        assert q.delta == pytest.approx(2.0)

    def test_decoupled_min_norm_argmax(self):
        C = np.diag([1.0, 0.0])
        B = np.array([[2.0, 0.0]])
        p = PlToyProblem(np.zeros((1, 1)), B, C)
        ys = p.inner_max(np.array([3.0])).y_star
        np.testing.assert_allclose(ys, [6.0, 0.0])

    def test_lipschitz_is_joint_hessian_norm(self):
        # the metric_ci column needs L_f, as on the quadratic testbed
        p = self.make()
        H = np.block([[p.A, p.B], [p.B.T, -p.C]])
        assert p.lipschitz_L_f == pytest.approx(np.linalg.norm(H, 2),
                                                rel=1e-12)

    def test_rejects_coupling_outside_range(self):
        C = np.diag([1.0, 0.0])
        B = np.array([[1.0, 1.0]])  # second column hits the null space
        with pytest.raises(ValueError, match="range"):
            PlToyProblem(np.zeros((1, 1)), B, C)

    def test_pl_inequality(self):
        p = self.make(seed=3)
        rng = np.random.default_rng(6)
        for _ in range(1000):
            x = rng.standard_normal(p.dim_x)
            y = rng.standard_normal(p.dim_y)
            gy = p.full_gradient(x, y).gy
            maxval = p.objective(x, p.inner_max(x).y_star)
            gap = maxval - p.objective(x, y)
            assert np.sum(gy ** 2) >= 2.0 * p.delta * gap - 1e-9
