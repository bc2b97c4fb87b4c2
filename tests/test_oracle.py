import numpy as np
import pytest

from hcmm.oracle import evaluate_P, finite_difference_hvp, metric_ci
from hcmm.problems import QuadraticMinimaxProblem

from conftest import make_logistic, make_quadratic, simplex_grid_3


def joint_norm(ax, ay):
    return np.sqrt(np.sum(ax ** 2) + np.sum(ay ** 2))


def projected_gradient_residual(problem, x, y, step):
    """Norm of the projected-gradient mapping of y -> J(x, y) at y.

    Zero exactly at the maximizer of the concave inner problem, so it checks
    a closed-form y*(x) without using its formula.
    """
    gy = problem.full_gradient(x, y).gy
    y_next = problem.project_y(y + step * gy)
    return np.linalg.norm(y - y_next) / step


class TestFiniteDifferenceHvp:
    def test_exact_on_quadratic(self, quadratic_small):
        q = quadratic_small
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal(q.dim_x), rng.standard_normal(q.dim_y)
        dx, dy = rng.standard_normal(q.dim_x), rng.standard_normal(q.dim_y)
        fd = finite_difference_hvp(q, x, y, 0, dx, dy)
        an = q.sample_hvp(x, y, 0, dx, dy)
        np.testing.assert_allclose(fd.hx, an.hx, atol=1e-9)
        np.testing.assert_allclose(fd.hy, an.hy, atol=1e-9)

    def test_zero_direction(self, quadratic_small):
        q = quadratic_small
        fd = finite_difference_hvp(q, np.ones(q.dim_x), np.ones(q.dim_y), 0,
                                   np.zeros(q.dim_x), np.zeros(q.dim_y))
        np.testing.assert_array_equal(fd.hx, np.zeros(q.dim_x))
        np.testing.assert_array_equal(fd.hy, np.zeros(q.dim_y))

    def test_scalar_saddle_constant_hessian(self):
        # J = x^2/2 - y^2/2 + xy has Hessian [[1, 1], [1, -1]]
        q = QuadraticMinimaxProblem(np.array([[1.0]]), np.array([[1.0]]), 1.0)
        h = q.sample_hvp(np.array([0.3]), np.array([-0.2]), 0,
                         np.array([1.0]), np.array([0.0]))
        assert h.hx[0] == pytest.approx(1.0)
        assert h.hy[0] == pytest.approx(1.0)

    def test_matches_analytic_on_logistic(self):
        p = make_logistic(n=50, d=10, seed=3)
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = rng.standard_normal(p.d) * 0.5
            y = rng.dirichlet(np.ones(p.n))
            dx = rng.standard_normal(p.d)
            dy = rng.standard_normal(p.n)
            i = int(rng.integers(p.n))
            fd = finite_difference_hvp(p, x, y, i, dx, dy)
            an = p.sample_hvp(x, y, i, dx, dy)
            denom = max(joint_norm(an.hx, an.hy), 1e-12)
            rel = joint_norm(fd.hx - an.hx, fd.hy - an.hy) / denom
            assert rel <= 1e-5


class TestHvpStructure:
    @pytest.mark.parametrize("maker", [make_quadratic,
                                       lambda: make_logistic(n=15, d=6)])
    def test_symmetry(self, maker):
        p = maker()
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(p.dim_x)
            y = rng.standard_normal(p.dim_y) * 0.3
            d1x, d1y = rng.standard_normal(p.dim_x), rng.standard_normal(p.dim_y)
            d2x, d2y = rng.standard_normal(p.dim_x), rng.standard_normal(p.dim_y)
            xi = int(rng.integers(p.n_samples or 100))
            h1 = p.sample_hvp(x, y, xi, d1x, d1y)
            h2 = p.sample_hvp(x, y, xi, d2x, d2y)
            a = np.dot(h1.hx, d2x) + np.dot(h1.hy, d2y)
            b = np.dot(h2.hx, d1x) + np.dot(h2.hy, d1y)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("maker", [make_quadratic,
                                       lambda: make_logistic(n=15, d=6)])
    def test_linearity(self, maker):
        p = maker()
        rng = np.random.default_rng(5)
        x = rng.standard_normal(p.dim_x)
        y = rng.standard_normal(p.dim_y) * 0.3
        d1x, d1y = rng.standard_normal(p.dim_x), rng.standard_normal(p.dim_y)
        d2x, d2y = rng.standard_normal(p.dim_x), rng.standard_normal(p.dim_y)
        alpha = 2.75
        xi = 1
        lhs = p.sample_hvp(x, y, xi, alpha * d1x + d2x, alpha * d1y + d2y)
        h1 = p.sample_hvp(x, y, xi, d1x, d1y)
        h2 = p.sample_hvp(x, y, xi, d2x, d2y)
        np.testing.assert_allclose(lhs.hx, alpha * h1.hx + h2.hx,
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(lhs.hy, alpha * h1.hy + h2.hy,
                                   rtol=1e-10, atol=1e-12)


class TestTaylorRemainder:
    def test_quadratic_remainder_zero(self, quadratic_small):
        q = quadratic_small
        rng = np.random.default_rng(7)
        for _ in range(50):
            x1, y1 = rng.standard_normal(q.dim_x), rng.standard_normal(q.dim_y)
            x2, y2 = x1 + rng.standard_normal(q.dim_x), \
                y1 + rng.standard_normal(q.dim_y)
            g2 = q.full_gradient(x2, y2)
            g1 = q.full_gradient(x1, y1)
            h = q.sample_hvp(x1, y1, 0, x2 - x1, y2 - y1)
            rx = g2.gx - g1.gx - h.hx
            ry = g2.gy - g1.gy - h.hy
            assert joint_norm(rx, ry) <= 1e-9

    def test_logistic_remainder_quadratic_bound(self):
        # remainder / ||dz||^2 stays below an empirically pinned constant
        p = make_logistic(n=20, d=8, seed=1)
        # full Hessian averaged over rows
        def full_hvp(x, y, dx, dy):
            hx = np.zeros(p.d)
            hy = np.zeros(p.n)
            for i in range(p.n):
                h = p.sample_hvp(x, y, i, dx, dy)
                hx += h.hx
                hy += h.hy
            return hx / p.n, hy / p.n
        rng = np.random.default_rng(13)
        ratio_max = 0.0
        for _ in range(1000):
            x1 = rng.standard_normal(p.d)
            y1 = rng.dirichlet(np.ones(p.n))
            step = rng.uniform(0.001, 0.1)
            ux = rng.standard_normal(p.d)
            uy = rng.standard_normal(p.n)
            un = joint_norm(ux, uy)
            dx, dy = step * ux / un, step * uy / un
            g2 = p.full_gradient(x1 + dx, y1 + dy)
            g1 = p.full_gradient(x1, y1)
            hx, hy = full_hvp(x1, y1, dx, dy)
            rem = joint_norm(g2.gx - g1.gx - hx, g2.gy - g1.gy - hy)
            ratio_max = max(ratio_max, rem / step ** 2)
        # pinned from the instance family (n*max||r||^3 scale); observed
        # maxima sit near 2, leave headroom for RNG variation
        assert ratio_max <= 10.0


class TestEvaluateP:
    def test_quadratic_closed_form(self, quadratic_small):
        q = quadratic_small
        x = np.array([1.0, -1.0, 0.5, 2.0])
        rep = evaluate_P(q, x)
        np.testing.assert_allclose(rep.y_star, q.B.T @ x / q.nu)
        assert rep.p_value == pytest.approx(
            0.5 * x @ (q.A + q.B @ q.B.T / q.nu) @ x)
        assert rep.iters_used == 0 and rep.converged

    def test_uniform_attained_when_losses_equal(self):
        # all Q_i identical (x = 0): the inner max over the simplex is the
        # uniform weight vector
        p = make_logistic(n=6, d=4)
        rep = evaluate_P(p, np.zeros(p.d))
        np.testing.assert_allclose(rep.y_star, np.full(p.n, 1.0 / p.n),
                                   atol=1e-12)

    def test_matches_grid_search_n3(self):
        p = make_logistic(n=3, d=4, seed=2)
        rng = np.random.default_rng(4)
        Y = simplex_grid_3(1e-3)
        for _ in range(5):
            x = rng.standard_normal(p.d)
            rep = evaluate_P(p, x)
            # J(x, y) minus the y-free g(x), on every grid row at once
            q = np.logaddexp(0.0, -p.labels * (p.X @ x))
            vals = Y @ q - 0.5 * p.lambda1 * np.sum((p.n * Y - 1.0) ** 2,
                                                    axis=1)
            k = int(np.argmax(vals))
            best = p.objective(x, Y[k])
            for j in (0, len(Y) - 1):
                assert best - p.objective(x, Y[j]) == pytest.approx(
                    vals[k] - vals[j], rel=1e-9, abs=1e-12)
            assert abs(rep.p_value - best) <= 1e-4
            assert rep.p_value == pytest.approx(p.objective(x, rep.y_star),
                                                rel=1e-12)

    def test_residual_contract(self):
        # the closed-form y*(x) is a fixed point of projected gradient
        # ascent on y -> J(x, y), at the inner problem's own curvature
        for n in (10, 500):
            p = make_logistic(n=n, d=5)
            rng = np.random.default_rng(n)
            for scale in (0.01, 0.1, 1.0, 2.0):
                x = scale * rng.standard_normal(p.d)
                step = 1.0 / (p.lambda1 * p.n ** 2)
                assert projected_gradient_residual(
                    p, x, p.inner_max(x).y_star, step) <= 1e-10


class TestMetricCi:
    def test_zero_at_exact_saddle(self, quadratic_small):
        q = quadratic_small
        x = np.zeros(q.dim_x)
        y = np.zeros(q.dim_y)
        assert metric_ci(q, x, y, np.zeros(q.dim_x),
                         q.inner_max(x).y_star) == pytest.approx(0.0)

    def test_reduces_to_grad_p_norm(self, quadratic_small):
        q = quadratic_small
        rng = np.random.default_rng(2)
        x = rng.standard_normal(q.dim_x)
        y = q.inner_max(x).y_star
        m = q.full_gradient(x, y).gx
        # first two terms vanish: value is ||grad_x J|| = ||grad P||
        assert metric_ci(q, x, y, m, y) == pytest.approx(
            np.linalg.norm(q.grad_p(x)), rel=1e-10)

    def test_upper_bounds_grad_p(self, quadratic_small):
        rng = np.random.default_rng(10)
        for q in (quadratic_small, make_logistic(n=15, d=6)):
            for _ in range(200):
                x = rng.standard_normal(q.dim_x)
                y = q.project_y(rng.standard_normal(q.dim_y))
                m = rng.standard_normal(q.dim_x)
                ci = metric_ci(q, x, y, m, q.inner_max(x).y_star)
                assert np.linalg.norm(q.grad_p(x)) <= ci + 1e-9
