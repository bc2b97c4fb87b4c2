import math
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import hcmm.harness
import hcmm.problems
from hcmm.core import HyperSchedule, norm2, norm2_rows
from hcmm.optimizers import Hcmm2, iterate_steps, samples_per_run
from hcmm.problems import (PlToyProblem, QuadraticMinimaxProblem,
                           RobustLogisticProblem)
from hcmm.simplex import project_simplex

from conftest import join, make_logistic, make_quadratic, stream

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
            g = p.sample_gradient(join(x, y), i)
            idx, val = p._row(i)
            expect = np.zeros(p.d)
            # n*y_i term vanishes at y=0; only grad g(x)=0 remains in gx
            np.testing.assert_allclose(g[:p.d], expect, atol=1e-14)

    def test_grad_y_at_origin_uniform(self, logistic_small):
        p = logistic_small
        x = np.zeros(p.d)
        y = np.full(p.n, 1.0 / p.n)
        g = p.full_gradient(join(x, y))
        np.testing.assert_allclose(g[p.d:], np.full(p.n, np.log(2.0)), atol=1e-12)

    def test_sample_grad_y_structure_at_origin(self, logistic_small):
        # gy = n*log2*e_i when x = 0, y uniform (V-gradient vanishes)
        p = logistic_small
        x = np.zeros(p.d)
        y = np.full(p.n, 1.0 / p.n)
        i = 3
        g = p.sample_gradient(join(x, y), i)
        expect = np.zeros(p.n)
        expect[i] = p.n * np.log(2.0)
        np.testing.assert_allclose(g[p.d:], expect, atol=1e-12)

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
        h = p.sample_hvp(join(x, y), 0, join(np.zeros(p.d), dy))
        # with dx = 0 the cross term only touches entry 0 of hy
        mask = np.ones(p.n, bool)
        mask[0] = False
        np.testing.assert_allclose(h[p.d:][mask],
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
            p.sample_gradient(np.zeros(p.d + p.n), p.n)


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
                g = p.sample_gradient(join(x, y), i)
                gx += g[:p.d]
                gy += g[p.d:]
            full = p.full_gradient(join(x, y))
            np.testing.assert_allclose(gx / p.n, full[:p.d], rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(gy / p.n, full[p.d:], rtol=1e-12, atol=1e-14)

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
            h = p.sample_hvp(join(x, y), i, join(dx, dy))
            hx += h[:p.d]
            hy += h[p.d:]
        hx /= p.n
        hy /= p.n
        eps = 1e-6
        gp = p.full_gradient(join(x + eps * dx, y + eps * dy))
        gm = p.full_gradient(join(x - eps * dx, y - eps * dy))
        np.testing.assert_allclose(hx, (gp[:p.d] - gm[:p.d]) / (2 * eps),
                                   rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(hy, (gp[p.d:] - gm[p.d:]) / (2 * eps),
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
            g1 = p.full_gradient(join(x1, y1))
            g2 = p.full_gradient(join(x2, y2))
            dg = np.sqrt(np.sum((g1[:p.d] - g2[:p.d]) ** 2)
                         + np.sum((g1[p.d:] - g2[p.d:]) ** 2))
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

    @staticmethod
    def bound_files(tmp_path):
        """LIBSVM files, by name: binary and real-valued rows, empty rows
        (first, inside and last), one row, and a row count that is no
        multiple of BOUND_ROWS."""
        from conftest import write_libsvm
        rng = np.random.default_rng(3)

        def rows(n, real):
            for i in range(n):
                cols = np.flatnonzero(rng.random(40) < 0.25) + 1
                vals = (rng.standard_normal(cols.size)
                        * 10.0 ** rng.integers(-3, 4, cols.size) if real
                        else np.ones(cols.size))
                yield " ".join([("+1", "-1")[i % 2]] + [
                    f"{c}:{v!r}" for c, v in zip(cols, vals.tolist())])

        lines = {"binary": list(rows(900, False)),
                 "real": list(rows(900, True)),
                 "empty_rows": ["-1"] + list(rows(25, True)) + ["+1"]
                 + list(rows(25, False)) + ["-1", "+1"],
                 "one_row": ["+1 2:0.5 7:-3 40:1e-2"],
                 "past_block": list(rows(hcmm.problems.BOUND_ROWS + 3, True))}
        return {name: write_libsvm(tmp_path / f"{name}.svm", text)
                for name, text in lines.items()}

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_lipschitz_bits_of_the_power_formula(self, tmp_path, monkeypatch,
                                                 block):
        # the bound has the bits it had when rmax was taken from X.power(2)
        from hcmm.libsvm import load_dataset
        if block is not None:
            monkeypatch.setattr(hcmm.problems, "BOUND_ROWS", block)
        for name, path in self.bound_files(tmp_path).items():
            ds = load_dataset(path)
            if name == "past_block" and block != 1:
                assert ds.n % hcmm.problems.BOUND_ROWS
            p = RobustLogisticProblem(ds.X, ds.labels, lambda2=0.003, rho=7.0)
            n = p.n
            rmax = float(np.sqrt(ds.X.power(2).sum(axis=1).max()))
            want = (n * rmax ** 2 / 4.0 + 2.0 * p.lambda2 * p.rho
                    + p.lambda1 * n ** 2 + n * rmax)
            assert np.float64(p.lipschitz_L_f).tobytes() \
                == np.float64(want).tobytes(), name

    def test_lipschitz_sums_duplicates_as_power_does(self):
        import scipy.sparse as sp
        # row 0 holds column 1 twice: its norm is that of their sum
        X = sp.csr_matrix((np.array([1.0, 2.0, 0.5, 3.0]),
                           np.array([1, 1, 0, 2]), np.array([0, 3, 4])),
                          shape=(2, 3))
        rmax = float(np.sqrt(X.copy().power(2).sum(axis=1).max()))
        assert rmax == math.sqrt(9.25)
        assert hcmm.problems._largest_row_norm(X) == rmax

    def test_lipschitz_first_read_allocates_a_block(self):
        # a 20000-row one-hot X: the first read allocates under a quarter of
        # X's bytes, where X.power(2) copied all of them
        import scipy.sparse as sp
        import tracemalloc
        rng = np.random.default_rng(1)
        n, groups = 20000, 22
        cols = np.arange(groups) * 5 + rng.integers(0, 5, (n, groups))
        X = sp.csr_matrix((np.ones(n * groups), cols.ravel().astype(np.int32),
                           np.arange(0, n * groups + 1, groups,
                                     dtype=np.int32)), shape=(n, 5 * groups))
        p = RobustLogisticProblem(X, rng.choice([-1.0, 1.0], n))
        x_bytes = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
        tracemalloc.start()
        try:
            assert p.lipschitz_L_f > 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x_bytes / 4, (peak, x_bytes)


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
            gx = q.full_gradient(join(x, q.inner_max(x).y_star))[:q.dim_x]
            np.testing.assert_allclose(gx, q.grad_p(x), rtol=1e-10, atol=1e-12)

    def test_noiseless_sample_equals_full(self, quadratic_small):
        q = quadratic_small
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(q.dim_x), rng.standard_normal(q.dim_y)
        s = q.sample_gradient(join(x, y), 12345)
        f = q.full_gradient(join(x, y))
        np.testing.assert_array_equal(s[:q.dim_x], f[:q.dim_x])
        np.testing.assert_array_equal(s[q.dim_x:], f[q.dim_x:])

    def test_noise_reproducible_and_zero_mean(self):
        q = make_quadratic(noise_sigma=0.5)
        x, y = np.ones(q.dim_x), np.ones(q.dim_y)
        rng = np.random.default_rng(42)
        z = join(x, y)
        xi = q.draw_samples(rng, 1)[0]
        a = q.sample_gradient(z, xi)
        b = q.sample_gradient(z, xi)
        np.testing.assert_array_equal(a[:q.dim_x], b[:q.dim_x])
        np.testing.assert_array_equal(a[q.dim_x:], b[q.dim_x:])
        full = q.full_gradient(z)
        mean = np.mean([q.sample_gradient(z, xi)[:q.dim_x]
                        for xi in q.draw_samples(rng, 4000)], axis=0)
        assert np.linalg.norm(mean - full[:q.dim_x]) < 0.05

    def test_strong_concavity_witness(self, quadratic_small):
        q = quadratic_small
        rng = np.random.default_rng(8)
        for _ in range(200):
            x = rng.standard_normal(q.dim_x)
            y1 = rng.standard_normal(q.dim_y)
            y2 = rng.standard_normal(q.dim_y)
            lhs = q.objective(x, y2)
            gy = q.full_gradient(join(x, y1))[q.dim_x:]
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
        full = p.full_gradient(join(x, y))
        dev = []
        for _ in range(4000):
            g = p.sample_gradient(join(x, y), p.draw_samples(rng, 1)[0])
            dev.append(g - full)
        assert np.var(np.array(dev)) == pytest.approx(sigma ** 2, rel=0.1)

    def test_noiseless_draw_leaves_stream(self, make):
        p = make(0.0)
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        xi = p.draw_samples(rng, 1)[0]
        assert rng.bit_generator.state == before
        x, y = np.ones(p.dim_x), np.ones(p.dim_y)
        z = join(x, y)
        g, full = p.sample_gradient(z, xi), p.full_gradient(z)
        np.testing.assert_array_equal(g[:p.dim_x], full[:p.dim_x])
        np.testing.assert_array_equal(g[p.dim_x:], full[p.dim_x:])


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

    def test_rejects_bad_a_and_b_shapes(self):
        # the quadratic testbed's checks and messages, then C's shape
        C = np.diag([1.0, 0.0])
        with pytest.raises(ValueError, match="^A must be square$"):
            PlToyProblem(np.zeros((1, 2)), np.array([[1.0, 0.0]]), C)
        with pytest.raises(ValueError, match="^B row count 1 != dim of A 2$"):
            PlToyProblem(np.zeros((2, 2)), np.array([[1.0, 0.0]]), C)
        with pytest.raises(ValueError, match=r"^C must be 3 x 3 \(B has 3 "
                                             r"columns\), got shape \(2, 2\)$"):
            PlToyProblem(np.zeros((2, 2)), np.zeros((2, 3)), np.eye(2))

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
            gy = p.full_gradient(join(x, y))[p.dim_x:]
            maxval = p.objective(x, p.inner_max(x).y_star)
            gap = maxval - p.objective(x, y)
            assert np.sum(gy ** 2) >= 2.0 * p.delta * gap - 1e-9


class TestJointOracles:
    """The joint oracles against the per-block formulas, written out."""

    @staticmethod
    def assert_close(joint, split, rel=1e-13):
        split = np.concatenate(split)
        assert np.linalg.norm(joint - split) <= rel * np.linalg.norm(split)

    @pytest.mark.parametrize("make", [noisy_quadratic, noisy_pl_toy])
    def test_quadratic_and_pl_match_split_formulas(self, make):
        p = make(0.4)
        # -nu I for the quadratic, -C for the PL toy
        Hyy = -p.C if isinstance(p, PlToyProblem) else -p.nu * np.eye(p.dim_y)
        rng = np.random.default_rng(21)
        for _ in range(50):
            x, y = rng.standard_normal(p.dim_x), rng.standard_normal(p.dim_y)
            dx, dy = rng.standard_normal(p.dim_x), rng.standard_normal(p.dim_y)
            xi = p.draw_samples(rng, 1)[0]
            gx = p.A @ x + p.B @ y
            gy = p.B.T @ x + Hyy @ y
            z = join(x, y)
            self.assert_close(p.full_gradient(z), (gx, gy))
            self.assert_close(p.sample_gradient(z, xi),
                              (gx + xi[:p.dim_x], gy + xi[p.dim_x:]))
            self.assert_close(p.sample_hvp(z, xi, join(dx, dy)),
                              (p.A @ dx + p.B @ dy, p.B.T @ dx + Hyy @ dy))

    def test_logistic_bit_equal_to_split_formulas(self):
        from scipy.special import expit
        p = make_logistic(n=40, d=9, seed=4)
        n, lam1, lam2, rho = p.n, p.lambda1, p.lambda2, p.rho
        rng = np.random.default_rng(22)
        for _ in range(50):
            x = rng.standard_normal(p.d)
            y = rng.dirichlet(np.ones(n))
            dx, dy = rng.standard_normal(p.d), rng.standard_normal(n)
            i = int(rng.integers(n))
            idx, val = p._row(i)
            li = p.labels[i]
            t = li * float(np.dot(val, x[idx]))
            # the gradient, block by block
            gx = 2.0 * lam2 * rho * x / (1.0 + rho * x * x) ** 2
            gx[idx] += n * y[i] * (-li * expit(-t)) * val
            gy = -(lam1 * n * (n * y - 1.0))
            gy[i] += n * np.logaddexp(0.0, -t)
            # the Hessian-vector product, block by block
            s = expit(-t)
            q2 = s * (1.0 - s)
            rdx = float(np.dot(val, dx[idx]))
            gq_coef = -li * s
            rx2 = rho * x * x
            hx = 2.0 * lam2 * rho * (1.0 - 3.0 * rx2) / (1.0 + rx2) ** 3 * dx
            hx[idx] += n * (y[i] * q2 * rdx + dy[i] * gq_coef) * val
            hy = -lam1 * n ** 2 * dy
            hy[i] += n * gq_coef * rdx
            z = join(x, y)
            assert p.sample_gradient(z, i).tobytes() == join(gx, gy).tobytes()
            assert p.sample_hvp(z, i, join(dx, dy)).tobytes() \
                == join(hx, hy).tobytes()

    @pytest.mark.parametrize("make", [lambda: make_logistic(n=30, d=5),
                                      lambda: noisy_quadratic(0.4),
                                      lambda: noisy_pl_toy(0.4)])
    def test_grad_x_is_the_full_gradient_x_block(self, make):
        # metric_ci reads grad_x; robust logistic skips the y block
        p = make()
        z = np.random.default_rng(6).uniform(0.0, 1.0, p.dim_x + p.dim_y)
        assert p.grad_x(z).tobytes() == p.full_gradient(z)[:p.dim_x].tobytes()

    @pytest.mark.parametrize("make", [lambda: make_logistic(n=30, d=6),
                                      lambda: noisy_quadratic(0.0),
                                      lambda: noisy_pl_toy(0.0)])
    def test_p_value_is_inner_max_p_bits(self, make, monkeypatch):
        # final_p reads P alone; robust logistic then skips grad P's X' coef
        p = make()
        x = np.random.default_rng(7).standard_normal(p.dim_x)
        want = p.inner_max(x).p_value
        monkeypatch.setattr(type(p), "_grad_x_at", None, raising=False)
        assert np.float64(p.p_value(x)).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("cls", [RobustLogisticProblem,
                                     QuadraticMinimaxProblem])
    def test_oracles_in_own_class_body(self, cls):
        # per-layer tracing wraps the methods each class itself defines;
        # PlToyProblem inherits the quadratic's wrapped oracles instead
        for name in ("sample_gradient", "sample_hvp", "full_gradient"):
            assert name in vars(cls), f"{cls.__name__}.{name} is inherited"

    def test_one_span_per_oracle_call(self, monkeypatch):
        # perfbench wraps the oracle methods in each class's own body; a
        # subclass's calls go through its parent's wrappers, once
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from spans import Tracer
        tracer = Tracer({})
        tracer.install()
        try:
            for p in (make_logistic(n=9, d=4), noisy_quadratic(0.4),
                      noisy_pl_toy(0.4)):
                rng = np.random.default_rng(3)
                z = rng.uniform(0.0, 1.0, p.dim_x + p.dim_y)
                xi = p.draw_samples(rng, 1)[0]
                for span, call in (
                        ("sample_gradient", lambda: p.sample_gradient(z, xi)),
                        ("sample_hvp", lambda: p.sample_hvp(z, xi, z)),
                        ("full_gradient", lambda: p.full_gradient(z)),
                        ("closed_form", lambda: p.p_value(z[:p.dim_x]))):
                    first = len(tracer.name_id)
                    call()
                    names = [tracer.names[i] for i in tracer.name_id[first:]]
                    assert [n for n in names if n.startswith("problems.")] \
                        == [f"problems.{span}"], type(p).__name__
        finally:
            tracer.uninstall()

    @pytest.mark.parametrize("make", [lambda: make_logistic(n=9, d=4),
                                      lambda: noisy_quadratic(0.0),
                                      lambda: noisy_pl_toy(0.0)])
    def test_project_y_works_in_place_on_a_view(self, make):
        # step projects the y view of the new iterate and keeps no result
        p = make()
        z = np.random.default_rng(5).standard_normal(p.dim_x + p.dim_y)
        x0, y0 = z[:p.dim_x].copy(), z[p.dim_x:].copy()
        y = z[p.dim_x:]
        assert p.project_y(y) is y
        np.testing.assert_array_equal(z[:p.dim_x], x0)
        if isinstance(p, RobustLogisticProblem):
            np.testing.assert_array_equal(y, project_simplex(y0))
        else:
            np.testing.assert_array_equal(y, y0)


class TestProductBits:
    """The synthetic oracles' products are bit-equal to the `@` forms
    (M z + xi, M dz, p_hessian x), as norm2 is to np.linalg.norm: a numpy
    or BLAS change that splits the two fails here, not only in a golden
    diff."""

    @pytest.mark.parametrize("d, m", [(1, 1), (10, 10), (64, 48)])
    @pytest.mark.parametrize("pl", [False, True], ids=["quadratic", "pl_toy"])
    def test_oracles_bit_equal_to_matmul(self, d, m, pl):
        p = PlToyProblem.random(d, m, max(1, m // 2), 0.5, 1.5, 1.0, seed=d) \
            if pl else QuadraticMinimaxProblem.random(d, m, 2.0, 1.0, seed=d)
        rng = np.random.default_rng(d + m)
        for scale in (1e-150, 1e-5, 1.0, 1e5, 1e150):
            for _ in range(10):
                z, dz, xi = scale * rng.standard_normal((3, d + m))
                x = z[:d]
                assert p.sample_gradient(z, xi).tobytes() \
                    == (p.M @ z + xi).tobytes()
                assert p.sample_hvp(z, xi, dz).tobytes() \
                    == (p.M @ dz).tobytes()
                assert p.full_gradient(z).tobytes() == (p.M @ z).tobytes()
                assert p.grad_p(x).tobytes() == (p.p_hessian @ x).tobytes()

    @pytest.mark.parametrize("d", [1, 10, 64, 112])
    @pytest.mark.parametrize("pl", [False, True], ids=["quadratic", "pl_toy"])
    def test_stacked_forms_bit_equal_to_rows(self, d, pl):
        # grad_p on a (k, d) stack is the 1-D call row for row, and the
        # stacked self-dot (norm2_rows) is v.dot(v), for stacks around the
        # rate study's block of x's
        m = max(1, d // 2)
        p = PlToyProblem.random(d, m, max(1, m // 2), 0.5, 1.5, 1.0, seed=d) \
            if pl else QuadraticMinimaxProblem.random(d, m, 2.0, 1.0, seed=d)
        rows = hcmm.harness.RATE_BLOCK_BYTES // (16 * d)
        rng = np.random.default_rng(d)
        for scale in (1e-150, 1e-5, 1.0, 1e5, 1e150):
            for k in (1, 2, rows - 1, rows, rows + 1):
                X = scale * rng.standard_normal((k, d))
                G = p.grad_p(X)
                assert G.shape == (k, d)
                assert G.tobytes() == np.array([p.grad_p(x)
                                                for x in X]).tobytes()
                dots = (G[:, None, :] @ G[:, :, None]).ravel()
                assert dots.tobytes() == np.array([v.dot(v)
                                                   for v in G]).tobytes()
                assert norm2_rows(G).tobytes() == np.array(
                    [norm2(v) for v in G]).tobytes()

    def test_base_class_stack_is_inner_max_row_by_row(self):
        # robust logistic has no grad_p of its own: the base class takes
        # one inner max a row
        p = make_logistic(n=30, d=8, seed=4)
        X = np.random.default_rng(1).standard_normal((5, p.d))
        G = p.grad_p(X)
        assert G.shape == (5, p.d)
        assert G.tobytes() == np.array([p.inner_max(x).grad_p
                                        for x in X]).tobytes()
        assert p.grad_p(X[2]).tobytes() == G[2].tobytes()


class TestRestriction:
    """A robust-logistic problem restricted to the rows a run draws, with
    one pooled y coordinate sqrt(w) c for the w undrawn rows of value c."""

    SAMPLES = [3, 17, 3, 25, 8, 17]

    @pytest.fixture(autouse=True)
    def pool_any_rows(self, monkeypatch):
        # these problems have tens of rows, too few to pool by default
        monkeypatch.setattr(hcmm.problems, "MIN_POOLED", 1)

    def restricted(self, n=40, d=6):
        p = make_logistic(n=n, d=d, seed=2)
        sub, y0, _ = p.restrict(iter(self.SAMPLES), np.full(n, 1.0 / n))
        return p, sub, y0

    def lifted(self, p, sub, z):
        """The full-problem joint vector for a restricted one."""
        return np.concatenate((z[:p.d], sub.lift_y(z[p.d:])))

    def test_layout(self):
        p, sub, y0 = self.restricted()
        assert isinstance(sub, RobustLogisticProblem) and sub is not p
        np.testing.assert_array_equal(sub.rows, [3, 8, 17, 25])
        # n stays the full count; the samples are positions among 4 rows
        assert (sub.pooled, sub.dim_y, sub.n, sub.n_samples) == (36, 5, 40, 4)
        np.testing.assert_array_equal(y0[:4], np.full(4, 1.0 / 40))
        assert y0[-1] == 6.0 * (1.0 / 40)
        full_y = sub.lift_y(y0)
        assert full_y.shape == (40,)
        assert np.linalg.norm(full_y) == pytest.approx(np.linalg.norm(y0),
                                                       rel=1e-15)
        np.testing.assert_allclose(full_y, 1.0 / 40, rtol=1e-15)

    def test_oracles_match_full_problem(self):
        # every block of the restricted oracles is the full problem's at
        # the lifted iterate: the drawn rows as they are, the undrawn rows
        # as one entry times sqrt(w)
        p, sub, _ = self.restricted()
        undrawn = np.setdiff1d(np.arange(p.n), sub.rows)
        rng = np.random.default_rng(4)
        for _ in range(5):
            z = np.concatenate((rng.standard_normal(p.d),
                                rng.dirichlet(np.ones(sub.dim_y))))
            dz = rng.standard_normal(z.size)
            full_z, full_dz = self.lifted(p, sub, z), self.lifted(p, sub, dz)
            for local, row in enumerate(sub.rows):
                for got, want in ((sub.sample_gradient(z, local),
                                   p.sample_gradient(full_z, row)),
                                  (sub.sample_hvp(z, local, dz),
                                   p.sample_hvp(full_z, row, full_dz))):
                    wy = want[p.d:]
                    np.testing.assert_allclose(wy[undrawn], wy[undrawn[0]],
                                               rtol=1e-15)
                    expect = np.concatenate((want[:p.d], wy[sub.rows],
                                             [6.0 * wy[undrawn[0]]]))
                    np.testing.assert_allclose(got, expect, rtol=1e-13,
                                               atol=1e-13 * np.abs(expect).max())
                    assert sub.sample_loss(z[:p.d], z[p.d:], local) \
                        == pytest.approx(p.sample_loss(full_z[:p.d],
                                                       full_z[p.d:], row),
                                         rel=1e-13)

    def test_projection_matches_full_problem(self):
        p, sub, _ = self.restricted()
        rng = np.random.default_rng(7)
        for scale in (1e-3, 0.1, 3.0):
            y = 1.0 / 40 + scale * rng.standard_normal(sub.dim_y)
            want = project_simplex(sub.lift_y(y))
            got = sub.project_y(y)
            np.testing.assert_allclose(sub.lift_y(got), want, rtol=0,
                                       atol=1e-15)

    def test_samples_are_positions_of_the_drawn_rows(self):
        p, sub, _ = self.restricted()
        _, _, local = p.restrict(iter(self.SAMPLES), np.full(p.n, 1.0 / p.n))
        local = list(local)
        assert local == [0, 2, 0, 3, 1, 2]
        assert all(type(i) is int for i in local)
        assert sub.rows[local].tolist() == self.SAMPLES
        z = np.zeros(p.d + sub.dim_y)
        # a position outside the held rows fails in _row
        for bad in (-1, sub.rows.size):
            with pytest.raises(IndexError, match="out of range"):
                sub.sample_gradient(z, bad)

    @pytest.mark.parametrize("pooled", [True, False])
    def test_run_steps_on_the_streams_rows(self, monkeypatch, pooled):
        # the rows behind the samples a run's oracles take, pooled or
        # declined (the problem itself, holding every row), are the rows
        # of the seed's stream: sub.rows[local] == drawn
        if not pooled:
            monkeypatch.setattr(hcmm.problems, "MIN_POOLED", 10 ** 6)
        p = make_logistic(n=40, d=6, seed=2)
        T, kind = 30, Hcmm2()
        count = samples_per_run(kind, T)
        drawn = list(islice(stream(p, 9), count))
        sub, y0, samples = p.restrict(islice(stream(p, 9), count),
                                      np.full(p.n, 1.0 / p.n))
        assert (sub is p) == (not pooled)
        taken = []
        gradient = RobustLogisticProblem.sample_gradient
        monkeypatch.setattr(RobustLogisticProblem, "sample_gradient",
                            lambda self, z, xi: taken.append(xi)
                            or gradient(self, z, xi))
        schedule = HyperSchedule(mu_x=0.01, mu_y=0.01, beta_x=0.1,
                                 beta_y=0.1)
        assert len(list(iterate_steps(kind, sub, schedule, np.zeros(p.d), y0,
                                      T, samples))) == T
        rows = np.arange(p.n) if sub.rows is None else sub.rows
        assert len(taken) == count
        assert rows[taken].tolist() == drawn

    def test_oracles_needing_every_row_raise(self):
        # they would otherwise answer from the drawn rows alone
        p, sub, y0 = self.restricted()
        x = np.full(p.d, 0.1)
        z = np.concatenate((x, y0))
        for call in (lambda: sub.full_gradient(z), lambda: sub.grad_x(z),
                     lambda: sub.objective(x, y0),
                     lambda: sub.inner_max(x), lambda: sub.p_value(x)):
            with pytest.raises(NotImplementedError, match="every row"):
                call()

    def test_identity_when_few_undrawn_or_undrawn_rows_differ(
            self, monkeypatch):
        monkeypatch.setattr(hcmm.problems, "MIN_POOLED", 3)
        p = make_logistic(n=10, d=4)
        y0 = np.full(10, 0.1)
        for drawn in (10, 8):        # 0 and 2 rows undrawn, fewer than 3
            got, got_y, samples = p.restrict(iter(range(drawn)), y0)
            assert got is p and got_y is y0
            # the drawn row ids, which restrict has read
            assert list(samples) == list(range(drawn))
        assert p.restrict(iter(range(7)), y0)[0].pooled == 3
        uneven = np.linspace(0.0, 0.2, 10)
        got, got_y, samples = p.restrict(iter([1, 2]), uneven)
        assert got is p and got_y is uneven and list(samples) == [1, 2]
        assert p.lift_y(y0) is y0

    def test_identity_restriction_leaves_samples_unread(self):
        # the base class returns its iterator as it is, so a synthetic run
        # never holds its samples
        q = make_quadratic(noise_sigma=0.5)
        samples = iter(range(5))
        y0 = np.zeros(q.dim_y)
        got, got_y, out = q.restrict(samples, y0)
        assert got is q and got_y is y0 and out is samples
        assert next(samples) == 0


class TestSupportProduct:
    """`_grad_x_at` over the rows where y != 0 has the bits of the dense
    X'(-l o sigma(-t) o y) + g'(x), signed zeros included, on either side of
    MAX_SUPPORT_SHARE."""

    @staticmethod
    def dense(p, t, x, y):
        from scipy.special import expit
        return np.asarray(p.X.T @ (-p.labels * expit(-t) * y)).ravel() \
            + p._g_grad(x)

    def assert_dense_bits(self, p, x, y):
        t = p._margins(x)
        got, want = p._grad_x_at(t, x, y), self.dense(p, t, x, y)
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    @pytest.fixture(scope="class")
    def problem(self):
        return make_logistic(n=3000, d=40, seed=5)

    @pytest.mark.parametrize("share", [None, 1.0], ids=["default", "always"])
    def test_random_supports(self, problem, monkeypatch, share):
        # "always" takes the support path at every size, the full one too
        if share is not None:
            monkeypatch.setattr(hcmm.problems, "MAX_SUPPORT_SHARE", share)
        p = problem
        cut = int(hcmm.problems.MAX_SUPPORT_SHARE * p.n)
        rng = np.random.default_rng(1)
        for k in (1, 2, 7, 100, cut - 1, cut, cut + 1, 2 * cut, p.n):
            for scale in (0.0, 0.01, 1.0, 30.0):
                x = scale * rng.standard_normal(p.d)
                x[::7] = -0.0
                y = np.zeros(p.n)
                y[rng.choice(p.n, min(k, p.n), replace=False)] = \
                    rng.dirichlet(np.ones(min(k, p.n)))
                self.assert_dense_bits(p, x, y)
                self.assert_dense_bits(p, x, -y)

    def test_one_nonzero_and_all_zero(self, problem):
        p = problem
        x = 0.3 * np.random.default_rng(2).standard_normal(p.d)
        for row in (0, 1234, p.n - 1):
            y = np.zeros(p.n)
            y[row] = 1.0
            self.assert_dense_bits(p, x, y)
        y = np.zeros(p.n)
        self.assert_dense_bits(p, x, y)
        assert p._grad_x_at(p._margins(x), x, y).tobytes() \
            == (np.zeros(p.d) + p._g_grad(x)).tobytes()

    def test_nan_margin_takes_the_dense_product(self, problem):
        # nan * 0 is nan: a row with y = 0 still shows in the dense product
        p = problem
        x = np.full(p.d, 0.1)
        x[3] = np.nan
        y = np.zeros(p.n)
        y[:5] = 0.2
        self.assert_dense_bits(p, x, y)

    def test_empty_row(self, tmp_path):
        from conftest import write_libsvm
        from hcmm.libsvm import load_dataset
        path = write_libsvm(tmp_path / "e.svm",
                            ["+1 1:0.5 3:-2", "-1", "+1 2:1.5", "-1 1:-1 2:0.25",
                             "+1"])
        ds = load_dataset(path)
        p = RobustLogisticProblem(ds.X, ds.labels)
        assert np.diff(p.X.indptr).tolist() == [2, 0, 1, 2, 0]
        x = np.array([0.4, -0.7, 1.1])
        for support in ([1], [4], [1, 4], [0, 1], [1, 2, 3], [0, 1, 2, 3, 4]):
            y = np.zeros(5)
            y[support] = 1.0 / len(support)
            self.assert_dense_bits(p, x, y)

    @pytest.mark.parametrize("pooled_value", [0.0, 0.4])
    def test_lifted_restriction(self, problem, pooled_value):
        # a pooled restriction's y on the full problem: its drawn rows, and
        # every undrawn row at the pooled value (dense unless that is 0)
        p = problem
        rng = np.random.default_rng(3)
        drawn = rng.integers(0, p.n, 60)
        sub, y0, _ = p.restrict(iter(drawn.tolist()), np.full(p.n, 1.0 / p.n))
        assert sub.pooled >= hcmm.problems.MIN_POOLED
        y = rng.dirichlet(np.ones(sub.dim_y)) * (1.0 - pooled_value)
        y[-1] = pooled_value
        x = 0.2 * rng.standard_normal(p.d)
        self.assert_dense_bits(p, x, sub.lift_y(y))


class TestScreenedInnerMax:
    """`inner_max` and `p_value`, which form y* on the rows with the
    SCREEN_ROWS smallest margins (more when y* reaches the last of them),
    have the bits of the projection over every row: y* with its signed
    zeros, P, grad P and the margins. Screens of 1, 4 and 16 rows are
    widened at these sizes; the default one takes every row of the 300-row
    problems at once and screens the 1500-row ones."""

    @staticmethod
    def dense(p, x):
        t = p._margins(x)
        q = np.logaddexp(0.0, -t)
        y = project_simplex(1.0 / p.n + q / (p.lambda1 * p.n ** 2))
        return y, p._objective_at(q, x, y), p._grad_x_at(t, x, y), t

    @pytest.fixture(scope="class")
    def problems(self, tmp_path_factory):
        # binary rows, so that many margins tie, with one empty row; and
        # real rows; each at the default lambda1, 10/n^2 and 1e-3
        from conftest import write_libsvm
        from hcmm.libsvm import load_dataset
        rng = np.random.default_rng(7)
        lines = ["-1"] + [" ".join([("+1", "-1")[i % 2]] + [
            f"{c}:1" for c in np.flatnonzero(rng.random(12) < 0.3) + 1])
            for i in range(299)]
        ds = load_dataset(write_libsvm(
            tmp_path_factory.mktemp("screen") / "binary.svm", lines))
        return ([RobustLogisticProblem(ds.X, ds.labels, lam)
                 for lam in (None, 10.0 / ds.n ** 2, 1e-3)]
                + [make_logistic(n=1500, d=20, seed=4, lambda1=lam)
                   for lam in (None, 10.0 / 1500 ** 2, 1e-3)])

    @pytest.fixture
    def screens(self, monkeypatch):
        """The row counts each inner max projects over, one list per call
        of `_y_star`. More screens than a 4x widening from SCREEN_ROWS to n
        takes fail here, rather than loop."""
        screens, most = [], []
        project, y_star = hcmm.problems.project_simplex, \
            RobustLogisticProblem._y_star

        def spy_project(v, *args, **kwargs):
            screens[-1].append(v.size)
            assert len(screens[-1]) <= most[-1]
            return project(v, *args, **kwargs)

        def spy_y_star(p, x):
            screens.append([])
            most.append(2 + math.log(p.n / hcmm.problems.SCREEN_ROWS, 4))
            return y_star(p, x)

        monkeypatch.setattr(hcmm.problems, "project_simplex", spy_project)
        monkeypatch.setattr(RobustLogisticProblem, "_y_star", spy_y_star)
        return screens

    def assert_dense_bits(self, p, x):
        want_y, want_p, want_g, want_t = self.dense(p, x)
        r = p.inner_max(x)
        assert r.y_star.tobytes() == want_y.tobytes()
        np.testing.assert_array_equal(np.signbit(r.y_star),
                                      np.signbit(want_y))
        assert np.float64(r.p_value).tobytes() == np.float64(want_p).tobytes()
        assert r.grad_p.tobytes() == want_g.tobytes()
        assert r.margins.tobytes() == want_t.tobytes()
        assert np.float64(p.p_value(x)).tobytes() \
            == np.float64(want_p).tobytes()

    @pytest.mark.parametrize("rows", [1, 4, 16, None])
    def test_bits_of_the_full_projection(self, problems, screens,
                                         monkeypatch, rows):
        if rows is not None:
            monkeypatch.setattr(hcmm.problems, "SCREEN_ROWS", rows)
        rng = np.random.default_rng(rows or 0)
        for p in problems:
            for scale in (0.0, 1e-3, 0.03, 0.3, 3.0, 100.0):
                for _ in range(3):
                    self.assert_dense_bits(p, scale * rng.standard_normal(p.d))
                    # small integers: ties among the binary rows' margins
                    self.assert_dense_bits(p, scale * rng.integers(-2, 3, p.d))
        n = {p.n for p in problems}
        taken = {"first" if len(s) == 1 and s[0] not in n
                 else "widened" if len(s) > 1 else "every row"
                 for s in screens}
        # one row, the smallest margin, always holds y*'s largest entry
        assert taken == {"first", "widened", "every row"} - (
            {"first"} if rows == 1 else set())

    def test_no_partition_at_most_screen_rows(self, problems, monkeypatch):
        # at n <= SCREEN_ROWS y* is formed over every row without a screen
        sizes, partition = [], np.partition

        def spy(a, *args, **kwargs):
            sizes.append(a.size)
            return partition(a, *args, **kwargs)

        monkeypatch.setattr(hcmm.problems.np, "partition", spy)
        for p in problems:
            sizes.clear()
            x = np.full(p.d, 0.01)
            p.inner_max(x)
            p.p_value(x)
            assert bool(sizes) == (p.n > hcmm.problems.SCREEN_ROWS), p.n

    def test_nan_raises_as_over_every_row(self, problems, screens,
                                          monkeypatch):
        monkeypatch.setattr(hcmm.problems, "SCREEN_ROWS", 4)
        for p in problems:
            x = np.full(p.d, 0.1)
            x[1] = np.nan
            with np.errstate(invalid="ignore"):
                with pytest.raises(ValueError) as want:
                    self.dense(p, x)
                for solve in (p.inner_max, p.p_value):
                    with pytest.raises(ValueError) as got:
                        solve(x)
                    assert str(got.value) == str(want.value)


class TestScalarHelpers:
    """The per-sample oracle's scalar `_softplus` and `_expit` have the bits
    of np.logaddexp(0, u) and scipy.special.expit(u)."""

    @staticmethod
    def scalars():
        rng = np.random.default_rng(0)
        tiny = np.nextafter(0.0, 1.0)
        edges = [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310,
                 2.2250738585072014e-308, 709.78, -709.78, 745.0, -745.0,
                 745.2, -745.2, 1e-17, -1e-17, 36.0, -37.0]
        return np.concatenate((rng.uniform(-800.0, 800.0, 20000),
                               rng.standard_normal(20000), edges))

    @pytest.mark.parametrize("name", ["_softplus", "_expit"])
    def test_bits(self, name):
        from scipy.special import expit
        vector = {"_softplus": lambda u: np.logaddexp(0.0, u),
                  "_expit": expit}[name]
        scalar = getattr(hcmm.problems, name)
        u = self.scalars()
        got = np.array([scalar(float(v)) for v in u])
        assert got.tobytes() == vector(u).tobytes()
        assert math.isnan(scalar(math.nan))
        with np.errstate(invalid="ignore"):
            assert np.isnan(vector(np.nan))
