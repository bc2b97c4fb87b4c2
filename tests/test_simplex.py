import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hcmm.simplex
from hcmm.simplex import project_simplex

from conftest import simplex_grid_3


def grid_search_simplex(v, resolution=1e-3):
    """Dense search over the simplex for the closest point to v (n <= 3);
    the first minimum in scan order wins."""
    n = len(v)
    if n == 1:
        return np.array([1.0])
    if n == 2:
        ticks = np.arange(0.0, 1.0 + resolution / 2, resolution)
        W = np.column_stack([ticks, 1.0 - ticks])
    else:
        W = simplex_grid_3(resolution)
    return W[np.argmin(np.sum((W - v) ** 2, axis=1))]


class TestExamples:
    def test_feasible_point_fixed(self):
        v = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_simplex(v), v)

    def test_two_dim_kkt(self):
        np.testing.assert_allclose(project_simplex(np.array([2.0, 0.0])),
                                   np.array([1.0, 0.0]))

    def test_uniform_shift(self):
        np.testing.assert_allclose(project_simplex(np.array([0.5, 0.5, 0.5])),
                                   np.full(3, 1.0 / 3.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([]))

    def test_in_place_into_a_view(self):
        # the optimizers project the y view of a joint iterate in place
        rng = np.random.default_rng(2)
        for n in (1, 7, 500):
            z = rng.standard_normal(n + 3)
            x_before, expected = z[:3].copy(), project_simplex(z[3:])
            out = project_simplex(z[3:], out=z[3:])
            assert np.shares_memory(out, z)
            assert z[3:].tobytes() == expected.tobytes()
            assert z[:3].tobytes() == x_before.tobytes()


class TestProperties:
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=64))
    def test_feasibility(self, vals):
        w = project_simplex(np.array(vals))
        assert np.all(w >= 0)
        assert np.all(w <= 1 + 1e-12)
        assert abs(w.sum() - 1.0) <= 1e-12

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=64))
    def test_idempotent(self, vals):
        w = project_simplex(np.array(vals))
        np.testing.assert_allclose(project_simplex(w), w, atol=1e-12)

    @given(st.lists(st.floats(-20, 20), min_size=1, max_size=32),
           st.lists(st.floats(-20, 20), min_size=1, max_size=32))
    def test_nonexpansive(self, a, b):
        n = min(len(a), len(b))
        u, v = np.array(a[:n]), np.array(b[:n])
        pu, pv = project_simplex(u), project_simplex(v)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-9

    @given(st.lists(st.floats(-20, 20), min_size=2, max_size=16),
           st.randoms(use_true_random=False))
    def test_permutation_equivariant(self, vals, rnd):
        v = np.array(vals)
        perm = list(range(len(v)))
        rnd.shuffle(perm)
        perm = np.array(perm)
        np.testing.assert_allclose(project_simplex(v[perm]),
                                   project_simplex(v)[perm], atol=1e-12)

    def test_matches_grid_search_small_n(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            for _ in range(10):
                v = rng.uniform(-2, 2, size=n)
                w = project_simplex(v)
                g = grid_search_simplex(v)
                assert np.linalg.norm(w - g) <= 2e-3

    def test_bulk_random_feasibility(self):
        # large randomized sweep incl. high-dimensional inputs
        rng = np.random.default_rng(3)
        for _ in range(2000):
            n = int(rng.integers(1, 65))
            w = project_simplex(rng.uniform(-10, 10, size=n))
            assert np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-12
        for n in (1000, 10_000):
            w = project_simplex(rng.uniform(-10, 10, size=n))
            assert np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-12


def project_simplex_sort(v):
    """The sort-and-cumsum projection, as a reference: sort descending, take
    the largest k with u_k + (1 - sum_{j<=k} u_j)/k > 0, shift and clip."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    k = ks[u + (1.0 - css) / ks > 0.0][-1]
    return np.maximum(v - (css[k - 1] - 1.0) / k, 0.0)


def factorial_input(n):
    # [1, -2!, -3!, ..., -n!]: the threshold iteration drops one entry a pass
    return np.array([1.0] + [-float(math.factorial(k)) for k in range(2, n + 1)])


class TestAgainstSort:
    def assert_matches_sort(self, v):
        w = project_simplex(v)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(v))))
        assert np.max(np.abs(w - project_simplex_sort(v))) <= tol

    @pytest.mark.parametrize("n", [3, 500, 50_000])
    def test_random(self, n):
        rng = np.random.default_rng(n)
        for v in (rng.uniform(-10, 10, n), rng.standard_normal(n) / n,
                  1.0 / n + rng.exponential(1.0, n)):
            self.assert_matches_sort(v)

    def test_ties(self):
        rng = np.random.default_rng(5)
        for n in (3, 500, 50_000):
            self.assert_matches_sort(rng.integers(-3, 4, n).astype(float) / 4)

    @pytest.mark.parametrize("n", [1, 3, 500, 50_000])
    @pytest.mark.parametrize("value", [-7.0, 0.0, 1e-3, 2.5])
    def test_all_equal(self, n, value):
        self.assert_matches_sort(np.full(n, value))

    @pytest.mark.parametrize("huge", [1e6, 1e15, -1e15])
    def test_one_huge_entry(self, huge):
        v = np.random.default_rng(2).uniform(-1, 1, 500)
        v[137] = huge
        self.assert_matches_sort(v)

    @pytest.mark.parametrize("huge", [2e16, 1e17])
    def test_huge_entry_past_float_precision_rejected(self, huge):
        # tau = huge - 1 rounds to huge, so no entry stays above it
        v = np.random.default_rng(2).uniform(-1, 1, 500)
        v[137] = huge
        for u in (v, np.array([huge, 0.0, 0.0])):
            with pytest.raises(ValueError, match="lost to rounding"):
                project_simplex(u)

    def test_fallback_past_the_pass_cap(self, monkeypatch):
        calls = []
        sort_threshold = hcmm.simplex.sort_threshold
        monkeypatch.setattr(hcmm.simplex, "sort_threshold",
                            lambda u: calls.append(u.size) or sort_threshold(u))
        v = factorial_input(100)
        self.assert_matches_sort(v)
        # the sort sees only the survivors of MAX_PASSES passes
        assert calls == [100 - hcmm.simplex.MAX_PASSES]
        calls.clear()
        self.assert_matches_sort(factorial_input(hcmm.simplex.MAX_PASSES))
        self.assert_matches_sort(np.random.default_rng(0).uniform(-1, 1, 500))
        assert calls == []


def pooled_lifted(v, w):
    """v with its last entry p written out as w entries p / sqrt(w)."""
    return np.concatenate((v[:-1], np.full(w, v[-1] / math.sqrt(w))))


class TestPooled:
    """project_simplex(v, pooled=w) against the plain projection of the
    vector with the pooled rows written out."""

    def assert_matches_lifted(self, v, w):
        got = project_simplex(v.copy(), pooled=w)
        want = project_simplex(pooled_lifted(v, w))
        # the written-out rows stay equal, so they lift back exactly
        assert np.all(want[v.size - 1:] == want[-1])
        np.testing.assert_allclose(pooled_lifted(got, w), want, rtol=0,
                                   atol=1e-15)
        in_place = v.copy()
        assert project_simplex(in_place, out=in_place, pooled=w) is in_place
        assert in_place.tobytes() == got.tobytes()
        return got

    @pytest.mark.parametrize("n, w", [(5, 1), (40, 460), (600, 49400)])
    def test_pooled_entry_in_and_out_of_support(self, n, w):
        rng = np.random.default_rng(n)
        for c, spread in ((1.0 / (n + w), 1e-3 / (n + w)),   # all in
                          (1.0 / (n + w), 0.5),              # pooled out
                          (0.2, 1.0)):
            v = np.append(c + spread * rng.standard_normal(n - 1),
                          math.sqrt(w) * c)
            got = self.assert_matches_lifted(v, w)
            if spread < c:
                assert got[-1] > 0.0
        # the pooled rows alone hold the mass, or none of it
        v = np.append(np.full(n - 1, -5.0), math.sqrt(w))
        assert self.assert_matches_lifted(v, w)[-1] > 0.0
        v = np.append(np.full(n - 1, 0.5), -math.sqrt(w))
        assert self.assert_matches_lifted(v, w)[-1] == 0.0

    @pytest.mark.parametrize("n, w", [(1, 7), (3, 1), (500, 49500)])
    @pytest.mark.parametrize("value", [-7.0, 0.0, 1e-3, 2.5])
    def test_all_equal(self, n, w, value):
        v = np.append(np.full(n - 1, value), math.sqrt(w) * value)
        got = self.assert_matches_lifted(v, w)
        np.testing.assert_allclose(pooled_lifted(got, w), 1.0 / (n - 1 + w),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("huge", [2e16, 1e17])
    def test_lost_threshold_rejected(self, huge):
        v = np.random.default_rng(2).uniform(-1, 1, 50)
        v[7] = huge
        for u, w in ((v, 30), (np.array([0.0, 0.0, 2.0 * huge]), 4)):
            with pytest.raises(ValueError, match="lost to rounding"):
                project_simplex(u, pooled=w)

    def test_fallback_past_the_pass_cap(self, monkeypatch):
        calls = []
        sort_threshold = hcmm.simplex.sort_threshold
        monkeypatch.setattr(hcmm.simplex, "sort_threshold",
                            lambda u: calls.append(u.copy()) or sort_threshold(u))
        # the pooled rows (-0.5 / 3 each) are still candidates when the
        # pass cap hands over to the sort, which sees them written out
        v = np.append(factorial_input(100), -0.5)
        got = project_simplex(v.copy(), pooled=9)
        want = project_simplex_sort(pooled_lifted(v, 9))
        np.testing.assert_allclose(pooled_lifted(got, 9), want, rtol=0,
                                   atol=1e-15)
        assert len(calls) == 1
        assert np.all(calls[0][-9:] == -0.5 / 3.0)
