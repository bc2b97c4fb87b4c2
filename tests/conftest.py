import os

import numpy as np
import pytest
import scipy.sparse as sp

from hcmm.problems import QuadraticMinimaxProblem, RobustLogisticProblem


def join(x, y):
    """The joint vector z = (x, y) of the oracle interface."""
    return np.concatenate((x, y))


def make_sparse_rows(n, d, density=0.3, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    X = sp.random(n, d, density=density, random_state=np.random.RandomState(seed),
                  format="csr", dtype=np.float64)
    X.data = scale * rng.standard_normal(X.nnz)
    return X


def make_logistic(n=20, d=8, seed=0, **kw):
    rng = np.random.default_rng(seed)
    X = make_sparse_rows(n, d, seed=seed)
    labels = rng.choice([-1.0, 1.0], size=n)
    return RobustLogisticProblem(X, labels, **kw)


def make_quadratic(d=4, m=3, nu=1.0, seed=0, noise_sigma=0.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d))
    A = 0.5 * (A + A.T) * 0.4
    B = 0.5 * rng.standard_normal((d, m))
    return QuadraticMinimaxProblem(A, B, nu, noise_sigma=noise_sigma)


def simplex_grid_3(resolution=1e-3):
    """Rows (a, b, 1 - a - b) of a grid on the 3-simplex, in the order of a
    scan over a = 0, res, ..., 1 with an inner scan over b = 0, res, ...,
    1 - a; np.argmin/np.argmax over rows then keep the scan's first optimum.
    """
    ticks = np.arange(0.0, 1.0 + resolution / 2, resolution)
    bs = [np.arange(0.0, 1.0 - a + resolution / 2, resolution) for a in ticks]
    a = np.repeat(ticks, [len(b) for b in bs])
    b = np.concatenate(bs)
    return np.column_stack([a, b, 1.0 - a - b])


def write_libsvm(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def logistic_small():
    return make_logistic()


@pytest.fixture
def quadratic_small():
    return make_quadratic()


def dataset_dir():
    """Root for the real LIBSVM benchmark files, when available."""
    return os.environ.get("MINIMAX_DATA_DIR", "")


def find_dataset(name):
    root = dataset_dir()
    if not root:
        return None
    for candidate in (name, name + ".txt", name + ".bz2", name + ".gz"):
        p = os.path.join(root, candidate)
        if os.path.exists(p):
            return p
    return None
