import numpy as np
import pytest

from adaagm import make_logistic, make_quadratic


def random_quadratic(dim, seed, lam_min=1e-3, lam_max=1.0, name="quad"):
    """PSD quadratic with a random eigenbasis and log-spaced spectrum."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    lam = np.logspace(np.log10(lam_min), np.log10(lam_max), dim)
    A = (Q * lam) @ Q.T
    A = 0.5 * (A + A.T)
    x_target = rng.normal(size=dim)
    return make_quadratic(A, A @ x_target, name=name)


@pytest.fixture(scope="session")
def logistic_problem():
    # session-scoped: construction runs the damped Newton reference solve
    rng = np.random.default_rng(7)
    A = rng.normal(size=(20, 5))
    y = np.where(rng.normal(size=20) < 0, -1.0, 1.0)
    return make_logistic(A, y, 0.1)
