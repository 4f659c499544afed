import dataclasses

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


def run_with_iterates(run, problem, *args, **kwargs):
    """``run(problem, ...)`` plus its iterates x_0..x_K and y_0..y_K.

    Every iteration makes one oracle call, at x_k, so a run with a known L
    (no s0 probe) and thin = 1 evaluates exactly x_0..x_K.  The oracle is
    wrapped to record each point and gradient; y_0 = x_0 and
    y_{k+1} = x_k - s_k*g_k with the step s_k of record k, the solver's own
    arithmetic, so both sequences are the solver's bit for bit.
    """
    calls = []

    def value_and_grad(x):
        f, g = problem.value_and_grad(x)
        calls.append((x.copy(), g))
        return f, g

    trace = run(dataclasses.replace(problem, value_and_grad=value_and_grad), *args, **kwargs)
    assert len(calls) == len(trace.records), "needs a known L and thin = 1"
    xs = [x for x, _ in calls]
    ys = [xs[0]] + [x - r.s * g for (x, g), r in zip(calls[:-1], trace.records)]
    return trace, xs, ys


def check_grad_fd(problem, point, step):
    """Max per-coordinate error of the gradient vs. central finite differences.

    The error in coordinate i is |g_i - fd_i| / max(1, |g_i|); the caller
    thresholds the returned maximum.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(point, dtype=float)
    g = problem.value_and_grad(x)[1]
    worst = 0.0
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        fd = (problem.value_and_grad(x + e)[0] - problem.value_and_grad(x - e)[0]) / (2.0 * step)
        worst = max(worst, abs(g[i] - fd) / max(1.0, abs(g[i])))
    return worst


def fitted_energy_contraction(trace):
    """Geometric-mean per-step contraction of the energy column.

    Fitted over the prefix where the energy stays above 1e-10 of its start
    value, so rounding noise near convergence does not pollute the fit.
    Returns None when no usable energy pair exists.
    """
    energies = [(r.k, r.energy) for r in trace.records if r.energy is not None]
    if len(energies) < 2:
        return None
    k0, e0 = energies[0]
    if e0 <= 0.0:
        return None
    last = None
    for k, e in energies[1:]:
        if e <= 1e-10 * e0:
            break
        last = (k, e)
    if last is None:
        return None
    k1, e1 = last
    return (e1 / e0) ** (1.0 / (k1 - k0))


@pytest.fixture(scope="session")
def logistic_problem():
    # session-scoped: construction runs the damped Newton reference solve
    rng = np.random.default_rng(7)
    A = rng.normal(size=(20, 5))
    y = np.where(rng.normal(size=20) < 0, -1.0, 1.0)
    return make_logistic(A, y, 0.1)
