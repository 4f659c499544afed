"""Smooth convex test problems with known constants.

Each factory returns an immutable :class:`SmoothProblem` with one oracle,
``value_and_grad``, that computes the value and the gradient from a single
matrix product.  The ground-truth constants (smoothness L,
strong-convexity modulus mu, minimizer, minimum value) are filled in
whenever they are available analytically or by a reference solve that uses
none of the solvers they grade (damped Newton for ridge logistic).  These
constants are what the diagnostics layer checks solver runs against.  An
unknown minimizer or minimum value is ``None``; an unknown L or mu is
``0.0``, so a known one is one that is ``> 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class SmoothProblem:
    """A smooth convex objective with optional ground-truth constants.

    Instances are read-only after construction and hold no mutable state,
    so they are safe to evaluate concurrently.
    """

    dimension: int
    # (f(x), grad f(x)) as a Python float and a float array
    value_and_grad: Callable[[Array], tuple[float, Array]]
    L_known: float = 0.0  # 0: no smoothness constant known
    mu_known: float = 0.0  # 0: no strong convexity known
    x_star: Optional[Array] = None
    f_star: Optional[float] = None
    name: str = "problem"


def load_matrix_csv(path) -> Array:
    """Load a dense matrix from CSV: comma-separated, one row per line, no header."""
    return np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)


def _require_finite(**arrays: Array) -> None:
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite")


def make_quadratic(matrix, offset, name: str = "quadratic") -> SmoothProblem:
    """Quadratic f(x) = 0.5 x'Ax - b'x for symmetric PSD A.

    L is the largest eigenvalue, mu the smallest; the minimizer solves
    A x = b (the minimum-norm one), all from one eigendecomposition.
    Raises ValueError for non-finite, non-symmetric or indefinite A, a
    non-finite b, or b outside the column space of A (no minimizer exists).
    """
    A = np.asarray(matrix, dtype=float)
    b = np.asarray(offset, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    n = A.shape[0]
    if b.shape != (n,):
        raise ValueError("offset length must match matrix size")
    _require_finite(matrix=A, offset=b)
    scale = 1.0 + float(np.abs(A).max(initial=0.0))
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * scale):
        raise ValueError("matrix must be symmetric")
    eigs, vecs = np.linalg.eigh(A)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    if lam_min < -1e-10 * max(1.0, lam_max):
        raise ValueError("matrix must be positive semidefinite")
    # minimum-norm solution of A x = b, with lstsq's default cutoff
    kept = np.abs(eigs) > np.finfo(float).eps * n * np.abs(eigs).max(initial=0.0)
    x_star = vecs @ np.divide(b @ vecs, eigs, out=np.zeros(n), where=kept)
    residual = np.linalg.norm(A @ x_star - b)
    if residual > 1e-8 * (1.0 + np.linalg.norm(b)):
        raise ValueError("offset is not in the column space of the matrix; "
                         "the quadratic has no minimizer")

    def value_and_grad(x: Array) -> tuple[float, Array]:
        Ax = A.dot(x)
        return 0.5 * float(x.dot(Ax)) - float(b.dot(x)), Ax - b

    return SmoothProblem(
        dimension=n, value_and_grad=value_and_grad, L_known=lam_max,
        mu_known=max(lam_min, 0.0), x_star=x_star, f_star=value_and_grad(x_star)[0], name=name,
    )


def make_log_sum_exp(rows, shifts, temperature: float,
                     name: str = "log_sum_exp") -> SmoothProblem:
    """Smoothed max f(x) = t * log sum_i exp((a_i'x + b_i) / t).

    L = sigma_max(A)^2 / (2t): the Hessian is (1/t) A'(diag(p) - pp')A with
    p the softmax, and v'(diag(p) - pp')v is the variance under p of values
    in [min v, max v], at most (max v - min v)^2 / 4 <= ||v||^2 / 2.  No
    minimizer is recorded at construction; it may not exist (e.g. a single
    affine row is unbounded below).
    """
    A = np.atleast_2d(np.asarray(rows, dtype=float))
    if A.size == 0:
        raise ValueError("rows must be nonempty")
    if not 0 < temperature < math.inf:  # also false for NaN
        raise ValueError("temperature must be positive and finite")
    b = np.asarray(shifts, dtype=float)
    if b.shape != (A.shape[0],):
        raise ValueError("shifts length must match the number of rows")
    _require_finite(rows=A, shifts=b)
    t = float(temperature)
    sigma_max = float(np.linalg.norm(A, 2))

    def value_and_grad(x: Array) -> tuple[float, Array]:
        # the shifted log-sum-exp/softmax pair of Blanchard, Higham & Higham
        # (IMA J. Numer. Anal. 41(4), 2021), sharing one normaliser
        z = (A.dot(x) + b) / t
        zmax = np.maximum.reduce(z)
        e = np.exp(z - zmax)
        total = np.add.reduce(e)
        return t * float(np.log(total) + zmax), A.T.dot(e / total)

    return SmoothProblem(
        dimension=A.shape[1], value_and_grad=value_and_grad,
        L_known=0.5 * sigma_max ** 2 / t, mu_known=0.0, name=name,
    )


def make_symmetric_log_sum_exp(rows, temperature: float,
                               name: str = "log_sum_exp_sym") -> SmoothProblem:
    """Log-sum-exp over the rows and their negations, zero shifts.

    By symmetry the origin is a minimizer, so the problem ships with an
    exact x_star and f_star = t*log(2n).  The log-sum-exp bound over
    [A; -A] gives L = sigma_max(A)^2 / t, which one row attains at the origin.
    """
    A = np.atleast_2d(np.asarray(rows, dtype=float))
    full = np.vstack([A, -A])
    prob = make_log_sum_exp(full, np.zeros(full.shape[0]), temperature, name=name)
    return replace(prob, x_star=np.zeros(prob.dimension),
                   f_star=float(temperature) * float(np.log(full.shape[0])))


def make_logistic(features, labels, ridge: float,
                  name: str = "logistic") -> SmoothProblem:
    """Ridge-regularized logistic loss over +/-1 labels.

    f(x) = sum_i log(1 + exp(-y_i a_i'x)) + (ridge/2)||x||^2 with
    L = sigma_max(A)^2/4 + ridge and mu = ridge.  When ridge > 0, the
    minimizer is computed once by a damped Newton reference solve, to
    ||grad f|| <= 1e-12 or the rounding floor above it, and frozen into the
    problem.
    """
    A = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=float)
    if y.shape != (A.shape[0],):
        raise ValueError("labels length must match the number of feature rows")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be +1 or -1")
    if not 0 <= ridge < math.inf:  # also false for NaN
        raise ValueError("ridge must be nonnegative and finite")
    _require_finite(features=A)
    ridge = float(ridge)
    sigma_max = float(np.linalg.norm(A, 2))

    def value_and_grad(x: Array) -> tuple[float, Array]:
        neg_margins = -(y * A.dot(x))
        losses = np.logaddexp(0.0, neg_margins)  # log(1 + exp(-m))
        f = float(np.add.reduce(losses)) + 0.5 * ridge * float(x.dot(x))
        # sigma(-m) = exp(-m - log(1 + exp(-m))); the exponent is <= 0
        return f, -(A.T.dot(y * np.exp(neg_margins - losses))) + ridge * x

    prob = SmoothProblem(
        dimension=A.shape[1], value_and_grad=value_and_grad,
        L_known=0.25 * sigma_max ** 2 + ridge, mu_known=ridge, name=name,
    )
    if ridge > 0:
        x_star = _newton_minimizer(prob, A, y, ridge)
        prob = replace(prob, x_star=x_star, f_star=value_and_grad(x_star)[0])
    return prob


def _newton_minimizer(problem: SmoothProblem, A: Array, y: Array, ridge: float) -> Array:
    """Damped Newton from the origin to gradient norm <= 1e-12.

    The Hessian is A' diag(w) A + ridge*I, w_i = sigma(m_i) sigma(-m_i) with
    m_i = y_i a_i'x; f and g come from the problem's own oracle.  Steps
    backtrack by Armijo on f while f resolves the Newton decrease -g'd;
    below that, a full step must lower ||g||.  When no step (down to 1e-10)
    passes, x is at the rounding floor and is returned.
    """
    x = np.zeros(problem.dimension)
    f, g = problem.value_and_grad(x)
    g_norm = np.linalg.norm(g)
    ridge_eye = ridge * np.eye(problem.dimension)
    for _ in range(100):
        if g_norm <= 1e-12:
            break
        margins = y * (A @ x)
        # sigma(m) sigma(-m) = exp(-m - 2 log(1 + exp(-m))); the exponent is <= 0
        w = np.exp(-margins - 2.0 * np.logaddexp(0.0, -margins))
        d = -np.linalg.solve((A.T * w) @ A + ridge_eye, g)
        slope = float(g @ d)
        flat = -slope <= 1e-12 * (1.0 + abs(f))
        t = 1.0
        while True:
            x_new = x + t * d
            f_new, g_new = problem.value_and_grad(x_new)
            g_norm_new = np.linalg.norm(g_new)
            if (g_norm_new < g_norm) if flat else (f_new <= f + 1e-4 * t * slope):
                break
            t *= 0.5
            if flat or t < 1e-10:
                return x
        x, f, g, g_norm = x_new, f_new, g_new, g_norm_new
    return x
