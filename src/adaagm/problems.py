"""Smooth convex test problems with known constants.

Each factory returns an immutable :class:`SmoothProblem` with one oracle,
``value_and_grad``, that computes the value and the gradient from a single
matrix product.  The ground-truth constants (smoothness L,
strong-convexity modulus mu, minimizer, minimum value) are filled in
whenever they are available analytically or by a reference solve that uses
none of the solvers they grade (damped Newton for ridge logistic).  These
constants are what the diagnostics layer checks solver runs against.
"""

from __future__ import annotations

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
    L_known: Optional[float] = None
    mu_known: Optional[float] = None
    x_star: Optional[Array] = None
    f_star: Optional[float] = None
    name: str = "problem"
    # True when x_star/f_star come from a numerical reference solve rather
    # than a closed form; certificate tolerances widen accordingly.
    solution_is_reference: bool = False

    def with_minimizer(self, x_star, f_star: Optional[float] = None,
                       reference: bool = False) -> "SmoothProblem":
        """Return a copy with the minimizer fields filled in."""
        x_star = np.asarray(x_star, dtype=float)
        if x_star.shape != (self.dimension,):
            raise ValueError("minimizer has wrong dimension")
        if f_star is None:
            f_star = self.value_and_grad(x_star)[0]
        return replace(self, x_star=x_star, f_star=float(f_star),
                       solution_is_reference=reference)


def load_matrix_csv(path) -> Array:
    """Load a dense matrix from CSV: comma-separated, one row per line, no header."""
    return np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)


def make_quadratic(matrix, offset, name: str = "quadratic") -> SmoothProblem:
    """Quadratic f(x) = 0.5 x'Ax - b'x for symmetric PSD A.

    L is the largest eigenvalue, mu the smallest; the minimizer solves
    A x = b.  Raises ValueError for non-symmetric or indefinite A, or when
    b lies outside the column space of A (no minimizer exists).
    """
    A = np.asarray(matrix, dtype=float)
    b = np.asarray(offset, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    n = A.shape[0]
    if b.shape != (n,):
        raise ValueError("offset length must match matrix size")
    scale = 1.0 + float(np.abs(A).max(initial=0.0))
    if not np.allclose(A, A.T, atol=1e-12 * scale):
        raise ValueError("matrix must be symmetric")
    eigs = np.linalg.eigvalsh(A)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    if lam_min < -1e-10 * max(1.0, lam_max):
        raise ValueError("matrix must be positive semidefinite")
    x_star = np.linalg.lstsq(A, b, rcond=None)[0]
    residual = np.linalg.norm(A @ x_star - b)
    if residual > 1e-8 * (1.0 + np.linalg.norm(b)):
        raise ValueError("offset is not in the column space of the matrix; "
                         "the quadratic has no minimizer")

    def value_and_grad(x: Array) -> tuple[float, Array]:
        Ax = A @ x
        return float(0.5 * x @ Ax - b @ x), Ax - b

    prob = SmoothProblem(
        dimension=n, value_and_grad=value_and_grad,
        L_known=lam_max, mu_known=max(lam_min, 0.0), name=name,
    )
    return prob.with_minimizer(x_star)


def make_log_sum_exp(rows, shifts, temperature: float,
                     name: str = "log_sum_exp") -> SmoothProblem:
    """Smoothed max f(x) = t * log sum_i exp((a_i'x + b_i) / t).

    The smoothness constant is bounded by sigma_max(A)^2 / t.  No minimizer
    is recorded at construction; it may not exist (e.g. a single affine row
    is unbounded below).  Use ``with_minimizer`` when one is known.
    """
    A = np.asarray(rows, dtype=float)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if A.size == 0:
        raise ValueError("rows must be nonempty")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    b = np.asarray(shifts, dtype=float)
    if b.shape != (A.shape[0],):
        raise ValueError("shifts length must match the number of rows")
    t = float(temperature)
    sigma_max = float(np.linalg.norm(A, 2))

    def value_and_grad(x: Array) -> tuple[float, Array]:
        # The shifted log-sum-exp/softmax pair of Blanchard, Higham & Higham
        # (IMA J. Numer. Anal. 41(4), 2021), operation for operation as
        # scipy.special.logsumexp/softmax compute it for a real vector: the
        # m entries tied at the maximum leave the sum and come back as
        # log(m).  SciPy skips s/m when s == 0; 0/m is 0 for m >= 1, and
        # m == 0 only when z holds a NaN, which makes s NaN either way.
        z = (A @ x + b) / t
        zmax = z.max(keepdims=True)
        e = np.exp(z - zmax)
        tied = z == zmax
        m = tied.sum(keepdims=True, dtype=float)
        s = np.where(tied, 0.0, e).sum(keepdims=True) / m
        lse = np.log1p(s) + np.log(m) + zmax
        return t * float(lse[0]), A.T @ (e / e.sum())

    return SmoothProblem(
        dimension=A.shape[1], value_and_grad=value_and_grad,
        L_known=sigma_max ** 2 / t, mu_known=0.0, name=name,
    )


def make_symmetric_log_sum_exp(rows, temperature: float,
                               name: str = "log_sum_exp_sym") -> SmoothProblem:
    """Log-sum-exp over the rows and their negations, zero shifts.

    By symmetry the origin is a minimizer, so the problem ships with an
    exact x_star and f_star = t*log(2n).
    """
    A = np.asarray(rows, dtype=float)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    full = np.vstack([A, -A])
    prob = make_log_sum_exp(full, np.zeros(full.shape[0]), temperature, name=name)
    f_star = temperature * float(np.log(full.shape[0]))
    return prob.with_minimizer(np.zeros(prob.dimension), f_star)


def make_logistic(features, labels, ridge: float,
                  name: str = "logistic") -> SmoothProblem:
    """Ridge-regularized logistic loss over +/-1 labels.

    f(x) = sum_i log(1 + exp(-y_i a_i'x)) + (ridge/2)||x||^2 with
    L = sigma_max(A)^2/4 + ridge and mu = ridge.  When ridge > 0, the
    minimizer is computed once by a damped Newton reference solve and frozen
    into the problem.
    """
    A = np.asarray(features, dtype=float)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    y = np.asarray(labels, dtype=float)
    if y.shape != (A.shape[0],):
        raise ValueError("labels length must match the number of feature rows")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be +1 or -1")
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    ridge = float(ridge)
    sigma_max = float(np.linalg.norm(A, 2))

    def value_and_grad(x: Array) -> tuple[float, Array]:
        neg_margins = -(y * (A @ x))
        losses = np.logaddexp(0.0, neg_margins)  # log(1 + exp(-m))
        f = float(np.sum(losses)) + 0.5 * ridge * float(x @ x)
        # sigma(-m) = exp(-m - log(1 + exp(-m))); the exponent is <= 0
        return f, -(A.T @ (y * np.exp(neg_margins - losses))) + ridge * x

    prob = SmoothProblem(
        dimension=A.shape[1], value_and_grad=value_and_grad,
        L_known=0.25 * sigma_max ** 2 + ridge, mu_known=ridge, name=name,
    )
    if ridge > 0:
        prob = prob.with_minimizer(_newton_minimizer(prob, A, y, ridge), reference=True)
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
