import dataclasses
import math

import numpy as np
import pytest

import adaagm.runner
from adaagm import (
    CERTIFICATE_KINDS,
    PROFILES,
    AlgoParams,
    RateCertificate,
    Trace,
    floor_q,
    initial_D,
    make_logistic,
    make_quadratic,
    rho,
)
from adaagm.diagnostics import TOLERANCE, _require

#: Two more parameter sets from the paper, for the gamma != 1 branch of the
#: loop and the general closed forms: step floors q = 1/4 and 1/12.
COR_4_3 = AlgoParams(m=0.99, t0=2.0, gamma=0.5, beta=1.0, omega=0.0, delta=0.0)
SC_1 = AlgoParams(m=0.99, t0=2.0, gamma=0.5, beta=1.0, omega=0.5, delta=0.5)
#: The named profiles and the two sets above, convex ones first.
PARAMETER_SETS = {"cor-4.3": COR_4_3, "cor-4.4": PROFILES["cor-4.4"],
                  "sc-1": SC_1, "sc-2": PROFILES["sc-2"]}


@pytest.fixture()
def understated_L(monkeypatch):
    """``runner.run_experiment`` builds problem ``quad`` with an ``L_known`` of 1:
    on ``diag = 1 100`` the fixed-step solvers' 1/L is then 50 times too long."""
    real_build = adaagm.runner.build_problem

    def build(spec, base_dir="."):
        problem = real_build(spec, base_dir)
        return dataclasses.replace(problem, L_known=1.0) if spec.name == "quad" else problem

    monkeypatch.setattr(adaagm.runner, "build_problem", build)


def random_quadratic(dim, seed, lam_min=1e-3, lam_max=1.0, name="quad"):
    """PSD quadratic with a random eigenbasis and log-spaced spectrum."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    lam = np.logspace(np.log10(lam_min), np.log10(lam_max), dim)
    A = (Q * lam) @ Q.T
    A = 0.5 * (A + A.T)
    x_target = rng.normal(size=dim)
    return make_quadratic(A, A @ x_target, name=name)


def trace_from_rows(records, x0, algorithm="adaagm"):
    """A trace whose rows are the given ``TraceRecord``s; None becomes NaN."""
    data = np.array([dataclasses.astuple(r) for r in records], dtype=float)
    return Trace(data=data, x0=np.asarray(x0, dtype=float), algorithm=algorithm)


def run_with_iterates(run, problem, *args, **kwargs):
    """``run(problem, ...)`` plus its iterates x_0..x_K and y_0..y_K.

    Every iteration makes one oracle call, at x_k, so a run with thin = 1
    evaluates exactly x_0..x_K, plus the s0 probe's trial point right after
    x_0 when the run resolves s0 itself; that call is dropped.  The oracle
    is wrapped to record each point and gradient; y_0 = x_0 and
    y_{k+1} = x_k - s_k*g_k with the step s_k of record k, the solver's own
    arithmetic, so both sequences are the solver's bit for bit.
    """
    calls = []

    def value_and_grad(x):
        f, g = problem.value_and_grad(x)
        calls.append((x.copy(), g))
        return f, g

    trace = run(dataclasses.replace(problem, value_and_grad=value_and_grad), *args, **kwargs)
    if len(calls) == len(trace.records) + 1:
        del calls[1]  # the s0 probe
    assert len(calls) == len(trace.records), "needs thin = 1"
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


def start_values(x0, problem):
    """(f(x0) - f*, ||grad f(x0)||^2, ||x0 - x*||^2), the start values ``initial_D`` takes."""
    f0, g0 = problem.value_and_grad(x0)
    return f0 - problem.f_star, float(g0 @ g0), float(np.sum((x0 - problem.x_star) ** 2))


def certify_rows(trace, problem, params, kind):
    """``diagnostics.certify`` as a walk over the rows, one check per row.

    The reference the array form is compared against: the same constants,
    tolerances and errors, with Python's scalar arithmetic on each row.
    ``checks`` counts the rows compared.  The first row, and under
    ``params.restart`` every row with t == t0, starts a restart epoch: k
    counts from it, s0 and D are its, and energy pairs never straddle it.
    """
    if kind not in CERTIFICATE_KINDS:
        raise ValueError(f"unknown certificate kind {kind!r}")
    if not len(trace):
        raise ValueError("trace is empty")
    recs = list(trace.records)
    q = floor_q(params)
    cert = RateCertificate(kind=kind, constant_q=q)

    def check(k, lhs, rhs):
        rel = (lhs - rhs) / (1.0 + abs(rhs))
        cert.checks += 1
        if rel > TOLERANCE:
            cert.violations.append((k, lhs, rhs))
        cert.max_violation_rel = max(cert.max_violation_rel, rel)

    def epochs():
        """(row, k - k_start, index of the start row, same epoch as the previous row) per row."""
        j = None
        for i, r in enumerate(recs):
            fresh = j is None or (params.restart and r.t == params.t0)
            if fresh:
                j = i
            yield r, r.k - recs[j].k, j, not fresh

    def epoch_D(j):
        start = recs[j]
        if j == 0:
            dist_sq = float(np.sum((trace.x0 - problem.x_star) ** 2))
        elif start.dist_sq is None:
            raise ValueError(f"the restart epoch at k={start.k} carries no dist_sq")
        else:
            dist_sq = start.dist_sq
        return initial_D(max(start.gap, 0.0), start.grad_norm ** 2, dist_sq,
                         problem.L_known, params, start.s)

    cert.epochs = sum(1 for _, _, _, same in epochs() if not same)

    if kind == "sublinear":
        _require(problem, kind, "x_star", "f_star", "L_known")
        L = problem.L_known
        for r, _, j, _ in epochs():
            D = epoch_D(j)
            if j == 0:
                cert.constant_D = D
            check(r.k, r.gap, D * L / r.t ** 2)

    elif kind == "linear":
        _require(problem, kind, "x_star", "f_star", "L_known")
        _require(problem, kind, "mu_known")
        rho_val = rho(params, problem.mu_known, problem.L_known)
        cert.constant_rho = rho_val
        L = problem.L_known
        log1m = math.log1p(-rho_val)
        for r, k_rel, j, _ in epochs():
            D = epoch_D(j)
            if j == 0:
                cert.constant_D = D
            check(r.k, r.gap, D * L / r.t ** 2 * math.exp(k_rel * log1m))

    elif kind == "step_floor":
        _require(problem, kind, "L_known")
        for r, _, j, same in epochs():
            if same:  # an epoch's first row meets its own floor by construction
                check(r.k, min(recs[j].s, q / problem.L_known), r.s)

    elif kind == "step_cap":
        growth = 2.0 * (1.0 - params.m) / params.m
        for r, k_rel, j, _ in epochs():
            if k_rel < 1:
                continue
            check(r.k, r.s, recs[j].s * math.exp(growth) * k_rel ** growth)

    elif kind == "energy_monotone":
        _require(problem, kind, "x_star", "f_star")
        factor = 1.0
        if (params.omega == 0.5 and params.delta == 0.5
                and problem.mu_known > 0 and problem.L_known > 0):
            factor = 1.0 - rho(params, problem.mu_known, problem.L_known)
            cert.constant_rho = 1.0 - factor
        prev = None
        for r, _, _, same in epochs():
            if same and prev.energy is not None \
                    and r.energy is not None and r.k == prev.k + 1:
                check(r.k, r.energy, factor * prev.energy)
            prev = r

    elif kind == "grad_summable":
        total = 0.0
        partials = []
        for r, k_rel, _, _ in epochs():
            total += k_rel ** 2 * r.grad_norm ** 2
            partials.append(total)
        if total > 0.0:
            half = partials[len(partials) // 2]
            check(recs[-1].k, (total - half) / total, 0.01)

    return cert


@pytest.fixture(scope="session")
def logistic_problem():
    # session-scoped: construction runs the damped Newton reference solve
    rng = np.random.default_rng(7)
    A = rng.normal(size=(20, 5))
    y = np.where(rng.normal(size=20) < 0, -1.0, 1.0)
    return make_logistic(A, y, 0.1)
