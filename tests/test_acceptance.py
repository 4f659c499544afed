"""Acceptance suite: one check per proved guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  Every inequality is checked along full traces at the
stated tolerances; nothing is spot-checked.
"""

import math
import time

import numpy as np
import pytest

from adaagm import (
    PROFILES,
    StopCriteria,
    certify,
    floor_q,
    get_profile,
    make_logistic,
    make_quadratic,
    make_symmetric_log_sum_exp,
    rho,
    run_adaagm,
    run_nesterov,
)

from conftest import check_grad_fd, fitted_energy_contraction, run_with_iterates


def _report(criterion: int, label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion:2d} [{label}]: {status}{suffix}")
    return ok


def _zero_offset_quadratic(dim, seed, lam_min, lam_max=1.0):
    """PSD quadratic with b = 0: the minimum value is exactly zero, so the
    gap column carries no cancellation error."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    lam = np.logspace(np.log10(lam_min), np.log10(lam_max), dim)
    A = (Q * lam) @ Q.T
    return make_quadratic(0.5 * (A + A.T), np.zeros(dim), name=f"quad{seed}")


@pytest.fixture(scope="module")
def convex_suite():
    """Criterion 3/6 runs: five random 50-dim quadratics plus one symmetric
    log-sum-exp, 10^4 iterations each, convex profile."""
    params = PROFILES["cor-4.4"]
    stop = StopCriteria(max_iters=10_000, grad_tol=0.0)
    runs = []
    start = time.perf_counter()
    for seed in range(5):
        p = _zero_offset_quadratic(50, seed, lam_min=1e-3)
        rng = np.random.default_rng(100 + seed)
        runs.append((p, run_adaagm(p, params, stop, x0=rng.normal(size=50))))
    rng = np.random.default_rng(200)
    lse = make_symmetric_log_sum_exp(rng.normal(size=(10, 20)), 0.5)
    runs.append((lse, run_adaagm(lse, params, stop, x0=rng.normal(size=20))))
    elapsed = time.perf_counter() - start
    return params, runs, elapsed


def test_criterion_1_step_floor():
    p = make_quadratic(np.diag([1.0, 100.0]), np.array([1.0, 100.0]))
    params = get_profile("cor-4.4", s0=1.0 / 500.0)
    stop = StopCriteria(max_iters=10_000, grad_tol=0.0)
    start = time.perf_counter()
    trace = run_adaagm(p, params, stop, x0=np.array([5.0, -3.0]))
    elapsed = time.perf_counter() - start
    floor = 1.0 / 500.0
    min_s = min(r.s for r in trace.records)
    ok = min_s >= floor * (1.0 - 1e-12) and elapsed < 1.0
    assert _report(1, "step floor s_k >= q/L", ok,
                   f"min s={min_s:.12g}, floor={floor:.12g}, {elapsed:.2f}s")


def test_criterion_2_step_cap():
    p = make_quadratic(np.diag([1.0, 100.0]), np.array([1.0, 100.0]))
    params = get_profile("cor-4.4", m=0.5, s0=1.0 / 500.0)
    stop = StopCriteria(max_iters=10_000, grad_tol=0.0)
    trace = run_adaagm(p, params, stop, x0=np.array([5.0, -3.0]))
    cert = certify(trace, p, params, "step_cap")
    s0 = 1.0 / 500.0
    direct = all(r.s <= s0 * math.e ** 2 * r.k ** 2
                 for r in trace.records if r.k >= 1)
    ok = cert.passed and direct
    assert _report(2, "step cap s_k <= s0*e^2*k^2", ok,
                   f"violations={len(cert.violations)}")


def test_criterion_3_sublinear_certificates(convex_suite):
    params, runs, elapsed = convex_suite
    worst = 0.0
    violations = 0
    for p, trace in runs:
        cert = certify(trace, p, params, "sublinear")
        violations += len(cert.violations)
        worst = max(worst, cert.max_violation_rel)
    ok = violations == 0 and elapsed < 30.0
    assert _report(3, "sublinear gap <= D*L/t^2", ok,
                   f"6 runs, worst rel={worst:.3e}, {elapsed:.1f}s")


def test_criterion_4_floor_constants_exact():
    values = {
        "cor-4.3": 0.25,
        "cor-4.4": 0.2,
        "sc-1": 1.0 / 12.0,
        "sc-2": 1.0 / 16.0,
    }
    errs = {name: abs(floor_q(PROFILES[name]) - v) for name, v in values.items()}
    ok = all(e <= 1e-15 for e in errs.values())
    assert _report(4, "floor constants 1/4, 1/5, 1/12, 1/16", ok,
                   f"max err={max(errs.values()):.2e}")


@pytest.fixture(scope="module")
def strongly_convex_suite():
    """Criterion 5 runs: ridge logistic plus quadratics with mu/L of 1e-2
    and 1e-4, 2*10^4 iterations, strongly convex profile."""
    params = PROFILES["sc-2"]
    stop = StopCriteria(max_iters=20_000, grad_tol=0.0)
    runs = []
    for i, lam_min in enumerate((1e-2, 1e-4)):
        p = _zero_offset_quadratic(30, 40 + i, lam_min=lam_min)
        rng = np.random.default_rng(300 + i)
        runs.append((p, run_adaagm(p, params, stop, x0=rng.normal(size=30))))
    rng = np.random.default_rng(7)
    A = rng.normal(size=(20, 5))
    y = np.where(rng.normal(size=20) < 0, -1.0, 1.0)
    logistic = make_logistic(A, y, 0.1)
    runs.append((logistic, run_adaagm(logistic, params, stop,
                                      x0=rng.normal(size=5))))
    return params, runs


def test_criterion_5_linear_certificates(strongly_convex_suite):
    params, runs = strongly_convex_suite
    violations = 0
    worst = 0.0
    contraction_ok = True
    details = []
    for p, trace in runs:
        cert = certify(trace, p, params, "linear")
        violations += len(cert.violations)
        worst = max(worst, cert.max_violation_rel)
        bound = 1.0 - rho(params, p.mu_known, p.L_known)
        fitted = fitted_energy_contraction(trace)
        contraction_ok &= fitted is not None and fitted <= bound
        details.append(f"{p.name}: fitted={fitted:.6f} <= {bound:.6f}")
    ok = violations == 0 and contraction_ok
    assert _report(5, "linear gap <= D*L/t^2*(1-rho)^k", ok,
                   f"worst rel={worst:.3e}; " + "; ".join(details))


def test_criterion_6_energy_monotone(convex_suite):
    params, runs, _ = convex_suite
    violations = 0
    worst = 0.0
    for p, trace in runs:
        cert = certify(trace, p, params, "energy_monotone")
        violations += len(cert.violations)
        worst = max(worst, cert.max_violation_rel)
    ok = violations == 0
    assert _report(6, "energy E_k nonincreasing (convex)", ok,
                   f"worst rel={worst:.3e}")


def test_criterion_7_nesterov_degeneration():
    p = make_quadratic(np.diag([1.0, 100.0]), np.array([1.0, 100.0]))
    step = 1.0 / p.L_known
    stop = StopCriteria(max_iters=1000, grad_tol=0.0)
    x0 = np.array([5.0, -3.0])
    _, xs, _ = run_with_iterates(run_nesterov, p, step, stop, x0=x0)
    # classical momentum written out independently of the solver's driver
    x, y, theta = x0.copy(), x0.copy(), 1.0
    worst = 0.0
    for xk in xs:
        worst = max(worst, float(np.linalg.norm(xk - x)) / (1.0 + float(np.linalg.norm(x))))
        y_next = x - step * p.value_and_grad(x)[1]
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        x = y_next + (theta - 1.0) / theta_next * (y_next - y)
        y, theta = y_next, theta_next
    ok = len(xs) == 1001 and worst <= 1e-10
    assert _report(7, "degenerate parameters match classical momentum", ok,
                   f"worst rel diff={worst:.3e} over 10^3 iters")


def test_criterion_8_gradient_summability():
    p = _zero_offset_quadratic(20, seed=60, lam_min=0.05)
    params = PROFILES["sc-2"]
    stop = StopCriteria(max_iters=10_000, grad_tol=0.0)
    rng = np.random.default_rng(61)
    trace = run_adaagm(p, params, stop, x0=rng.normal(size=20))
    partials = np.cumsum([r.k ** 2 * r.grad_norm ** 2 for r in trace.records])
    increment = (partials[-1] - partials[len(partials) // 2]) / partials[-1]
    cert = certify(trace, p, params, "grad_summable")
    ok = increment < 0.01 and cert.passed
    assert _report(8, "sum of k^2*||grad||^2 converges", ok,
                   f"last-half increment={increment:.3e}")


def test_criterion_9_iterate_tail_cauchy():
    # finite-dimensional surrogate for iterate convergence: the tail of the
    # iterate sequence is Cauchy at scale 1e-6; this checks norm convergence
    # at desk scale, not the infinite-dimensional weak-topology statement
    params = PROFILES["sc-2"]
    stop = StopCriteria(max_iters=20_000)
    worsts = []
    rng = np.random.default_rng(70)
    problems = [
        _zero_offset_quadratic(20, seed=71, lam_min=0.05),
        make_logistic(rng.normal(size=(30, 6)),
                      np.where(rng.normal(size=30) < 0, -1.0, 1.0), 0.1),
    ]
    for p in problems:
        _, xs, _ = run_with_iterates(run_adaagm, p, params, stop,
                                     x0=rng.normal(size=p.dimension))
        x_final = xs[-1]
        tail = xs[-max(2, len(xs) // 10):]
        bound = 1e-6 * (1.0 + float(np.linalg.norm(x_final)))
        worsts.append(max(float(np.linalg.norm(x - x_final)) for x in tail) / bound)
    ok = all(w <= 1.0 for w in worsts)
    assert _report(9, "tail-Cauchy iterate convergence surrogate", ok,
                   f"worst/bound={max(worsts):.3e}")


def test_criterion_10_gradient_oracle():
    rng = np.random.default_rng(80)
    problems = [
        make_quadratic(np.diag([1.0, 100.0]), np.array([1.0, 100.0])),
        _zero_offset_quadratic(8, seed=81, lam_min=0.01),
        make_symmetric_log_sum_exp(rng.normal(size=(6, 4)), 0.7),
        make_logistic(rng.normal(size=(15, 4)),
                      np.where(rng.normal(size=15) < 0, -1.0, 1.0), 0.1),
    ]
    worst = 0.0
    for p in problems:
        for _ in range(20):
            x = rng.normal(size=p.dimension)
            worst = max(worst, check_grad_fd(p, x, 1e-5))
    ok = worst <= 1e-5
    assert _report(10, "analytic gradients match finite differences", ok,
                   f"worst rel err={worst:.3e}")
