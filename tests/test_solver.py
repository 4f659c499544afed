import ast
import dataclasses
import gc
import inspect
import math
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaagm import (
    DivergenceError,
    PROFILES,
    StopCriteria,
    Trace,
    TraceRecord,
    certify,
    floor_q,
    make_quadratic,
    next_t,
    read_trace_csv,
    run_adaagm,
    run_gd,
    run_nesterov,
    write_trace_csv,
)

import adaagm.diagnostics
import adaagm.problems
import adaagm.schedule
import adaagm.solver
from adaagm.config import build_problem, load_config, start_point
from adaagm.diagnostics import CERTIFICATE_KINDS
from adaagm.problems import SmoothProblem
from adaagm.schedule import default_params

from conftest import PARAMETER_SETS, SC_1, random_quadratic, run_with_iterates, trace_from_rows


@pytest.fixture()
def diag_problem():
    return make_quadratic(np.diag([1.0, 100.0]), np.array([1.0, 100.0]))


X0 = np.array([5.0, -3.0])


class TestStepResolution:
    def test_s0_from_known_L(self, diag_problem):
        # g0 = (4, 0.04) points mostly along the flat axis: the probe sees
        # L_hat(x0) = ||H g0||^2 / g0'H g0 = 32/16.16, about L/50, and a
        # known L no longer overrides it with q/L
        params = PROFILES["cor-4.4"]
        x0 = np.array([5.0, 1.0004])
        s0 = run_adaagm(diag_problem, params, StopCriteria(max_iters=1), x0=x0).records[0].s
        assert s0 == pytest.approx(floor_q(params) * 16.16 / 32.0, rel=1e-6)
        assert s0 > 40.0 * floor_q(params) / diag_problem.L_known
        # the same probe as with L unknown, since L_hat(x0) < L leaves the cap idle
        blind = dataclasses.replace(diag_problem, L_known=0.0, mu_known=0.0)
        assert run_adaagm(blind, params, StopCriteria(max_iters=1), x0=x0).records[0].s == s0

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(2, 12), seed=st.integers(0, 2 ** 16),
           log_cond=st.floats(0.0, 6.0), log_L=st.floats(-3.0, 3.0),
           x0_scale=st.floats(1e-3, 1e3), name=st.sampled_from([*PARAMETER_SETS, "default"]))
    def test_probed_s0_never_below_q_over_L(self, dim, seed, log_cond, log_L, x0_scale, name):
        L = 10.0 ** log_L
        p = random_quadratic(dim, seed, lam_min=L / 10.0 ** log_cond, lam_max=L)
        params = default_params(p) if name == "default" else PARAMETER_SETS[name]
        x0 = x0_scale * np.random.default_rng(seed).standard_normal(dim)
        s0 = run_adaagm(p, params, StopCriteria(max_iters=1), x0=x0).records[0].s
        # No cap: the bound is the one f's rounding leaves.  On a quadratic,
        # ||dg||^2 = dx'A^2 dx <= L*dx'A dx = 2*L*D_f exactly, so the ratio
        # 0.5*||dg||^2/D_f is <= L.  The probe divides by the computed
        # denominator D instead, which differs from D_f by f's rounding, and
        # r = 64*eps*(|f0| + |f1|) is the band's own measure of it.  Above
        # the band (D > r), L_hat <= L*D_f/D <= L*(D + r)/D, so
        # s0 = q/L_hat >= (q/L)/(1 + r/D) >= (q/L)*(1 - r/D).
        f0, g0 = p.value_and_grad(x0)
        x1 = x0 - 1e-4 * (1.0 + np.linalg.norm(x0)) * g0 / np.linalg.norm(g0)
        f1, g1 = p.value_and_grad(x1)
        D = float(g1.dot(x1 - x0)) - (f1 - f0)
        r = 64 * 2.0 ** -52 * (abs(f0) + abs(f1))
        assert D > r  # the probe's step keeps r/D below 4e-6 on these problems
        assert s0 >= floor_q(params) / p.L_known * (1.0 - r / D)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="L_hat > L just above the rounding band: the probe's s0 falls "
                              "1.7 times the allowance short of q/L (ROADMAP item 2)")
    def test_probed_s0_counterexample(self):
        # the instance of test_probed_s0_never_below_q_over_L at dim=2, seed=1499,
        # log_cond=5, log_L=0, x0_scale=10 with cor-4.3, replayed every run: x0
        # lies near the 1e-5 eigenvector, and s0 = 0.24999999963880176 is short
        # of q/L = 0.25 by 1.44e-9 of it where r/D allows 8.3e-10
        dim, seed = 2, 1499
        L = 10.0 ** 0.0
        p = random_quadratic(dim, seed, lam_min=L / 10.0 ** 5.0, lam_max=L)
        params = PARAMETER_SETS["cor-4.3"]
        x0 = 10.0 * np.random.default_rng(seed).standard_normal(dim)
        s0 = run_adaagm(p, params, StopCriteria(max_iters=1), x0=x0).records[0].s
        f0, g0 = p.value_and_grad(x0)
        x1 = x0 - 1e-4 * (1.0 + np.linalg.norm(x0)) * g0 / np.linalg.norm(g0)
        f1, g1 = p.value_and_grad(x1)
        D = float(g1.dot(x1 - x0)) - (f1 - f0)
        r = 64 * 2.0 ** -52 * (abs(f0) + abs(f1))
        assert D > r
        assert s0 >= floor_q(params) / p.L_known * (1.0 - r / D)

    @pytest.mark.parametrize("name", ["quad", "lse", "logit"])
    def test_probed_s0_never_below_q_over_L_on_demo_problems(self, name):
        config = load_config(DEMO)
        p_idx = next(i for i, p in enumerate(config.problems) if p.name == name)
        problem = build_problem(config.problems[p_idx])
        # the demo's own cell start points, seeds 0..7
        starts = [start_point(config, p_idx, s_idx, seed, problem.dimension)
                  for s_idx in range(len(config.solvers)) for seed in range(8)]
        for params in [*PARAMETER_SETS.values(), default_params(problem)]:
            for x0 in starts:
                s0 = run_adaagm(problem, params, StopCriteria(max_iters=1), x0=x0).records[0].s
                assert s0 >= floor_q(params) / problem.L_known * (1.0 - 1e-12)

    def test_probe_without_curvature_starts_from_one(self):
        # a linear objective: the probe's gradients agree, so L_hat(x0) = 0,
        # and a known L does not enter
        c = np.array([1.0, -2.0])
        linear = SmoothProblem(2, lambda x: (float(c.dot(x)), c.copy()), L_known=0.5)
        params = PROFILES["cor-4.4"]
        stop = StopCriteria(max_iters=1)
        assert run_adaagm(linear, params, stop, x0=np.ones(2)).records[0].s == 1.0
        blind = dataclasses.replace(linear, L_known=0.0)
        assert run_adaagm(blind, params, stop, x0=np.ones(2)).records[0].s == 1.0

    def test_s0_explicit(self, diag_problem):
        # far below q/L, and no warning: step_floor grades against min(s0, q/L)
        params = dataclasses.replace(PROFILES["cor-4.4"], s0=1e-3)
        trace = run_adaagm(diag_problem, params, StopCriteria(max_iters=1), x0=X0)
        assert trace.records[0].s == 1e-3

    def test_s0_probe_when_L_unknown(self, diag_problem):
        blind = dataclasses.replace(diag_problem, L_known=0.0, mu_known=0.0)
        params = PROFILES["cor-4.4"]
        trace = run_adaagm(blind, params, StopCriteria(max_iters=1), x0=X0)
        # the probe's estimate never exceeds the true L, so s0 >= q/L
        assert trace.records[0].s >= floor_q(params) / 100.0 * (1 - 1e-12)

    def test_invalid_params_rejected(self, diag_problem):
        with pytest.raises(ValueError, match="invalid parameters"):
            run_adaagm(diag_problem, dataclasses.replace(PROFILES["cor-4.4"], gamma=1.9), x0=X0)

    def test_m_one_warns(self, diag_problem):
        with pytest.warns(UserWarning, match="m=1 disables step growth") as record:
            run_adaagm(diag_problem, dataclasses.replace(PROFILES["cor-4.4"], m=1.0),
                       StopCriteria(max_iters=1), x0=X0)
        assert len(record) == 1
        assert record[0].filename == __file__


class TestStopping:
    def test_max_iters(self, diag_problem):
        trace = run_adaagm(diag_problem, stop=StopCriteria(max_iters=17), x0=X0)
        assert trace.records[-1].k == 17
        assert len(trace) == 18

    def test_grad_tol(self, diag_problem):
        stop = StopCriteria(max_iters=10 ** 6, grad_tol=1e-6)
        trace = run_adaagm(diag_problem, stop=stop, x0=X0)
        assert trace.records[-1].grad_norm <= 1e-6
        assert trace.records[-2].grad_norm > 1e-6

    def test_zero_grad_tol_never_fires(self, diag_problem):
        stop = StopCriteria(max_iters=50, grad_tol=0.0)
        trace = run_adaagm(diag_problem, stop=stop, x0=X0)
        assert trace.records[-1].k == 50

    def test_start_at_minimizer(self, diag_problem):
        trace = run_adaagm(diag_problem, x0=diag_problem.x_star)
        assert trace.records[-1].k == 0
        assert trace.records[0].grad_norm == 0.0

    @pytest.mark.parametrize("field,value,fragment", [
        ("max_iters", 0, "max_iters must be positive"),
        ("max_iters", -5, "max_iters must be positive"),
        ("grad_tol", -1.0, "grad_tol must be a non-negative number"),
        ("grad_tol", float("nan"), "grad_tol must be a non-negative number"),
        ("grad_tol", math.inf, "grad_tol must be a non-negative number and finite"),
    ])
    def test_invalid_criteria_rejected(self, field, value, fragment):
        with pytest.raises(ValueError, match=fragment):
            StopCriteria(**{field: value})


class TestThinning:
    def test_thin_keeps_every_nth_and_last(self, diag_problem):
        # plus the first row of every restart epoch
        stop = StopCriteria(max_iters=25, grad_tol=0.0)
        trace = run_adaagm(diag_problem, stop=stop, x0=X0, thin=10)
        dense = run_adaagm(diag_problem, stop=stop, x0=X0)
        starts = {r.k for r in dense.records if r.t == dense.records[0].t}
        assert starts - {0}
        assert [r.k for r in trace.records] == sorted({0, 10, 20, 25} | starts)

    def test_thin_one_is_dense(self, diag_problem):
        stop = StopCriteria(max_iters=5, grad_tol=0.0)
        trace = run_adaagm(diag_problem, stop=stop, x0=X0, thin=1)
        assert [r.k for r in trace.records] == [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("thin", [0, -3])
    def test_non_positive_thin_rejected(self, diag_problem, thin):
        stop = StopCriteria(max_iters=5)
        for run in (lambda: run_adaagm(diag_problem, stop=stop, x0=X0, thin=thin),
                    lambda: run_nesterov(diag_problem, 0.01, stop, X0, thin=thin),
                    lambda: run_gd(diag_problem, 0.01, stop, X0, thin=thin)):
            with pytest.raises(ValueError, match="thin"):
                run()


class TestConvergence:
    def test_adaagm_reaches_tolerance(self, diag_problem):
        stop = StopCriteria(max_iters=10000, grad_tol=1e-9)
        trace = run_adaagm(diag_problem, PROFILES["cor-4.4"], stop=stop, x0=X0)
        assert trace.records[-1].k < 10000
        assert trace.records[-1].gap <= 1e-12

    def test_beats_gradient_descent_at_moderate_budget(self, diag_problem):
        stop = StopCriteria(max_iters=300, grad_tol=0.0)
        fast = run_adaagm(diag_problem, PROFILES["cor-4.4"], stop=stop, x0=X0)
        slow = run_gd(diag_problem, step=1.0 / diag_problem.L_known, stop=stop, x0=X0)
        assert fast.records[-1].gap < slow.records[-1].gap

    def test_strongly_convex_profile_linear_tail(self):
        p = random_quadratic(10, seed=2, lam_min=0.1, lam_max=1.0)
        stop = StopCriteria(max_iters=8000, grad_tol=1e-12)
        trace = run_adaagm(p, PROFILES["sc-2"], stop=stop, x0=np.ones(10))
        assert trace.records[-1].k < 8000
        assert trace.records[-1].gap <= 1e-12 * (1.0 + abs(p.f_star))

    def test_gap_never_negative_beyond_rounding(self):
        for seed in range(3):
            p = random_quadratic(12, seed=seed)
            stop = StopCriteria(max_iters=500, grad_tol=0.0)
            trace = run_adaagm(p, stop=stop, x0=np.full(12, 2.0))
            floor = -1e-12 * (1.0 + abs(p.f_star))
            assert all(r.gap >= floor for r in trace.records)

    def test_t_column_follows_recursion(self, diag_problem):
        stop = StopCriteria(max_iters=40, grad_tol=0.0)
        trace = run_adaagm(diag_problem, stop=stop, x0=X0)
        params = default_params(diag_problem)  # the params the run resolved
        for prev, curr in zip(trace.records, trace.records[1:]):
            if curr.t != params.t0:  # t0 starts a restart epoch
                assert curr.t == pytest.approx(next_t(prev.t, params.m), rel=1e-14)

    def test_L_estimates_never_exceed_L(self, diag_problem):
        stop = StopCriteria(max_iters=3000, grad_tol=1e-10)
        trace = run_adaagm(diag_problem, stop=stop, x0=X0)
        assert max(r.L_est for r in trace.records) <= diag_problem.L_known

    @given(st.integers(0, 2 ** 32), st.sampled_from(["cor-4.3", "cor-4.4", "sc-1", "sc-2"]))
    @settings(max_examples=15, deadline=None)
    def test_step_floor_property(self, seed, profile):
        p = random_quadratic(6, seed=seed, lam_min=0.05)
        params = PARAMETER_SETS[profile]
        stop = StopCriteria(max_iters=300, grad_tol=1e-11)
        rng = np.random.default_rng(seed)
        trace = run_adaagm(p, params, stop=stop, x0=rng.normal(size=6))
        floor = floor_q(params) / p.L_known
        assert min(r.s for r in trace.records) >= floor * (1 - 1e-12)


class TestDivergence:
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_gd_huge_step_raises_with_iteration(self, diag_problem):
        with pytest.warns(UserWarning, match="2/L"):
            with pytest.raises(DivergenceError) as info:
                run_gd(diag_problem, step=10.0,
                       stop=StopCriteria(max_iters=10000), x0=X0)
        assert info.value.k > 0

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_forced_constant_step_can_diverge(self, diag_problem):
        with pytest.warns(UserWarning, match="1/L"):
            with pytest.raises(DivergenceError):
                run_nesterov(diag_problem, 10.0, StopCriteria(max_iters=10000), x0=X0)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_finite_check_sees_entries_not_the_norm(self):
        # g.g overflows to inf on a finite gradient: not a divergence; a NaN
        # entry is one, at the iteration where it appears
        def oracle(bad):
            return lambda x: (0.0, np.array([1e200, bad if x[0] < 0.5 else 1e200]))
        stop = StopCriteria(max_iters=3, grad_tol=0.0)
        trace = run_gd(SmoothProblem(2, oracle(1e200)), 1e-300, stop, x0=np.ones(2))
        assert [r.grad_norm for r in trace.records] == [math.inf] * 4
        with pytest.raises(DivergenceError) as info:
            run_gd(SmoothProblem(2, oracle(np.nan)), 1e-200, stop, x0=np.ones(2))
        assert info.value.k == 1

    def test_adaptive_run_does_not_diverge_from_huge_s0(self, diag_problem):
        # the schedule pulls an oversized s0 back under control
        params = dataclasses.replace(PROFILES["cor-4.4"], s0=1.0)
        stop = StopCriteria(max_iters=5000, grad_tol=1e-9)
        trace = run_adaagm(diag_problem, params, stop=stop, x0=X0)
        assert trace.records[-1].gap <= 1e-6
        assert trace.records[-1].gap < trace.records[0].gap * 1e-8


class TestBaselines:
    def test_gd_one_step_identity_quadratic(self):
        # x1 = x0 - s*(x0 - 0) with A = I, b = 0
        p = make_quadratic(np.eye(2), np.zeros(2))
        trace = run_gd(p, step=0.5, stop=StopCriteria(max_iters=1, grad_tol=0.0),
                       x0=np.array([2.0, -4.0]))
        assert np.allclose(trace.x_final, [1.0, -2.0])

    @pytest.mark.parametrize("step", [0.0, -0.5, float("nan"), float("inf"), -float("inf")])
    def test_step_must_be_positive_and_finite(self, diag_problem, step):
        for run in (run_gd, run_nesterov):
            with pytest.raises(ValueError, match="step must be a positive finite number"):
                run(diag_problem, step, StopCriteria(max_iters=5), x0=X0)

    def test_nesterov_warns_above_one_over_L(self, diag_problem):
        with pytest.warns(UserWarning, match="1/L"):
            run_nesterov(diag_problem, step=0.02,
                         stop=StopCriteria(max_iters=2), x0=X0)

    def test_nesterov_theta_column(self, diag_problem):
        trace = run_nesterov(diag_problem, step=0.01,
                             stop=StopCriteria(max_iters=3, grad_tol=0.0), x0=X0)
        ts = [r.t for r in trace.records]
        assert ts[0] == 1.0
        assert ts[1] == pytest.approx(next_t(1.0, 1.0))

    def test_degenerate_parameters_recover_nesterov(self, diag_problem):
        # the driver's fixed rule at m=1, t0=1, gamma=1 is the textbook
        # momentum loop, bit for bit
        step = 1.0 / diag_problem.L_known
        stop = StopCriteria(max_iters=200, grad_tol=0.0)
        _, xs, _ = run_with_iterates(run_nesterov, diag_problem, step, stop, x0=X0)
        assert len(xs) == 201
        x, y, theta = X0.copy(), X0.copy(), 1.0
        for xk in xs:
            assert np.array_equal(xk, x)
            y_next = x - step * diag_problem.value_and_grad(x)[1]
            theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
            x = y_next + (theta - 1.0) / theta_next * (y_next - y)
            y, theta = y_next, theta_next

    def test_gd_is_textbook_loop(self, diag_problem):
        # the fixed rule at m=0 keeps t=1, so the momentum term vanishes
        step = 1.0 / diag_problem.L_known
        stop = StopCriteria(max_iters=200, grad_tol=0.0)
        trace, xs, _ = run_with_iterates(run_gd, diag_problem, step, stop, x0=X0)
        assert len(xs) == 201
        assert all(r.t == 1.0 and r.L_est is None for r in trace.records)
        x = X0.copy()
        for xk in xs:
            assert np.array_equal(xk, x)
            x = x - step * diag_problem.value_and_grad(x)[1]

    def test_final_iterate_at_thinned_stop(self, diag_problem):
        stop = StopCriteria(max_iters=37, grad_tol=0.0)
        thinned = run_adaagm(diag_problem, stop=stop, x0=X0, thin=10)
        assert thinned.records[-1].k == 37
        assert np.array_equal(thinned.x_final, run_adaagm(diag_problem, stop=stop, x0=X0).x_final)


class TestRecordedIterates:
    """The test helper's iterates, rebuilt from the oracle calls of a run."""

    @pytest.mark.parametrize("run, args, gamma", [
        (run_adaagm, (SC_1,), 0.5),
        (run_nesterov, (0.01,), 1.0),
        (run_gd, (0.01,), 1.0),
    ], ids=["adaagm-sc-1", "nesterov", "gd"])
    def test_iterates_match_the_run(self, diag_problem, run, args, gamma):
        stop = StopCriteria(max_iters=37, grad_tol=0.0)
        trace, xs, ys = run_with_iterates(run, diag_problem, *args, stop, X0)
        assert trace.records[-1].k == 37
        assert len(xs) == len(ys) == trace.records[-1].k + 1
        assert np.array_equal(xs[-1], trace.x_final)
        # t_{k+1}(x_{k+1}-y_{k+1}) = t_k(x_k-y_k) + gamma*t_k(y_{k+1}-x_k) - (y_{k+1}-y_k)
        ts = [r.t for r in trace.records]
        for k in range(len(xs) - 1):
            lhs = ts[k + 1] * (xs[k + 1] - ys[k + 1])
            rhs = (ts[k] * (xs[k] - ys[k]) + gamma * ts[k] * (ys[k + 1] - xs[k])
                   - (ys[k + 1] - ys[k]))
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1.0 + np.linalg.norm(lhs))


class TestScaleCoherence:
    def test_scaling_objective_by_four_is_exact(self):
        # f -> 4f with s -> s/4 reproduces the iterates bitwise: every extra
        # factor is a power of two
        p = random_quadratic(5, seed=9, lam_min=0.125, lam_max=1.0)
        A4 = None  # rebuild the scaled problem from the same data
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        lam = np.logspace(np.log10(0.125), 0, 5)
        A = 0.5 * ((Q * lam) @ Q.T + ((Q * lam) @ Q.T).T)
        x_target = rng.normal(size=5)
        p4 = make_quadratic(4.0 * A, 4.0 * (A @ x_target))
        s = 0.125
        stop = StopCriteria(max_iters=100, grad_tol=0.0)
        params = dataclasses.replace(PROFILES["cor-4.4"], s0=s)
        params4 = dataclasses.replace(PROFILES["cor-4.4"], s0=s / 4.0)
        _, xa, _ = run_with_iterates(run_adaagm, p, params, stop, x0=np.ones(5))
        _, xb, _ = run_with_iterates(run_adaagm, p4, params4, stop, x0=np.ones(5))
        assert len(xa) == len(xb) == 101
        for a, b in zip(xa, xb):
            assert np.array_equal(a, b)


class TestCsv:
    def test_roundtrip(self, tmp_path, diag_problem):
        stop = StopCriteria(max_iters=30, grad_tol=0.0)
        trace = run_adaagm(diag_problem, stop=stop, x0=X0)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert back.algorithm == "adaagm"
        assert np.array_equal(back.x0, trace.x0)
        assert list(back.records) == list(trace.records)  # every field, exactly

    def test_traces_compare_by_identity(self, diag_problem):
        # a generated == would compare the x0 arrays and raise
        stop = StopCriteria(max_iters=3, grad_tol=0.0)
        trace = run_adaagm(diag_problem, stop=stop, x0=X0)
        again = run_adaagm(diag_problem, stop=stop, x0=X0)
        assert trace == trace
        assert (trace == again) is False and (trace != again) is True

    @pytest.mark.parametrize("name", ["quad", "lse", "logit"])
    def test_committed_trace_rewrites_to_its_own_bytes(self, tmp_path, name):
        # restart epochs, dist_sq and an empty last energy, all read and
        # formatted back digit for digit
        path = os.path.join(DATA, f"format2_default_{name}.csv")
        write_trace_csv(read_trace_csv(path), tmp_path / "again.csv")
        with open(path, "rb") as fh:
            assert (tmp_path / "again.csv").read_bytes() == fh.read()

    def test_overflowed_estimate_roundtrips(self, tmp_path):
        # a pair whose secant overflows gives L_hat = inf and s = 0: both are
        # values, written as such, where NaN stands for no value
        trace = trace_from_rows([TraceRecord(0, 1.0, 2.0, 0.5, 1.0, 0.0, 3.0),
                                 TraceRecord(1, 1.0, 2.0, 0.0, 1.5, math.inf)], X0)
        path = tmp_path / "inf.csv"
        write_trace_csv(trace, path)
        assert path.read_text().splitlines()[-1] == "1,1,2,0,1.5,inf,,"
        back = read_trace_csv(path)
        assert list(back.records) == list(trace.records)
        assert back.records[1].L_est == math.inf and back.records[1].s == 0.0

    def test_header_shape(self, tmp_path, diag_problem):
        trace = run_adaagm(diag_problem, stop=StopCriteria(max_iters=2), x0=X0)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        data_start = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[0] == "# format = 2"
        assert lines[data_start] == "k,gap,grad_norm,s,t,L_est,energy,dist_sq"

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# x0 = 0\nk,gap,grad_norm,s,t,L_est,energy\n1,2,3\n")
        with pytest.raises(ValueError, match="malformed"):
            read_trace_csv(path)

    HEAD2 = "# format = 2\n# x0 = 0\nk,gap,grad_norm,s,t,L_est,energy,dist_sq\n"
    HEAD1 = "# x0 = 0\nk,gap,grad_norm,s,t,L_est,energy\n"

    @pytest.mark.parametrize("text", [
        HEAD2 + "0,1,1,1,1,1,1,\n1,1,1,1,1,1,1\n",  # seven fields under format 2
        HEAD1 + "0,1,1,1,1,1,1\n1,1,1,1,1,1,1,\n",  # eight fields under format 1
    ], ids=["format2-seven", "format1-eight"])
    def test_row_width_comes_from_the_format(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="^malformed trace row: '1,"):
            read_trace_csv(path)

    @pytest.mark.parametrize("ks", [["5", "2"], ["0", "0"], ["0", "1.5"], ["0", ""]],
                             ids=["decreasing", "repeated", "fraction", "empty"])
    def test_k_must_be_a_strictly_increasing_integer(self, tmp_path, ks):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEAD2 + "".join(f"{k},1,1,1,1,1,1,\n" for k in ks))
        with pytest.raises(ValueError, match="^malformed trace row 2: k = "):
            read_trace_csv(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "future.csv"
        path.write_text("# format = 3\n# x0 = 0\nk,gap,grad_norm,s,t,L_est,energy,dist_sq\n")
        with pytest.raises(ValueError, match="format '3'"):
            read_trace_csv(path)

    def test_missing_x0_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("k,gap,grad_norm,s,t,L_est,energy\n0,1,1,1,1,1,\n")
        with pytest.raises(ValueError, match="x0"):
            read_trace_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# format = 2\n# x0 = 0\nk,gap,grad_norm,s,t,L_est,energy,dist_sq\n")
        with pytest.raises(ValueError, match="has no rows"):
            read_trace_csv(path)

    def test_record_has_no_instance_dict(self):
        rec = TraceRecord(0, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert not hasattr(rec, "__dict__")
        assert dataclasses.astuple(rec) == (0, 1.0, 1.0, 1.0, 1.0, 1.0, None, None)

    def test_read_back_rows_hold_little_beyond_their_values(self, tmp_path):
        # trace replay holds a second copy of every trace, read back from the
        # file: a row is eight float64 values, 64 bytes, where one record
        # with its float objects took about 275 bytes on CPython 3.11.  The
        # read parses into the array without a float object per field held,
        # so its peak stays well below the records' footprint too
        problem = make_quadratic(np.diag(np.logspace(-4.0, 0.0, 5)), np.ones(5))
        trace = run_adaagm(problem, stop=StopCriteria(max_iters=3000, grad_tol=0.0),
                           x0=np.zeros(5))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        gc.collect()
        tracemalloc.start()
        try:
            back = read_trace_csv(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = len(back)
        assert rows == 3001
        assert held / rows <= 80
        assert peak / rows <= 160

    def test_none_fields_roundtrip(self, tmp_path):
        trace = trace_from_rows([TraceRecord(k=0, gap=None, grad_norm=1.0, s=None,
                                             t=None, L_est=None, energy=None)],
                                np.array([1.0]), "gd")
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        r = back.records[0]
        assert r.gap is None and r.s is None and r.t is None
        assert r.grad_norm == 1.0


def _dense_quadratic(seed, n=500, cond=1e2, gen=None):
    """A rotated quadratic with log-spaced spectrum in [1, cond], as the
    dense-oracle benchmark workload builds its ``dquad`` problem (from
    ``default_rng([seed, 1])`` unless ``gen`` is given)."""
    gen = np.random.default_rng([seed, 1]) if gen is None else gen
    Q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    A = (Q * np.logspace(0.0, np.log10(cond), n)) @ Q.T
    return make_quadratic(0.5 * (A + A.T), gen.standard_normal(n), name="dquad")


class TestDefaultProfile:
    def test_paper_profiles_at_half_m(self, diag_problem):
        convex = make_quadratic(np.diag([0.0, 1.0]), np.array([0.0, 1.0]))
        cases = [(diag_problem, "sc-2"), (convex, "cor-4.4")]
        for problem, name in cases:
            params = default_params(problem)
            assert params == dataclasses.replace(PROFILES[name], m=0.5, restart=True)
            assert floor_q(params) == floor_q(PROFILES[name])
        assert not any(p.restart for p in PROFILES.values())

    def test_fewer_iterations_than_sc2_on_ill_conditioned_quadratic(self):
        # condition number 1e3: at m = 0.99 the step creeps up from q/L
        p = random_quadratic(40, seed=0, lam_min=1e-3, lam_max=1.0)
        stop = StopCriteria(max_iters=15_000, grad_tol=1e-9)
        fast = run_adaagm(p, default_params(p), stop, x0=np.ones(40))
        slow = run_adaagm(p, PROFILES["sc-2"], stop, x0=np.ones(40))
        assert fast.records[-1].grad_norm <= 1e-9
        assert fast.records[-1].k < slow.records[-1].k

    @pytest.mark.parametrize("seed", [3, 17])
    def test_certificates_pass_at_thin_one_on_dense_quadratic(self, seed):
        # thin = 1, so energy_monotone compares every adjacent pair
        p = _dense_quadratic(seed)
        params = default_params(p)
        x0 = 2.0 * np.random.default_rng(seed).standard_normal(p.dimension)
        trace = run_adaagm(p, params, StopCriteria(max_iters=20_000, grad_tol=1e-9), x0)
        assert trace.records[-1].grad_norm <= 1e-9
        for kind in CERTIFICATE_KINDS:  # all apply: mu > 0, x*, f* and L known
            cert = certify(trace, p, params, kind)
            assert cert.passed, (kind, cert.violations[:3])
            assert cert.checks > 0 and cert.epochs > 1
        # the step grows past 1/L
        assert max(r.s for r in trace.records) * p.L_known > 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cond_1e6_quadratic_converges_without_raising(self, seed):
        # g.dx and df cancel below f's rounding here; the curvature estimate
        # falls back to the secant instead of calling the input non-convex
        p = _dense_quadratic(seed, n=60, cond=1e6)
        x0 = 2.0 * np.random.default_rng(seed).standard_normal(p.dimension)
        stop = StopCriteria(max_iters=100_000, grad_tol=1e-9)
        params = default_params(p)
        trace = run_adaagm(p, params, stop, x0, thin=1000)
        assert trace.records[-1].grad_norm <= 1e-9
        # the run reads no L: hiding it changes no record, and the hidden-L
        # run, graded with the true L, keeps its step floor and rate
        blind = dataclasses.replace(p, L_known=0.0)
        hidden = run_adaagm(blind, params, stop, x0, thin=1000)
        assert [dataclasses.astuple(r) for r in hidden.records] == \
            [dataclasses.astuple(r) for r in trace.records]
        for kind in ("step_floor", "sublinear"):
            cert = certify(hidden, p, params, kind)
            assert cert.passed and cert.checks > 0, (kind, cert.violations[:3])

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 2: L_hat > L just above the rounding band; on rows whose "
        "D is a few times the band's upper edge the computed D undercuts "
        "0.5<dg,dx>, L_hat/L reaches 2.3 and 5.4, and the step falls below q/L"))
    def test_cond_1e6_quadratic_keeps_its_step_floor_at_thin_one(self):
        # instances drawn from default_rng(seed) instead of [seed, 1]: at
        # thin 1, seeds 3 and 5 break step_floor on 212 and 157 rows
        failing = {}
        for seed in (3, 5):
            p = _dense_quadratic(seed, n=60, cond=1e6, gen=np.random.default_rng(seed))
            x0 = 2.0 * np.random.default_rng(seed).standard_normal(p.dimension)
            params = default_params(p)
            trace = run_adaagm(p, params, StopCriteria(max_iters=100_000, grad_tol=1e-9), x0)
            cert = certify(trace, p, params, "step_floor")
            assert cert.checks > 0
            if not cert.passed:
                failing[seed] = len(cert.violations)
        assert not failing, failing


def test_fallbacks_count_the_loops_band_iterations(diag_problem, monkeypatch):
    # every flag local_smoothness returns inside the loop, not the s0 probe's
    flags = []
    estimate = adaagm.solver.local_smoothness

    def recorded(*args, **kwargs):
        L_hat, fallback = estimate(*args, **kwargs)
        flags.append(fallback)
        return L_hat, fallback

    monkeypatch.setattr(adaagm.solver, "local_smoothness", recorded)
    stop = StopCriteria(max_iters=5000, grad_tol=1e-12)
    trace = run_adaagm(diag_problem, default_params(diag_problem), stop, X0, thin=10)
    assert len(flags) == trace.records[-1].k + 1
    assert 0 < trace.fallbacks == sum(flags[1:]) < trace.records[-1].k
    assert run_nesterov(diag_problem, 0.01, stop, X0).fallbacks == 0


DATA = os.path.join(os.path.dirname(__file__), "data")
DEMO = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.ini")


class TestRestart:
    """Adaptive restart: only ``profile = default`` restarts."""

    @pytest.mark.parametrize("name", ["cor-4.4", "sc-2", "nesterov"])
    def test_named_profiles_and_nesterov_keep_their_traces(self, diag_problem, name):
        # the committed format-1 files were written before restart existed,
        # and the adaptive ones from s0 = q/L, which the run is now given
        old = read_trace_csv(os.path.join(DATA, f"format1_{name}.csv"))
        stop = StopCriteria(max_iters=40, grad_tol=0.0)
        if name == "nesterov":
            new = run_nesterov(diag_problem, 0.01, stop, X0)
        else:
            params = PROFILES[name]
            params = dataclasses.replace(params, s0=floor_q(params) / diag_problem.L_known)
            new = run_adaagm(diag_problem, params, stop, X0)
        assert old.algorithm == new.algorithm and np.array_equal(old.x0, new.x0)
        assert [dataclasses.astuple(r) for r in old.records] == \
            [dataclasses.astuple(r) for r in new.records]
        assert all(r.dist_sq is None for r in old.records)
        assert all(a.t < b.t for a, b in zip(new.records, new.records[1:]))

    @pytest.mark.parametrize("name", ["quad", "lse", "logit"])
    def test_default_profile_keeps_its_demo_traces(self, name):
        # the demo's seed-0 `agm` cells, written at thinning 10 from the s0
        # of their first row (q/L of the constants they were written with):
        # pins every column of the restarting loop and all three oracles bit
        # for bit
        old = read_trace_csv(os.path.join(DATA, f"format2_default_{name}.csv"))
        config = load_config(DEMO)
        problem = build_problem(next(p for p in config.problems if p.name == name))
        stop = StopCriteria(max_iters=20_000, grad_tol=1e-9)
        params = dataclasses.replace(default_params(problem), s0=old.records[0].s)
        new = run_adaagm(problem, params, stop, old.x0, thin=10)
        assert [dataclasses.astuple(r) for r in old.records] == \
            [dataclasses.astuple(r) for r in new.records]
        # epoch starts off the thinning grid, each with its dist_sq
        assert any(r.k % 10 and r.dist_sq is not None for r in old.records)

    def test_epoch_starts_recorded_when_thinned(self, diag_problem):
        stop = StopCriteria(max_iters=400, grad_tol=1e-12)
        params = default_params(diag_problem)
        dense = run_adaagm(diag_problem, params, stop, X0)
        thinned = run_adaagm(diag_problem, params, stop, X0, thin=10)
        starts = [r for r in dense.records if r.t == params.t0]
        assert len(starts) > 2 and any(r.k % 10 for r in starts)
        by_k = {r.k: r for r in thinned.records}
        for r in starts:
            assert by_k[r.k] == r
        assert {r.k for r in thinned.records} == \
            {r.k for r in dense.records if r.k % 10 == 0} | {r.k for r in starts} \
            | {dense.records[-1].k}
        # ||z - x*||^2 on every epoch start after the first, and nowhere else
        assert [r.k for r in dense.records if r.dist_sq is not None] == \
            [r.k for r in starts[1:]]

    def test_epoch_is_a_fresh_run_from_its_start(self, diag_problem):
        params = default_params(diag_problem)
        stop = StopCriteria(max_iters=300, grad_tol=0.0)
        trace, xs, ys = run_with_iterates(run_adaagm, diag_problem, params, stop, X0)
        starts = [i for i, r in enumerate(trace.records) if r.t == params.t0]
        assert len(starts) > 2
        for a, b in zip(starts[1:], starts[2:]):
            start = trace.records[a]
            z = xs[a]
            assert np.array_equal(z, ys[a])  # no extrapolation into the epoch
            dz = z - diag_problem.x_star
            assert start.dist_sq == float(dz @ dz)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a carried step may sit below q/L
                fresh = run_adaagm(diag_problem, dataclasses.replace(params, s0=start.s),
                                   StopCriteria(max_iters=b - a, grad_tol=0.0), z)
            for own, new in zip(trace.records[a:b + 1], fresh.records):
                assert (own.k - start.k, own.gap, own.grad_norm, own.s, own.t) == \
                    (new.k, new.gap, new.grad_norm, new.s, new.t)
                if own.k < trace.records[b].k:
                    assert own.energy == new.energy
            # the fresh run restarts where the epoch ends
            assert fresh.records[-1].t == params.t0

    def test_only_default_restarts_and_on_the_gradient_test(self, diag_problem):
        stop = StopCriteria(max_iters=300, grad_tol=0.0)
        for params in PARAMETER_SETS.values():
            trace = run_adaagm(diag_problem, params, stop, X0)
            assert [r.k for r in trace.records if r.t == params.t0] == [0]
        params = default_params(diag_problem)
        trace, xs, ys = run_with_iterates(run_adaagm, diag_problem, params, stop, X0)
        fired = [r.k - 1 for r in trace.records[1:] if r.t == params.t0]
        tested = [k for k in range(len(xs) - 1)
                  if diag_problem.value_and_grad(xs[k])[1] @ (ys[k + 1] - ys[k]) > 0.0]
        assert len(fired) > 2 and fired == tested


@pytest.mark.parametrize("module,outer,inner", [
    (adaagm.solver, "_iterate", None),
    (adaagm.schedule, "local_smoothness", None),
    (adaagm.diagnostics, "energy", None),
    (adaagm.diagnostics, "phi", None),
    (adaagm.problems, "make_quadratic", "value_and_grad"),
    (adaagm.problems, "make_log_sum_exp", "value_and_grad"),
    (adaagm.problems, "make_logistic", "value_and_grad"),
])
def test_per_iteration_code_uses_no_matmul_operator(module, outer, inner):
    # `a @ b` goes through matmul's gufunc dispatch, about 0.4 us per call
    # slower than `a.dot(b)` on these small arrays, for the same BLAS result
    tree = ast.parse(inspect.getsource(module))
    [node] = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == outer]
    if inner is not None:
        [node] = [n for n in ast.walk(node) if isinstance(n, ast.FunctionDef) and n.name == inner]
    assert not any(isinstance(n, ast.MatMult) for n in ast.walk(node))
