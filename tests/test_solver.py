import dataclasses
import math

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
    get_profile,
    make_quadratic,
    next_t,
    read_trace_csv,
    run_adaagm,
    run_gd,
    run_nesterov,
    write_trace_csv,
)

from adaagm.diagnostics import CERTIFICATE_KINDS
from adaagm.problems import SmoothProblem
from adaagm.schedule import default_params

from conftest import random_quadratic, run_with_iterates


@pytest.fixture()
def diag_problem():
    return make_quadratic(np.diag([1.0, 100.0]), np.array([1.0, 100.0]))


X0 = np.array([5.0, -3.0])


class TestStepResolution:
    def test_s0_from_known_L(self, diag_problem):
        params = PROFILES["cor-4.4"]
        trace = run_adaagm(diag_problem, params, StopCriteria(max_iters=1), x0=X0)
        assert trace.records[0].s == pytest.approx(floor_q(params) / 100.0)

    def test_s0_explicit(self, diag_problem):
        params = get_profile("cor-4.4", s0=1e-3)
        with pytest.warns(UserWarning, match="below the floor"):
            trace = run_adaagm(diag_problem, params, StopCriteria(max_iters=1), x0=X0)
        assert trace.records[0].s == 1e-3

    def test_s0_probe_when_L_unknown(self, diag_problem):
        blind = dataclasses.replace(diag_problem, L_known=None, mu_known=None)
        params = PROFILES["cor-4.4"]
        trace = run_adaagm(blind, params, StopCriteria(max_iters=1), x0=X0)
        # the probe's estimate never exceeds the true L, so s0 >= q/L
        assert trace.records[0].s >= floor_q(params) / 100.0 * (1 - 1e-12)

    def test_invalid_params_rejected(self, diag_problem):
        with pytest.raises(ValueError, match="invalid parameters"):
            run_adaagm(diag_problem, get_profile("cor-4.4", gamma=1.9), x0=X0)

    def test_s0_below_floor_warns(self):
        p = make_quadratic(np.diag([1.0, 10.0]), np.array([1.0, 10.0]))
        with pytest.warns(UserWarning, match="below the floor q/L") as record:
            run_adaagm(p, get_profile("cor-4.4", s0=1e-6), StopCriteria(max_iters=1), x0=X0)
        assert len(record) == 1
        assert record[0].filename == __file__

    def test_m_one_warns(self, diag_problem):
        with pytest.warns(UserWarning, match="m=1 disables step growth") as record:
            run_adaagm(diag_problem, get_profile("cor-4.4", m=1.0),
                       StopCriteria(max_iters=1), x0=X0)
        assert len(record) == 1


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

    def test_gap_tol(self, diag_problem):
        stop = StopCriteria(max_iters=10 ** 6, grad_tol=0.0, gap_tol=1e-8)
        trace = run_adaagm(diag_problem, stop=stop, x0=X0)
        assert trace.records[-1].gap <= 1e-8

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
        ("gap_tol", -1e-3, "gap_tol must be a non-negative number"),
        ("gap_tol", float("nan"), "gap_tol must be a non-negative number"),
    ])
    def test_invalid_criteria_rejected(self, field, value, fragment):
        with pytest.raises(ValueError, match=fragment):
            StopCriteria(**{field: value})


class TestThinning:
    def test_thin_keeps_every_nth_and_last(self, diag_problem):
        stop = StopCriteria(max_iters=25, grad_tol=0.0)
        trace = run_adaagm(diag_problem, stop=stop, x0=X0, thin=10)
        assert [r.k for r in trace.records] == [0, 10, 20, 25]

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
        m = default_params(diag_problem).m  # the params the run resolved
        for prev, curr in zip(trace.records, trace.records[1:]):
            assert curr.t == pytest.approx(next_t(prev.t, m), rel=1e-14)

    def test_L_estimates_never_exceed_L(self, diag_problem):
        stop = StopCriteria(max_iters=3000, grad_tol=1e-10)
        trace = run_adaagm(diag_problem, stop=stop, x0=X0)
        assert max(r.L_est for r in trace.records) <= diag_problem.L_known

    @given(st.integers(0, 2 ** 32), st.sampled_from(["cor-4.3", "cor-4.4", "sc-1", "sc-2"]))
    @settings(max_examples=15, deadline=None)
    def test_step_floor_property(self, seed, profile):
        p = random_quadratic(6, seed=seed, lam_min=0.05)
        params = PROFILES[profile]
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
        params = get_profile("cor-4.4", s0=1.0)
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
        assert all(r.t is None and r.L_est is None for r in trace.records)
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
        (run_adaagm, (get_profile("sc-1"),), 0.5),
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
        ts = [1.0 if r.t is None else r.t for r in trace.records]
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
        params = get_profile("cor-4.4", s0=s)
        params4 = get_profile("cor-4.4", s0=s / 4.0)
        with pytest.warns(UserWarning, match="below the floor"):
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
        assert len(back.records) == len(trace.records)
        for a, b in zip(trace.records, back.records):
            assert a.k == b.k
            for name in ("gap", "grad_norm", "s", "t", "L_est", "energy"):
                va, vb = getattr(a, name), getattr(b, name)
                assert va == vb or (va is None and vb is None)

    def test_header_shape(self, tmp_path, diag_problem):
        trace = run_adaagm(diag_problem, stop=StopCriteria(max_iters=2), x0=X0)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        data_start = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[data_start] == "k,gap,grad_norm,s,t,L_est,energy"

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# x0 = 0\nk,gap,grad_norm,s,t,L_est,energy\n1,2,3\n")
        with pytest.raises(ValueError, match="malformed"):
            read_trace_csv(path)

    def test_missing_x0_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("k,gap,grad_norm,s,t,L_est,energy\n0,1,1,1,1,1,\n")
        with pytest.raises(ValueError, match="x0"):
            read_trace_csv(path)

    def test_none_fields_roundtrip(self, tmp_path):
        trace = Trace(records=[TraceRecord(k=0, gap=None, grad_norm=1.0, s=None,
                                           t=None, L_est=None, energy=None)],
                      x0=np.array([1.0]), algorithm="gd")
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        r = back.records[0]
        assert r.gap is None and r.s is None and r.t is None
        assert r.grad_norm == 1.0


def _dense_quadratic(seed, n=500, cond=1e2):
    """A rotated quadratic with log-spaced spectrum in [1, cond], as the
    dense-oracle benchmark workload builds its ``dquad`` problem."""
    gen = np.random.default_rng([seed, 1])
    Q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    A = (Q * np.logspace(0.0, np.log10(cond), n)) @ Q.T
    return make_quadratic(0.5 * (A + A.T), gen.standard_normal(n), name="dquad")


class TestDefaultProfile:
    def test_paper_profiles_at_half_m(self, diag_problem):
        convex = make_quadratic(np.diag([0.0, 1.0]), np.array([0.0, 1.0]))
        cases = [(diag_problem, "sc-2"), (convex, "cor-4.4")]
        for problem, name in cases:
            params = default_params(problem)
            assert params == dataclasses.replace(PROFILES[name], m=0.5)
            assert floor_q(params) == floor_q(PROFILES[name])

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
        # the step grows past 1/L
        assert max(r.s for r in trace.records) * p.L_known > 1.0
