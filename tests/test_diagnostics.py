import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaagm import (
    PROFILES,
    StopCriteria,
    certify,
    energy,
    floor_q,
    format_certificates,
    get_profile,
    initial_D,
    make_quadratic,
    phi,
    rho,
    run_adaagm,
    write_violations_csv,
)

from conftest import fitted_energy_contraction, random_quadratic, run_with_iterates


def _update(x, y, t, t_next, s, grad, gamma):
    """(x_next, y_next) produced by the solver's update rule."""
    y_next = x - s * grad
    momentum = (t - 1.0) / t_next
    correction = (gamma - 1.0) * t / t_next
    x_next = y_next + momentum * (y_next - y) + correction * (y_next - x)
    return x_next, y_next


def phi_alt(x, y, y_next, t, gamma, x_star):
    """phi's equivalent form (t_k - 1)(x_k - y_k) + gamma*t_k(y_{k+1} - x_k) + (x_k - x*)."""
    return (t - 1.0) * (x - y) + gamma * t * (y_next - x) + (x - x_star)


vec3 = st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3).map(np.array)


class TestPhi:
    @given(vec3, vec3, vec3, vec3, st.floats(1.1, 50.0), st.floats(1e-4, 1.0),
           st.floats(0.1, 1.5))
    @settings(max_examples=100)
    def test_two_forms_agree(self, x, y, grad, x_star, t, s, gamma):
        params = get_profile("cor-4.4", gamma=gamma)
        from adaagm import next_t
        t_next = next_t(t, params.m)
        x_next, y_next = _update(x, y, t, t_next, s, grad, params.gamma)
        a = phi(x_next, y_next, t_next, x_star)
        b = phi_alt(x, y, y_next, t, params.gamma, x_star)
        scale = 1.0 + np.linalg.norm(a)
        assert np.linalg.norm(a - b) <= 1e-12 * scale

    def test_initial_phi_closed_form(self):
        # with x0 = y0: phi_0 = -gamma*s0*t0*grad(x0) + (x0 - x*)
        params = PROFILES["cor-4.3"]
        from adaagm import next_t
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=3)
        grad = rng.normal(size=3)
        x_star = rng.normal(size=3)
        s0 = 0.05
        t1 = next_t(params.t0, params.m)
        x1, y1 = _update(x0, x0, params.t0, t1, s0, grad, params.gamma)
        expected = -params.gamma * s0 * params.t0 * grad + (x0 - x_star)
        assert (np.linalg.norm(phi(x1, y1, t1, x_star) - expected)
                <= 1e-12 * (1 + np.linalg.norm(expected)))


class TestEnergy:
    def test_one_dimensional_oracle(self):
        # hand-computed: phi = 2*(0.5) + (1.5 - 0) = 2.5 with the pieces below
        params = get_profile("cor-4.4", gamma=1.0, beta=0.5)
        e = energy(x_next=np.array([2.0]), y_next=np.array([1.5]),
                   grad_x=np.array([3.0]), f_x=4.0, t=2.0, t_next=2.0, s=0.25,
                   x_star=np.array([0.0]), f_star=1.0, params=params)
        # E = 0.5*2.5^2 + 0.5*0.5*1*4*0.0625*9 + 1*4*0.25*3
        expected = 0.5 * 6.25 + 0.5 * 0.5 * 4.0 * 0.0625 * 9.0 + 4.0 * 0.25 * 3.0
        assert e == pytest.approx(expected, rel=1e-15)

    def test_zero_at_minimizer(self):
        params = PROFILES["cor-4.4"]
        x_star = np.zeros(2)
        assert energy(x_next=x_star, y_next=x_star, grad_x=np.zeros(2), f_x=0.0,
                      t=3.0, t_next=3.5, s=0.1, x_star=x_star, f_star=0.0,
                      params=params) == 0.0


class TestRateConstants:
    def test_rho_frozen_values(self):
        # closed forms: sc-1 -> min(mu/(96L), mu/(48L+34mu));
        #               sc-2 -> min(mu/(64L), mu/(96L+26mu))
        mu, L = 0.5, 10.0
        assert rho(PROFILES["sc-1"], mu, L) == pytest.approx(
            min(mu / (96 * L), mu / (48 * L + 34 * mu)), rel=1e-14)
        assert rho(PROFILES["sc-2"], mu, L) == pytest.approx(
            min(mu / (64 * L), mu / (96 * L + 26 * mu)), rel=1e-14)

    def test_rho_guards(self):
        with pytest.raises(ValueError, match="mu > 0"):
            rho(PROFILES["sc-1"], 0.0, 1.0)
        with pytest.raises(ValueError, match="mu <= L"):
            rho(PROFILES["sc-1"], 2.0, 1.0)
        with pytest.raises(ValueError, match="omega"):
            rho(PROFILES["cor-4.4"], 0.5, 1.0)

    @given(st.floats(1e-6, 1.0), st.floats(1.0, 1e6))
    def test_rho_in_unit_interval(self, mu, L):
        r = rho(PROFILES["sc-2"], mu, L)
        assert 0.0 < r < 1.0

    def test_initial_D_zero_at_minimizer(self):
        p = make_quadratic(np.diag([1.0, 100.0]), np.array([1.0, 100.0]))
        params = PROFILES["cor-4.4"]
        assert initial_D(p.x_star, p, params, s0=1e-3) == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_initial_D_requires_fields(self):
        p = make_quadratic(np.diag([1.0, 100.0]), np.array([1.0, 100.0]))
        with pytest.raises(ValueError, match="s0"):
            initial_D(np.zeros(2), p, PROFILES["cor-4.4"])

    def test_min_form_is_used_when_smaller(self):
        p = make_quadratic(np.diag([1.0, 100.0]), np.array([1.0, 100.0]))
        params = PROFILES["cor-4.4"]
        x0 = np.array([5.0, -3.0])
        s0 = floor_q(params) / p.L_known
        base, tightened = initial_D(x0, p, params, s0)
        assert base > 0 and tightened > 0


@pytest.fixture(scope="module")
def convex_iterates():
    p = random_quadratic(20, seed=14)
    stop = StopCriteria(max_iters=2000, grad_tol=1e-8)
    params = PROFILES["cor-4.4"]
    trace, xs, ys = run_with_iterates(run_adaagm, p, params, stop, x0=np.full(20, 1.5))
    return p, params, trace, xs, ys


@pytest.fixture(scope="module")
def convex_run(convex_iterates):
    return convex_iterates[:3]


@pytest.fixture(scope="module")
def sc_iterates():
    # b = 0 puts the minimum value at exactly zero, so the gap column has no
    # cancellation error and the energy stays meaningful down to tiny values
    rng = np.random.default_rng(15)
    Q, _ = np.linalg.qr(rng.normal(size=(20, 20)))
    lam = np.logspace(np.log10(0.05), 0, 20)
    A = (Q * lam) @ Q.T
    p = make_quadratic(0.5 * (A + A.T), np.zeros(20))
    stop = StopCriteria(max_iters=8000, grad_tol=1e-10)
    params = PROFILES["sc-2"]
    trace, xs, ys = run_with_iterates(run_adaagm, p, params, stop, x0=np.full(20, 1.5))
    return p, params, trace, xs, ys


@pytest.fixture(scope="module")
def sc_run(sc_iterates):
    return sc_iterates[:3]


class TestCertify:
    def test_unknown_kind(self, convex_run):
        p, params, trace = convex_run
        with pytest.raises(ValueError, match="unknown certificate"):
            certify(trace, p, params, "bogus")

    def test_all_kinds_pass_on_convex_run(self, convex_run):
        p, params, trace = convex_run
        for kind in ("sublinear", "step_floor", "step_cap", "energy_monotone"):
            cert = certify(trace, p, params, kind)
            assert cert.passed, f"{kind}: worst {cert.max_violation_rel:.3e}"

    def test_all_kinds_pass_on_sc_run(self, sc_run):
        p, params, trace = sc_run
        for kind in ("sublinear", "linear", "step_floor", "step_cap",
                     "energy_monotone", "grad_summable"):
            cert = certify(trace, p, params, kind)
            assert cert.passed, f"{kind}: worst {cert.max_violation_rel:.3e}"

    @pytest.mark.parametrize("kind, run", [("sublinear", "convex_run"),
                                           ("sublinear", "sc_run"),
                                           ("linear", "sc_run")])
    def test_one_oracle_call_per_D_certificate(self, kind, run, request):
        p, params, trace = request.getfixturevalue(run)
        calls = []

        def counted(x):
            calls.append(x)
            return p.value_and_grad(x)

        cert = certify(trace, dataclasses.replace(p, value_and_grad=counted), params, kind)
        assert len(calls) == 1
        s0 = trace.records[0].s
        assert cert.constant_D == min(initial_D(trace.x0, p, params, s0))

    def test_linear_requires_mu(self, convex_run):
        _, params, trace = convex_run
        p0 = make_quadratic(np.diag([1.0, 0.0]), np.zeros(2))
        assert p0.mu_known == 0.0
        with pytest.raises(ValueError, match="mu_known"):
            certify(trace, p0, params, "linear")

    def test_violations_recorded(self, convex_run):
        p, params, trace = convex_run
        # shrink a step below the floor on a copied trace
        import copy

        bad = copy.deepcopy(trace)
        bad.records[5].s = 1e-12
        cert = certify(bad, p, params, "step_floor")
        assert not cert.passed
        assert cert.violations[0][0] == bad.records[5].k
        assert cert.max_violation_rel > 0

    def test_format_and_violations_csv(self, convex_run, tmp_path):
        p, params, trace = convex_run
        certs = [certify(trace, p, params, k) for k in ("sublinear", "step_floor")]
        text = format_certificates(certs)
        assert "kind=sublinear" in text and "PASS" in text
        path = tmp_path / "viol.csv"
        write_violations_csv(certs, path)
        assert path.read_text().splitlines()[0] == "kind,k,lhs,rhs"

    def test_energy_certificate_needs_energy(self, convex_run):
        import copy

        p, params, trace = convex_run
        stripped = copy.deepcopy(trace)
        for r in stripped.records:
            r.energy = None
        with pytest.raises(ValueError, match="energy"):
            certify(stripped, p, params, "energy_monotone")

    def test_fitted_contraction_below_guarantee(self, sc_run):
        p, params, trace = sc_run
        r = rho(params, p.mu_known, p.L_known)
        fitted = fitted_energy_contraction(trace)
        assert fitted is not None
        assert fitted <= 1.0 - r


class TestTrajectoryInvariants:
    def test_update_identity(self, convex_iterates):
        # t_{k+1}(x_{k+1}-y_{k+1}) = t_k(x_k-y_k) + gamma*t_k(y_{k+1}-x_k)
        #                            - (y_{k+1}-y_k), relative 1e-10
        p, params, trace, xs, ys = convex_iterates
        g = params.gamma
        for i in range(1, len(trace.records) - 1):
            t_k = trace.records[i].t
            t_next = trace.records[i + 1].t
            x_k, y_k = xs[i], ys[i]
            x_n, y_n = xs[i + 1], ys[i + 1]
            lhs = t_next * (x_n - y_n)
            rhs = t_k * (x_k - y_k) + g * t_k * (y_n - x_k) - (y_n - y_k)
            scale = 1.0 + np.linalg.norm(lhs)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * scale

    def test_phi_bounded_by_initial_energy(self, convex_iterates):
        # 0.5||phi_k||^2 <= E_k <= E_0, so ||phi_k|| <= sqrt(2 E_0)
        p, params, trace, xs, ys = convex_iterates
        e0 = trace.records[0].energy
        bound = math.sqrt(2.0 * e0) * (1 + 1e-9)
        for i in range(len(trace.records) - 1):
            t_next = trace.records[i + 1].t
            x_n, y_n = xs[i + 1], ys[i + 1]
            ph = t_next * (x_n - y_n) + (y_n - p.x_star)
            assert np.linalg.norm(ph) <= bound

    def test_iterates_bounded(self, convex_iterates):
        p, params, trace, xs, ys = convex_iterates
        assert np.isfinite(max(np.linalg.norm(x) for x in xs))
        assert np.isfinite(max(np.linalg.norm(y) for y in ys))

    def test_partial_sums_bounded_by_initial_energy(self, sc_run):
        # sum_j (beta*gamma^2*t_j^2*s_j^2/4)*||grad_j||^2 <= E_0
        p, params, trace = sc_run
        e0 = trace.records[0].energy
        total = 0.0
        for r in trace.records:
            total += (params.beta * params.gamma ** 2 * r.t ** 2 * r.s ** 2
                      / 4.0) * r.grad_norm ** 2
            assert total <= e0 * (1 + 1e-9)

    def test_iterate_tail_cauchy_strongly_convex(self, sc_iterates):
        p, params, trace, xs, ys = sc_iterates
        x_final = xs[-1]
        tail = xs[-max(2, len(xs) // 10):]
        bound = 1e-6 * (1.0 + np.linalg.norm(x_final))
        assert max(np.linalg.norm(x - x_final) for x in tail) <= bound

    def test_x_minus_y_vanishes_convex(self, convex_iterates):
        p, params, trace, xs, ys = convex_iterates
        early = np.linalg.norm(xs[1] - ys[1])
        late = np.linalg.norm(xs[-1] - ys[-1])
        assert late <= 1e-2 * early


class TestScaleCoherence:
    def test_certificate_constants_scale_with_units(self):
        # measuring x in units 4x with the objective rescaled so values match
        # multiplies distances by 4 and D by 16, exactly in binary arithmetic
        c = 4.0
        rng = np.random.default_rng(30)
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        lam = np.array([0.125, 0.25, 0.25, 0.5, 0.5, 1.0])
        A = (Q * lam) @ Q.T
        A = 0.5 * (A + A.T)
        target = rng.normal(size=6)
        p = make_quadratic(A, A @ target)
        p_scaled = make_quadratic(A / c ** 2, (A @ target) / c)
        params = get_profile("cor-4.4", s0=0.25)
        params_scaled = get_profile("cor-4.4", s0=0.25 * c ** 2)
        stop = StopCriteria(max_iters=400, grad_tol=0.0)
        x0 = np.ones(6)
        a, xs_a, _ = run_with_iterates(run_adaagm, p, params, stop, x0=x0)
        b, xs_b, _ = run_with_iterates(run_adaagm, p_scaled, params_scaled, stop, x0=c * x0)
        assert len(xs_a) == len(xs_b) == 401
        for xa, xb in zip(xs_a, xs_b):
            assert np.array_equal(c * xa, xb)
        ca = certify(a, p, params, "sublinear")
        cb = certify(b, p_scaled, params_scaled, "sublinear")
        assert ca.passed and cb.passed
        assert cb.constant_D == pytest.approx(c ** 2 * ca.constant_D, rel=1e-12)
        assert cb.constant_q == ca.constant_q
