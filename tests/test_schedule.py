import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaagm import (
    AlgoParams,
    NonConvexInputError,
    PROFILES,
    advance_step,
    floor_q,
    get_profile,
    init_schedule,
    local_smoothness,
    next_t,
    validate_params,
)
from adaagm.schedule import _coefficients


class TestNextT:
    def test_golden_ratio_case(self):
        # t0 = m = 1 gives the golden ratio
        assert next_t(1.0, 1.0) == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-15)

    def test_frozen_value(self):
        # root of t^2 - 0.99 t - 9 = 0 solved independently
        assert next_t(3.0, 0.99) == pytest.approx(3.535563270185312, abs=1e-15)

    @given(st.floats(1.0, 100.0), st.floats(0.01, 1.0))
    def test_recursion_identity(self, t, m):
        tn = next_t(t, m)
        assert tn * tn == pytest.approx(t * t + m * tn, rel=1e-12)

    @given(st.floats(1.0, 50.0), st.floats(0.01, 1.0))
    def test_linear_growth_bounds(self, t0, m):
        t = t0
        for k in range(1, 30):
            t = next_t(t, m)
            assert m * k / 2 + t0 <= t * (1 + 1e-12)
            assert t <= (m * k + t0) * (1 + 1e-12)


class TestFloorQ:
    def test_profile_values_exact(self):
        # the four named profiles have rational floors
        assert floor_q(PROFILES["cor-4.3"]) == pytest.approx(0.25, abs=1e-15)
        assert floor_q(PROFILES["cor-4.4"]) == pytest.approx(0.2, abs=1e-15)
        assert floor_q(PROFILES["sc-1"]) == pytest.approx(1.0 / 12.0, abs=1e-15)
        assert floor_q(PROFILES["sc-2"]) == pytest.approx(1.0 / 16.0, abs=1e-15)

    def test_requires_t0_above_one(self):
        with pytest.raises(ValueError):
            floor_q(AlgoParams(t0=1.0))

    @given(st.floats(1.5, 10.0), st.floats(0.1, 1.5), st.floats(0.1, 3.0),
           st.floats(0.0, 0.9), st.floats(0.0, 0.9))
    def test_positive(self, t0, gamma, beta, omega, delta):
        params = AlgoParams(t0=t0, gamma=gamma, beta=beta, omega=omega, delta=delta)
        assert floor_q(params) > 0.0


class TestLocalSmoothness:
    def test_scalar_quadratic_exact(self):
        # f = 0.5*L*x^2 recovers L exactly for any pair of points
        L = 7.0
        x0, x1 = np.array([2.0]), np.array([-1.5])
        est = local_smoothness(L * x1, L * x0, 0.5 * L * x1 @ x1,
                               0.5 * L * x0 @ x0, x1, x0)
        assert est == pytest.approx(L, rel=1e-14)

    def test_isotropic_quadratic_exact(self):
        c = 3.0
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=4), rng.normal(size=4)
        est = local_smoothness(c * b, c * a, 0.5 * c * b @ b, 0.5 * c * a @ a, b, a)
        assert est == pytest.approx(c, rel=1e-14)

    def test_equal_gradients_is_zero(self):
        g = np.array([1.0, 2.0])
        assert local_smoothness(g, g, 1.0, 0.5, np.zeros(2), np.ones(2)) == 0.0

    def test_tiny_negative_denominator_is_zero(self):
        # rounding-level negative denominators map to the 0/0 branch
        # identical points but f drifted up by rounding: denom = -1e-14
        g0 = np.array([1.0])
        g1 = np.array([1.0 + 1e-10])
        x = np.array([1.0])
        est = local_smoothness(g1, g0, 1.0 + 1e-14, 1.0, x, x)
        assert est == 0.0

    def test_negative_curvature_raises(self):
        with pytest.raises(NonConvexInputError):
            local_smoothness(np.array([1.0]), np.array([-1.0]), 5.0, 0.0,
                             np.array([1.0]), np.array([0.0]))

    def test_clamp_binds(self):
        # inflate the numerator so the raw ratio exceeds the clamp
        g0, g1 = np.array([0.0]), np.array([100.0])
        x0, x1 = np.array([0.0]), np.array([1.0])
        raw = local_smoothness(g1, g0, 0.0, 0.0, x1, x0)
        assert raw > 2.0
        assert local_smoothness(g1, g0, 0.0, 0.0, x1, x0, clamp=2.0) == 2.0

    def test_underflow_uses_fallback(self):
        # positive but subnormal denominator: the raw ratio would overflow
        g0, g1 = np.array([0.0]), np.array([1.0])
        x0, x1 = np.array([0.0]), np.array([1e-310])
        est = local_smoothness(g1, g0, 0.0, 0.0, x1, x0, underflow_fallback=4.0)
        assert est == 4.0

    @given(st.floats(0.1, 10.0), st.integers(0, 2 ** 32))
    @settings(max_examples=50)
    def test_never_exceeds_true_L_anisotropic(self, lam_max, seed):
        rng = np.random.default_rng(seed)
        lam = np.sort(rng.uniform(0.01, lam_max, size=3))
        a, b = rng.normal(size=3), rng.normal(size=3)
        ga, gb = lam * a, lam * b
        fa, fb = 0.5 * lam @ (a * a), 0.5 * lam @ (b * b)
        est = local_smoothness(gb, ga, fb, fa, b, a)
        assert est <= lam[-1] * (1 + 1e-9)


class TestCoefficients:
    @given(st.floats(1.2, 20.0))
    def test_A_two_forms_agree(self, t):
        # (t_next - m)/(t_next - 1) == t^2/(t_next*(t_next - 1))
        m = 0.99
        tn = next_t(t, m)
        A, _, _ = _coefficients(tn, AlgoParams(m=m))
        assert A == pytest.approx(t * t / (tn * (tn - 1.0)), rel=1e-12)

    def test_growth_factors_exceed_one_for_profiles(self):
        for params in PROFILES.values():
            tn = next_t(params.t0, params.m)
            A, B, C = _coefficients(tn, params)
            assert A > 1.0
            assert B > 1.0
            assert C > 0.0

    @given(st.sampled_from(sorted(PROFILES)), st.integers(0, 200))
    @settings(max_examples=60)
    def test_growth_factors_along_trajectory(self, name, k):
        params = PROFILES[name]
        t = params.t0
        for _ in range(k % 40):
            t = next_t(t, params.m)
        tn = next_t(t, params.m)
        A, B, _ = _coefficients(tn, params)
        assert A > 1.0 and B > 1.0


class TestAdvanceStep:
    def test_growth_when_estimate_inactive(self):
        params = PROFILES["cor-4.4"]
        state = init_schedule(params, s0=0.01)
        nxt = advance_step(state, 0.0, params)
        assert nxt.s_curr > state.s_curr
        assert nxt.t_curr == state.t_next

    def test_third_candidate_binds(self):
        params = PROFILES["cor-4.4"]
        state = init_schedule(params, s0=1.0)
        _, _, C = _coefficients(state.t_next, params)
        nxt = advance_step(state, 1e6, params)
        assert nxt.s_curr == pytest.approx(C / 1e6)

    def test_floor_holds_under_worst_case_estimates(self):
        # feed L_hat = L every step: s_k must stay >= q/L
        L = 50.0
        for name, params in PROFILES.items():
            q = floor_q(params)
            state = init_schedule(params, s0=q / L)
            for _ in range(200):
                state = advance_step(state, L, params)
                assert state.s_curr >= q / L * (1 - 1e-12), name

    def test_cap_holds_under_free_growth(self):
        # never binding the estimate lets s grow at the fastest legal rate
        params = get_profile("cor-4.4", m=0.5)
        growth = 2.0 * (1.0 - params.m) / params.m
        s0 = 0.001
        state = init_schedule(params, s0=s0)
        for k in range(1, 300):
            state = advance_step(state, 0.0, params)
            assert state.s_curr <= s0 * math.exp(growth) * k ** growth


class TestValidateParams:
    def test_profiles_valid(self):
        for params in PROFILES.values():
            report = validate_params(params, L_known=10.0)
            assert report.valid
            assert not report.failures
            assert report.q == pytest.approx(floor_q(params))
            assert report.s0_floor == pytest.approx(report.q / 10.0)

    @pytest.mark.parametrize("field,value,fragment", [
        ("m", 0.0, "m="),
        ("m", 1.5, "m="),
        ("omega", 1.0, "omega="),
        ("delta", -0.1, "delta="),
        ("beta", 0.0, "beta="),
        ("gamma", 2.0, "gamma="),
        ("t0", 0.5, "t0="),
        ("s0", -1.0, "s0="),
    ])
    def test_each_clause_fails(self, field, value, fragment):
        report = validate_params(get_profile("cor-4.4", **{field: value}))
        assert not report.valid
        assert any(fragment in f for f in report.failures)

    def test_step_growth_condition(self):
        # gamma = 1.9 with t0 = 3 gives (2/(1.9*(4/3)))*(2/3) < 1
        report = validate_params(get_profile("cor-4.4", gamma=1.9))
        assert not report.valid
        assert any("step-growth" in f for f in report.failures)

    def test_m_equal_one_warns(self):
        report = validate_params(get_profile("cor-4.4", m=1.0))
        assert report.valid
        assert any("m=1" in w for w in report.warnings)

    def test_small_s0_warns(self):
        report = validate_params(get_profile("cor-4.4", s0=1e-6), L_known=1.0)
        assert report.valid
        assert any("floor" in w for w in report.warnings)

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            get_profile("nope")
