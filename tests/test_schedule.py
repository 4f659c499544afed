import math
from dataclasses import replace

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
    local_smoothness,
    next_t,
    validate_params,
)
from adaagm.schedule import _coefficients

from conftest import COR_4_3, PARAMETER_SETS, SC_1


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
        # the two named profiles and the two test sets have rational floors
        assert floor_q(COR_4_3) == pytest.approx(0.25, abs=1e-15)
        assert floor_q(PROFILES["cor-4.4"]) == pytest.approx(0.2, abs=1e-15)
        assert floor_q(SC_1) == pytest.approx(1.0 / 12.0, abs=1e-15)
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
        g1 = L * x1
        est, fallback = local_smoothness(g1, L * x0, 0.5 * L * x1 @ x1,
                                         0.5 * L * x0 @ x0, x1, x0, g1 @ g1)
        assert est == pytest.approx(L, rel=1e-14) and not fallback

    def test_isotropic_quadratic_exact(self):
        c = 3.0
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=4), rng.normal(size=4)
        gb = c * b
        est, fallback = local_smoothness(gb, c * a, 0.5 * c * b @ b, 0.5 * c * a @ a, b, a,
                                         gb @ gb)
        assert est == pytest.approx(c, rel=1e-14) and not fallback

    def test_equal_gradients_is_zero(self):
        g = np.array([1.0, 2.0])
        assert local_smoothness(g, g, 1.0, 0.5, np.zeros(2), np.ones(2), g @ g) == (0.0, False)

    def test_tiny_negative_denominator_is_zero(self):
        # identical points but f drifted up by rounding: denom = -1e-14 lies
        # in the band, and with dx = 0 the secant carries no information
        g0 = np.array([1.0])
        g1 = np.array([1.0 + 1e-10])
        x = np.array([1.0])
        assert local_smoothness(g1, g0, 1.0 + 1e-14, 1.0, x, x, g1 @ g1) == (0.0, True)

    def test_negative_curvature_raises(self):
        with pytest.raises(NonConvexInputError):
            local_smoothness(np.array([1.0]), np.array([-1.0]), 5.0, 0.0,
                             np.array([1.0]), np.array([0.0]), 1.0)

    def test_cancelled_denominator_falls_back_to_gradients(self):
        # f = 0.5*x'Hx + c with f's change swamped by a large c: the computed
        # denominator is negative, but inside sqrt(eps)*(|f|+|f|)
        H = np.array([2.0, 8.0])
        x0, x1 = np.array([1e-3, 0.0]), np.array([0.0, 1e-3])
        g0, g1 = H * x0, H * x1
        c = 1e6
        f0 = 0.5 * H @ (x0 * x0) + c
        f1 = 0.5 * H @ (x1 * x1) + c + 1e-5  # an error of 1e-11*|f| in f
        assert float(g1 @ (x1 - x0)) - (f1 - f0) < -1e-12 * (abs(f1) + abs(f0) + 1.0)
        dg, dx = g1 - g0, x1 - x0
        est, fallback = local_smoothness(g1, g0, f1, f0, x1, x0, g1 @ g1)
        # the secant ||dg||/||dx||, here sqrt(68)/sqrt(2) = 5.83 <= L = 8
        assert est == pytest.approx(math.sqrt(dg @ dg / (dx @ dx)), rel=1e-14) and fallback
        assert est <= H.max()

    def test_cancelled_denominator_without_monotone_gradients_uses_the_secant(self):
        # <dg, dx> < 0, which no convex f allows: the secant needs no inner
        # product, so it still reads the gradients' change
        g0, g1 = np.array([1e-9, 0.0]), np.array([0.0, 1e-9])
        x0, x1 = np.zeros(2), np.array([1e-3, 0.0])
        est, fallback = local_smoothness(g1, g0, 1.0 + 1e-11, 1.0, x1, x0, g1 @ g1)
        assert fallback and est == pytest.approx(math.sqrt(2.0) * 1e-6, rel=1e-14)

    @staticmethod
    def _quadratic_pair(H, x0, x1, c, denom):
        """f = 0.5*x'diag(H)x + c at x0, and f at x1 moved so that the
        computed denominator is ``denom``; returns the arguments and dx."""
        g0, g1 = H * x0, H * x1
        f0 = 0.5 * H.dot(x0 * x0) + c
        f1 = f0 + (float(g1.dot(x1 - x0)) - denom)
        assert float(g1.dot(x1 - x0)) - (f1 - f0) == pytest.approx(denom, rel=0.05)
        return (g1, g0, f1, f0, x1, x0, g1.dot(g1)), x1 - x0

    def test_positive_denominator_inside_the_band_uses_the_secant(self):
        # true D_f = 5e-6, but f = 1e6 + ... is off by 1e-8, and the computed
        # D = 1e-8 lies inside f's rounding 64*eps*2e6 = 2.8e-8: its ratio
        # 0.5*||dg||^2/D = 3400 would be 425 times L = 8
        H = np.array([2.0, 8.0])
        args, dx = self._quadratic_pair(H, np.array([1e-3, 0.0]), np.array([0.0, 1e-3]),
                                        1e6, 1e-8)
        est, fallback = local_smoothness(*args)
        hdx = H * dx
        assert fallback and est < H.max()
        assert est == pytest.approx(math.sqrt(hdx.dot(hdx) / dx.dot(dx)), rel=1e-9)

    def test_positive_denominator_above_f_rounding_keeps_the_ratio(self):
        # D = 1e-6 is above f's rounding 2.8e-8, though far below
        # sqrt(eps)*2e6 = 0.03, the raise threshold of a negative D
        H = np.array([2.0, 8.0])
        args, _ = self._quadratic_pair(H, np.array([1e-3, 0.0]), np.array([0.0, 1e-3]),
                                       1e6, 1e-6)
        dg = args[0] - args[1]
        est, fallback = local_smoothness(*args)
        assert not fallback
        assert est == pytest.approx(0.5 * dg.dot(dg) / 1e-6, rel=1e-3)

    def test_subnormal_denominator_takes_the_secant(self):
        # f = 0 on both sides puts the band's upper edge at 0, and D = 1e-310
        # is subnormal: the paper's ratio 0.5/1e-310 overflows to inf, which
        # would set the step to C/inf = 0
        g0, g1 = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        x0, x1 = np.array([0.0, 0.0]), np.array([1e-310, 1.0])
        assert local_smoothness(g1, g0, 0.0, 0.0, x1, x0, g1 @ g1) == (1.0, True)

    def test_negative_denominator_just_inside_the_band_uses_the_secant(self):
        # f near 0, so tau = 1e-12*(1 + |f_next| + |f_prev|), just above 1e-12
        H = np.array([2.0, 8.0])
        args, dx = self._quadratic_pair(H, np.array([1e-4, 0.0]), np.array([0.0, 1e-4]),
                                        0.0, -0.9e-12)
        est, fallback = local_smoothness(*args)
        hdx = H * dx
        assert fallback and est == pytest.approx(math.sqrt(hdx.dot(hdx) / dx.dot(dx)), rel=1e-9)

    def test_negative_denominator_just_beyond_the_band_raises(self):
        H = np.array([2.0, 8.0])
        args, _ = self._quadratic_pair(H, np.array([1e-4, 0.0]), np.array([0.0, 1e-4]),
                                       0.0, -1.1e-12)
        with pytest.raises(NonConvexInputError):
            local_smoothness(*args)

    def test_negative_curvature_beyond_rounding_raises(self):
        # the same pair as the cancellation test, but f rose by 1 > sqrt(eps)*2e6
        H = np.array([2.0, 8.0])
        x0, x1 = np.array([1e-3, 0.0]), np.array([0.0, 1e-3])
        with pytest.raises(NonConvexInputError):
            local_smoothness(H * x1, H * x0, 1e6 + 1.0, 1e6, x1, x0, (H * x1) @ (H * x1))

    @given(st.floats(0.1, 10.0), st.integers(0, 2 ** 32))
    @settings(max_examples=50)
    def test_never_exceeds_true_L_anisotropic(self, lam_max, seed):
        rng = np.random.default_rng(seed)
        lam = np.sort(rng.uniform(0.01, lam_max, size=3))
        a, b = rng.normal(size=3), rng.normal(size=3)
        ga, gb = lam * a, lam * b
        fa, fb = 0.5 * lam @ (a * a), 0.5 * lam @ (b * b)
        est, _ = local_smoothness(gb, ga, fb, fa, b, a, gb @ gb)
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
        for params in PARAMETER_SETS.values():
            tn = next_t(params.t0, params.m)
            A, B, C = _coefficients(tn, params)
            assert A > 1.0
            assert B > 1.0
            assert C > 0.0

    @given(st.sampled_from(sorted(PARAMETER_SETS)), st.integers(0, 200))
    @settings(max_examples=60)
    def test_growth_factors_along_trajectory(self, name, k):
        params = PARAMETER_SETS[name]
        t = params.t0
        for _ in range(k % 40):
            t = next_t(t, params.m)
        tn = next_t(t, params.m)
        A, B, _ = _coefficients(tn, params)
        assert A > 1.0 and B > 1.0


class TestAdvanceStep:
    def test_growth_when_estimate_inactive(self):
        params = PROFILES["cor-4.4"]
        assert advance_step(next_t(params.t0, params.m), 0.01, 0.0, params) > 0.01

    def test_third_candidate_binds(self):
        params = PROFILES["cor-4.4"]
        t1 = next_t(params.t0, params.m)
        _, _, C = _coefficients(t1, params)
        assert advance_step(t1, 1.0, 1e6, params) == pytest.approx(C / 1e6)

    def test_floor_holds_under_worst_case_estimates(self):
        # feed L_hat = L every step: s_k must stay >= q/L
        L = 50.0
        for name, params in PARAMETER_SETS.items():
            q = floor_q(params)
            t, s = params.t0, q / L
            for _ in range(200):
                t = next_t(t, params.m)
                s = advance_step(t, s, L, params)
                assert s >= q / L * (1 - 1e-12), name

    def test_cap_holds_under_free_growth(self):
        # never binding the estimate lets s grow at the fastest legal rate
        params = replace(PROFILES["cor-4.4"], m=0.5)
        growth = 2.0 * (1.0 - params.m) / params.m
        s0 = 0.001
        t, s = params.t0, s0
        for k in range(1, 300):
            t = next_t(t, params.m)
            s = advance_step(t, s, 0.0, params)
            assert s <= s0 * math.exp(growth) * k ** growth


class TestValidateParams:
    def test_profiles_valid(self):
        for name, params in PARAMETER_SETS.items():
            assert validate_params(params) == []
            # any positive s0 is valid: step_floor grades against min(s0, q/L)
            assert validate_params(replace(params, s0=1e-6)) == []

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
        with pytest.raises(ValueError, match="invalid parameters") as exc:
            validate_params(replace(PROFILES["cor-4.4"], **{field: value}))
        assert f"{fragment}{value}" in str(exc.value)

    def test_every_failed_clause_is_named(self):
        with pytest.raises(ValueError) as exc:
            validate_params(replace(PROFILES["cor-4.4"], m=0.0, omega=1.0, s0=-1.0))
        assert str(exc.value) == ("invalid parameters: m=0.0 must lie in (0, 1]; "
                                  "omega=1.0 must lie in [0, 1); s0=-1.0 must be positive")

    def test_step_growth_condition(self):
        # gamma = 1.9 with t0 = 3 gives (2/(1.9*(4/3)))*(2/3) < 1
        with pytest.raises(ValueError, match="step-growth"):
            validate_params(replace(PROFILES["cor-4.4"], gamma=1.9))

    def test_m_equal_one_warns(self):
        warnings = validate_params(replace(PROFILES["cor-4.4"], m=1.0))
        assert any("m=1" in w for w in warnings)
