import copy
import dataclasses
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaagm import (
    CERTIFICATE_KINDS,
    PROFILES,
    StopCriteria,
    certify,
    default_params,
    energy,
    floor_q,
    format_certificates,
    initial_D,
    make_quadratic,
    phi,
    rho,
    run_adaagm,
    write_violations_csv,
)
from adaagm.config import build_problem, load_config
from adaagm.rng import XorShift64Star, cell_seed
from adaagm.runner import certify_cell
from adaagm.solver import TraceRows, read_trace_csv

from conftest import (
    COR_4_3,
    SC_1,
    certify_rows,
    fitted_energy_contraction,
    random_quadratic,
    run_with_iterates,
    start_values,
    trace_from_rows,
)


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


TESTS = os.path.dirname(__file__)
DEMO = os.path.join(TESTS, "..", "configs", "benchmark.ini")

vec3 = st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3).map(np.array)


class TestPhi:
    @given(vec3, vec3, vec3, vec3, st.floats(1.1, 50.0), st.floats(1e-4, 1.0),
           st.floats(0.1, 1.5))
    @settings(max_examples=100)
    def test_two_forms_agree(self, x, y, grad, x_star, t, s, gamma):
        params = dataclasses.replace(PROFILES["cor-4.4"], gamma=gamma)
        from adaagm import next_t
        t_next = next_t(t, params.m)
        x_next, y_next = _update(x, y, t, t_next, s, grad, params.gamma)
        a = phi(x_next, y_next, t_next, x_star)
        b = phi_alt(x, y, y_next, t, params.gamma, x_star)
        scale = 1.0 + np.linalg.norm(a)
        assert np.linalg.norm(a - b) <= 1e-12 * scale

    def test_initial_phi_closed_form(self):
        # with x0 = y0: phi_0 = -gamma*s0*t0*grad(x0) + (x0 - x*)
        params = COR_4_3
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
        params = dataclasses.replace(PROFILES["cor-4.4"], gamma=1.0, beta=0.5)
        e = energy(x_next=np.array([2.0]), y_next=np.array([1.5]),
                   grad_sq=9.0, f_x=4.0, t=2.0, t_next=2.0, s=0.25,
                   x_star=np.array([0.0]), f_star=1.0, params=params)
        # E = 0.5*2.5^2 + 0.5*0.5*1*4*0.0625*9 + 1*4*0.25*3
        expected = 0.5 * 6.25 + 0.5 * 0.5 * 4.0 * 0.0625 * 9.0 + 4.0 * 0.25 * 3.0
        assert e == pytest.approx(expected, rel=1e-15)

    def test_zero_at_minimizer(self):
        params = PROFILES["cor-4.4"]
        x_star = np.zeros(2)
        assert energy(x_next=x_star, y_next=x_star, grad_sq=0.0, f_x=0.0,
                      t=3.0, t_next=3.5, s=0.1, x_star=x_star, f_star=0.0,
                      params=params) == 0.0


class TestRateConstants:
    def test_rho_frozen_values(self):
        # closed forms: sc-1 -> min(mu/(96L), mu/(48L+34mu));
        #               sc-2 -> min(mu/(64L), mu/(96L+26mu))
        mu, L = 0.5, 10.0
        assert rho(SC_1, mu, L) == pytest.approx(
            min(mu / (96 * L), mu / (48 * L + 34 * mu)), rel=1e-14)
        assert rho(PROFILES["sc-2"], mu, L) == pytest.approx(
            min(mu / (64 * L), mu / (96 * L + 26 * mu)), rel=1e-14)

    def test_rho_guards(self):
        with pytest.raises(ValueError, match="mu > 0"):
            rho(SC_1, 0.0, 1.0)
        with pytest.raises(ValueError, match="mu <= L"):
            rho(SC_1, 2.0, 1.0)
        with pytest.raises(ValueError, match="omega"):
            rho(PROFILES["cor-4.4"], 0.5, 1.0)

    @given(st.floats(1e-6, 1.0), st.floats(1.0, 1e6))
    def test_rho_in_unit_interval(self, mu, L):
        r = rho(PROFILES["sc-2"], mu, L)
        assert 0.0 < r < 1.0

    def test_initial_D_zero_at_minimizer(self):
        p = make_quadratic(np.diag([1.0, 100.0]), np.array([1.0, 100.0]))
        params = PROFILES["cor-4.4"]
        assert initial_D(*start_values(p.x_star, p), p.L_known, params, s0=1e-3) == \
            pytest.approx(0.0, abs=1e-12)

    def test_initial_D_requires_fields(self):
        p = make_quadratic(np.diag([1.0, 100.0]), np.array([1.0, 100.0]))
        values = start_values(np.zeros(2), p)
        with pytest.raises(ValueError, match="positive smoothness"):
            initial_D(*values, 0.0, PROFILES["cor-4.4"], s0=1e-3)

    def test_min_form_is_used_when_smaller(self):
        # D = min(full form, min-form): below (1 + beta)*gamma*s0*t0*L = 1 the
        # min-form is at most the full form, above it an upper bound on it
        p = make_quadratic(np.diag([1.0, 100.0]), np.array([1.0, 100.0]))
        params = PROFILES["cor-4.4"]  # gamma = 1
        q, t0, L = floor_q(params), params.t0, p.L_known
        gap0, grad_sq0, dist_sq0 = start_values(np.array([5.0, -3.0]), p)
        for s0, below in ((q / L, True), (1.0 / L, False)):
            st = s0 * t0
            assert ((1.0 + params.beta) * st * L < 1.0) == below
            full = (dist_sq0 / 2.0 + st * ((1.0 + params.beta) * st * L - 1.0) / (2.0 * L)
                    * grad_sq0 + st * (t0 - 1.0) * gap0) / q
            D = initial_D(gap0, grad_sq0, dist_sq0, L, params, s0)
            if below:
                assert 0.0 < D < full * (1.0 - 1e-3)
            else:
                assert D == pytest.approx(full, rel=1e-14)


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
    def test_no_oracle_call_per_D_certificate(self, kind, run, request):
        # D comes from the trace's first row and x0 line, not from the oracle
        p, params, trace = request.getfixturevalue(run)
        calls = []

        def counted(x):
            calls.append(x)
            return p.value_and_grad(x)

        cert = certify(trace, dataclasses.replace(p, value_and_grad=counted), params, kind)
        assert calls == []
        s0 = trace.records[0].s
        gap0, grad_sq0, dist_sq0 = start_values(trace.x0, p)
        assert cert.constant_D == pytest.approx(
            initial_D(gap0, grad_sq0, dist_sq0, p.L_known, params, s0), rel=1e-14)

    @pytest.mark.parametrize("kind", CERTIFICATE_KINDS)
    def test_start_point_must_match_the_problem(self, convex_run, kind):
        # a 20-dimensional run read against a 2-dimensional problem
        _, params, trace = convex_run
        p2 = make_quadratic(np.diag([1.0, 100.0]), np.array([1.0, 100.0]))
        with pytest.raises(ValueError, match="start point has 20 entries, .* dimension 2$"):
            certify(trace, p2, params, kind)

    def test_linear_requires_mu(self, convex_run):
        _, params, trace = convex_run
        p0 = make_quadratic(np.diag([1.0] * 19 + [0.0]), np.zeros(20))
        assert p0.mu_known == 0.0
        with pytest.raises(ValueError, match="mu_known"):
            certify(trace, p0, params, "linear")

    def test_zero_mu_is_a_missing_constant(self, convex_run):
        # mu_known = 0 encodes "no mu known", so linear refuses it the way
        # every kind refuses a constant it reads and the problem lacks
        _, params, trace = convex_run
        p0 = make_quadratic(np.diag([1.0] * 19 + [0.0]), np.zeros(20))
        with pytest.raises(ValueError, match=r"^certificate 'linear' needs problem\.mu_known$"):
            certify(trace, p0, params, "linear")

    @pytest.mark.parametrize("kind", ["step_floor", "sublinear"])
    def test_zero_L_is_a_missing_constant(self, kind):
        # once a ZeroDivisionError in step_floor's q/L
        p = make_quadratic(np.zeros((2, 2)), np.zeros(2))
        assert p.L_known == 0.0
        params = PROFILES["cor-4.4"]
        trace = run_adaagm(p, params, StopCriteria(max_iters=1), x0=np.ones(2))
        with pytest.raises(ValueError, match=rf"^certificate '{kind}' needs problem\.L_known$"):
            certify(trace, p, params, kind)

    def test_violations_recorded(self, convex_run):
        p, params, trace = convex_run
        # shrink a step below the floor on a copied trace
        import copy

        bad = copy.deepcopy(trace)
        bad.column("s")[5] = 1e-12
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
        # the energy needs x* and f*: without them the certificate refuses,
        # while a trace that merely lacks energies checks nothing
        # (TestArrayCertifyMatchesRows::test_trace_without_energies)
        p, params, trace = convex_run
        bare = dataclasses.replace(p, x_star=None, f_star=None)
        with pytest.raises(ValueError, match="'energy_monotone' needs problem.x_star"):
            certify(trace, bare, params, "energy_monotone")

    def test_reference_solved_minimizer_has_the_one_tolerance(self):
        # demo logit's x* comes from the damped Newton solve, which reaches
        # ||g(x*)|| <= 1e-12 (test_problems.py): a gap 1e-7 above its bound,
        # relative to 1 + |bound|, fails as it would on a closed-form x*
        config = load_config(DEMO)
        spec = next(s for s in config.problems if s.name == "logit")
        p = build_problem(spec, config.base_dir)
        params = default_params(p)
        trace = read_trace_csv(os.path.join(TESTS, "data", "format2_default_logit.csv"))
        clean = certify(trace, p, params, "sublinear")
        assert clean.passed
        r = trace.records[1]
        assert r.t != params.t0  # in the first epoch, whose D the certificate reports
        bound = clean.constant_D * p.L_known / r.t ** 2
        trace.column("gap")[1] = bound + 1e-7 * (1.0 + abs(bound))
        cert = certify(trace, p, params, "sublinear")
        assert [k for k, _, _ in cert.violations] == [r.k]
        assert cert.max_violation_rel == pytest.approx(1e-7, rel=1e-6)

    def test_fitted_contraction_below_guarantee(self, sc_run):
        p, params, trace = sc_run
        r = rho(params, p.mu_known, p.L_known)
        fitted = fitted_energy_contraction(trace)
        assert fitted is not None
        assert fitted <= 1.0 - r


class TestStepCapOverflow:
    """Below m of about 0.0028 the cap s0*exp(g)*k^g, g = 2(1-m)/m, overflows."""

    @staticmethod
    def _run(m):
        p = make_quadratic(np.diag([1.0, 100.0]), np.array([1.0, 100.0]))
        params = dataclasses.replace(PROFILES["cor-4.4"], m=m)
        trace = run_adaagm(p, params, StopCriteria(max_iters=200, grad_tol=0.0),
                           x0=np.array([5.0, -3.0]))
        return certify(trace, p, params, "step_cap"), len(trace)

    def test_infinite_cap_checks_nothing(self):
        # exp(g) itself overflows: every row's cap is +inf
        cert, rows = self._run(0.001)
        assert rows == 201 and cert.passed and cert.checks == 0
        assert cert.max_violation_rel == -math.inf

    def test_rows_with_a_finite_cap_are_checked(self):
        # g = 198: exp(g) is finite and k^g overflows once k passes about 13
        cert, rows = self._run(0.01)
        assert cert.passed and 0 < cert.checks < rows - 1
        assert cert.max_violation_rel < 0.0


def _within_ulps(a, b, n=4):
    return a == b or abs(a - b) <= n * np.spacing(max(abs(a), abs(b)))


def assert_matches_rows(trace, problem, params, kind):
    """``certify`` agrees with the row-by-row reference, or both raise alike."""
    try:
        ref = certify_rows(trace, problem, params, kind)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            certify(trace, problem, params, kind)
        return None
    cert = certify(trace, problem, params, kind)
    assert cert.passed == ref.passed
    assert (cert.constant_q, cert.constant_D, cert.constant_rho) == \
        (ref.constant_q, ref.constant_D, ref.constant_rho)
    assert (cert.checks, cert.epochs) == (ref.checks, ref.epochs)
    assert [k for k, _, _ in cert.violations] == [k for k, _, _ in ref.violations]
    for (k, lhs, rhs), (_, ref_lhs, ref_rhs) in zip(cert.violations, ref.violations):
        assert (type(k), type(lhs), type(rhs)) == (int, float, float)
        assert _within_ulps(lhs, ref_lhs) and _within_ulps(rhs, ref_rhs)
    assert _within_ulps(cert.max_violation_rel, ref.max_violation_rel)
    return cert


def _sc_quadratic():
    rng = np.random.default_rng(21)
    Q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
    A = (Q * np.logspace(-2, 0, 12)) @ Q.T
    return make_quadratic(0.5 * (A + A.T), rng.normal(size=12))


@pytest.fixture(scope="module")
def array_traces(logistic_problem):
    """(problem, params, trace) of adaagm runs at thin 1 and 10 for three profiles."""
    quad = _sc_quadratic()
    stop = StopCriteria(max_iters=1500, grad_tol=1e-9)
    runs = {}
    for name, params in (("cor-4.4", PROFILES["cor-4.4"]), ("sc-2", PROFILES["sc-2"]),
                         ("default", default_params(quad))):
        for thin in (1, 10):
            trace = run_adaagm(quad, params, stop, x0=np.full(12, 2.0), thin=thin)
            runs[f"quad-{name}-thin{thin}"] = (quad, params, trace)
    params = default_params(logistic_problem)
    runs["logit-default-thin1"] = (logistic_problem, params,
                                   run_adaagm(logistic_problem, params, stop, thin=1))
    return runs


class TestArrayCertifyMatchesRows:
    """The array form of ``certify`` against the row walk in ``conftest``."""

    @pytest.mark.parametrize("kind", CERTIFICATE_KINDS)
    def test_adaagm_traces(self, array_traces, kind):
        for name, (p, params, trace) in array_traces.items():
            cert = assert_matches_rows(trace, p, params, kind)
            if cert is not None and kind != "grad_summable":
                assert cert.checks > 0 or (kind == "energy_monotone" and "thin10" in name)

    def test_no_record_is_built(self, array_traces, monkeypatch):
        # every kind slices the trace's columns, epoch starts and D included
        def refuse(*args):
            raise AssertionError("certify built a TraceRecord")

        monkeypatch.setattr(TraceRows, "__getitem__", refuse)
        monkeypatch.setattr(TraceRows, "__iter__", refuse)
        for name in ("quad-default-thin1", "quad-sc-2-thin10", "logit-default-thin1"):
            p, params, trace = array_traces[name]
            for kind in CERTIFICATE_KINDS:
                assert certify(trace, p, params, kind).checks > 0 or kind == "energy_monotone"

    def test_one_row_trace(self, array_traces):
        p, params, trace = array_traces["quad-sc-2-thin1"]
        one = trace_from_rows([trace.records[0]], trace.x0)
        checks = {kind: assert_matches_rows(one, p, params, kind).checks
                  for kind in CERTIFICATE_KINDS}
        assert checks == {"sublinear": 1, "linear": 1, "step_floor": 0, "step_cap": 0,
                          "energy_monotone": 0, "grad_summable": 0}
        text = format_certificates([certify(one, p, params, "step_cap")])
        assert "VACUOUS checks=0 " in text and "PASS" not in text
        assert text.endswith(" worst_rel=n/a")

    @pytest.mark.parametrize("thin", [1, 10])
    def test_corrupted_rows(self, array_traces, thin):
        p, params, trace = array_traces[f"quad-sc-2-thin{thin}"]
        bad = copy.deepcopy(trace)
        row = 7
        bad.column("s")[row] = 1e-12  # below the floor q/L
        bad.column("gap")[row + 2] = 1e6  # above D*L/t^2
        energy = bad.column("energy")
        energy[row + 4] = 3.0 * energy[row + 3]  # energy rises
        k = bad.records[row].k, bad.records[row + 2].k, bad.records[row + 4].k
        expected = {"step_floor": [k[0]],
                    "sublinear": [k[1]],
                    "linear": [k[1]],
                    "energy_monotone": [k[2]] if thin == 1 else []}
        for kind, ks in expected.items():
            cert = assert_matches_rows(bad, p, params, kind)
            assert [k for k, _, _ in cert.violations] == ks

    def test_corrupted_rows_of_a_restarted_trace(self, array_traces):
        # bounds re-anchored at an epoch start catch what the first epoch's miss
        p, params, trace = array_traces["quad-default-thin1"]
        starts = [i for i, r in enumerate(trace.records) if r.t == params.t0]
        assert len(starts) > 3
        bad = copy.deepcopy(trace)
        a = starts[2]
        growth = 2.0 * (1.0 - params.m) / params.m
        s = bad.column("s")
        s[a + 1] = 2.0 * s[a] * math.exp(growth)  # above the epoch's cap
        # a huge gradient at an epoch start adds nothing to the sum of k_rel^2*||g||^2
        grad_norm = bad.column("grad_norm")
        grad_norm[starts[-1]] = 1e3 * grad_norm[0]
        cap = assert_matches_rows(bad, p, params, "step_cap")
        assert [k for k, _, _ in cap.violations] == [bad.records[a + 1].k]
        assert assert_matches_rows(bad, p, params, "grad_summable").passed
        energy = assert_matches_rows(bad, p, params, "energy_monotone")
        assert energy.passed and energy.epochs == len(starts)

    def test_corrupted_grad_summable_reports_its_slack(self, array_traces):
        # the one check goes through the shared rule: violation (k, increment,
        # 0.01) and slack (increment - 0.01)/(1 + 0.01), like every other kind
        p, params, trace = array_traces["quad-sc-2-thin1"]
        bad = copy.deepcopy(trace)
        grad_norm = bad.column("grad_norm")
        grad_norm[-1] = 1e3 * grad_norm[0]
        k = bad.column("k")
        partials = np.cumsum(k ** 2 * grad_norm ** 2)
        inc = float((partials[-1] - partials[len(partials) // 2]) / partials[-1])
        assert inc > 0.5
        cert = assert_matches_rows(bad, p, params, "grad_summable")
        assert cert.checks == 1
        assert cert.violations == [(int(k[-1]), inc, 0.01)]
        assert cert.max_violation_rel == (inc - 0.01) / 1.01

    def test_restart_epoch_without_dist_sq(self, array_traces):
        # a later epoch's D needs ||x - x*||^2 at its first row, which only
        # the trace's dist_sq column carries
        p, params, trace = array_traces["quad-default-thin1"]
        a = next(i for i, r in enumerate(trace.records) if i and r.t == params.t0)
        bad = copy.deepcopy(trace)
        bad.column("dist_sq")[a] = math.nan  # no value
        message = f"the restart epoch at k={bad.records[a].k} carries no dist_sq"
        for kind in ("sublinear", "linear"):
            with pytest.raises(ValueError, match=f"^{message}$"):
                certify(bad, p, params, kind)
            assert assert_matches_rows(bad, p, params, kind) is None  # the rows raise alike

    def test_trace_without_energies(self, array_traces):
        p, params, trace = array_traces["quad-sc-2-thin1"]
        stripped = copy.deepcopy(trace)
        stripped.column("energy")[:] = math.nan  # no value
        # no energy pair to compare: nothing is checked, nothing fails
        cert = assert_matches_rows(stripped, p, params, "energy_monotone")
        assert cert.passed and cert.checks == 0


def _short_default_run(max_iters):
    """The default run of a 2-d quadratic from the start point of cell (0, 0, 0)."""
    p = make_quadratic(np.diag([1.0, 10.0]), np.array([1.0, 10.0]))
    params = default_params(p)
    x0 = XorShift64Star(cell_seed(0, 0, 0)).normal_vector(2)
    trace = run_adaagm(p, params, StopCriteria(max_iters=max_iters, grad_tol=0.0), x0=x0)
    return {c.kind: c for c in certify_cell(trace, p, params)}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="grad_summable is not the paper's inequality and fails short runs "
                          "that pass every other kind (ROADMAP item 8)")
def test_grad_summable_passes_a_short_default_run():
    cert = _short_default_run(43)["grad_summable"]
    assert cert.passed, f"checks={cert.checks} worst_rel={cert.max_violation_rel:.3e}"


@pytest.mark.parametrize("max_iters", [43, 60, 100])
def test_every_other_kind_passes_the_short_default_run(max_iters):
    certs = _short_default_run(max_iters)
    assert len(certs) == 6
    failing = [kind for kind, c in certs.items() if not c.passed]
    assert failing == ([] if max_iters > 43 else ["grad_summable"])


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
        params = dataclasses.replace(PROFILES["cor-4.4"], s0=0.25)
        params_scaled = dataclasses.replace(PROFILES["cor-4.4"], s0=0.25 * c ** 2)
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
