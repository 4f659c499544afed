"""The fused oracle against the separate value/gradient formulas it replaced.

Each problem computes f and grad f in one ``value_and_grad`` call.  The
reference closures below are the two-call formulas; the fused oracle must
reproduce them bit for bit, alone and through whole solver runs.  SciPy
serves as an independent reference within rounding bounds: the log-sum-exp
value against ``scipy.special.logsumexp`` (its gradient matches
``softmax`` bit for bit), and the logistic gradient's sigma(-m), which is
NumPy arithmetic, against ``scipy.special.expit``.
"""

import dataclasses
import os

import numpy as np
import pytest
from scipy.special import expit, logsumexp, softmax

from adaagm import (
    DivergenceError,
    StopCriteria,
    make_log_sum_exp,
    make_logistic,
    make_quadratic,
    run_adaagm,
    run_nesterov,
    write_trace_csv,
)
from adaagm.config import build_problem, load_config
from adaagm.problems import SmoothProblem

DEMO_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.ini")


# --- reference formulas ------------------------------------------------------

def ref_quadratic(A, b):
    return (lambda x: float(0.5 * x @ (A @ x) - b @ x),
            lambda x: A @ x - b)


def ref_logistic(A, y, ridge):
    def value(x):
        margins = y * (A @ x)
        return float(np.sum(np.logaddexp(0.0, -margins))) + 0.5 * ridge * float(x @ x)

    def gradient(x):
        margins = y * (A @ x)
        sigma = np.exp(-margins - np.logaddexp(0.0, -margins))
        return -(A.T @ (y * sigma)) + ridge * x

    return value, gradient


def ref_log_sum_exp(A, b, t):
    def shifted(x):
        z = (A @ x + b) / t
        zmax = np.max(z)
        e = np.exp(z - zmax)
        return e, np.sum(e), zmax

    def value(x):
        _, total, zmax = shifted(x)
        return t * float(np.log(total) + zmax)

    def gradient(x):
        e, total, _ = shifted(x)
        return A.T @ (e / total)

    return value, gradient


def paired(value, gradient):
    """One oracle that calls the two reference closures."""
    return lambda x: (value(x), gradient(x))


def assert_near_scipy_log_sum_exp(problem, A, b, t, x):
    # Both values are t*(log S + zmax) for the same z = (Ax + b)/t, where
    # S = sum_i exp(z_i - zmax) >= 1 holds the exact term exp(0) = 1.  Each
    # term is off by at most 2*eps absolute (exp's last bit, and the rounded
    # argument z_i - zmax moving e_i by eps*|z_i - zmax|*e_i <= eps/e), and
    # n - 1 additions add (n - 1)*eps*S, so S is off by at most 3n*eps
    # relative, which log turns into 3n*eps absolute; log's own rounding
    # adds eps*log(n).  SciPy's log1p(s/m) + log(m) + zmax form also rounds
    # a division, a second log and a second addition: (1 + 2*log(n))*eps
    # more.  The addition of zmax and the product with t round by eps*|f|
    # each.  Over both implementations the values differ by at most
    # eps*(t*(6n + 4*log(n) + 1) + 4*|f|) <= 10*eps*(t*n + |f|), n >= 1.
    f, g = problem.value_and_grad(x)
    z = (A @ x + b) / t
    f_ref = t * float(logsumexp(z))
    assert type(f) is float
    assert abs(f - f_ref) <= 10.0 * np.finfo(float).eps * (t * len(z) + abs(f_ref))
    assert np.array_equal(g, A.T @ softmax(z))


def assert_bitwise(problem, reference, x):
    f, g = problem.value_and_grad(x)
    value, gradient = reference
    assert type(f) is float
    assert f == value(x)
    assert np.array_equal(g, gradient(x))


# --- one evaluation ------------------------------------------------------------

SCALES = (1e-3, 1.0, 10.0, 1e2)


class TestBitwise:
    @pytest.mark.parametrize("seed", range(4))
    def test_quadratic(self, seed):
        rng = np.random.default_rng(seed)
        n = 7
        B = rng.normal(size=(n, n))
        A = B @ B.T + 0.1 * np.eye(n)
        A = 0.5 * (A + A.T)
        b = rng.normal(size=n)
        problem = make_quadratic(A, b)
        for scale in SCALES:
            for _ in range(25):
                assert_bitwise(problem, ref_quadratic(A, b), scale * rng.normal(size=n))

    @pytest.mark.parametrize("seed", range(4))
    def test_logistic(self, seed):
        rng = np.random.default_rng(100 + seed)
        A = rng.normal(size=(12, 4))
        y = np.where(rng.normal(size=12) < 0, -1.0, 1.0)
        problem = make_logistic(A, y, 0.0)
        for scale in SCALES:
            for _ in range(25):
                assert_bitwise(problem, ref_logistic(A, y, 0.0), scale * rng.normal(size=4))

    @pytest.mark.parametrize("seed", range(4))
    def test_logistic_against_expit(self, seed):
        # f is the same arithmetic as before; sigma(-m) = exp(-m - log(1 + e^-m))
        # carries a relative error of a few eps*(1 + |m|) through the exponent,
        # and the A' product sums one such term per row
        rng = np.random.default_rng(200 + seed)
        rows = 12
        A = rng.normal(size=(rows, 4))
        y = np.where(rng.normal(size=rows) < 0, -1.0, 1.0)
        problem = make_logistic(A, y, 0.0)
        eps = np.finfo(float).eps
        for scale in SCALES + (1e3,):
            for _ in range(25):
                x = scale * rng.normal(size=4)
                margins = y * (A @ x)
                f, g = problem.value_and_grad(x)
                assert f == float(np.sum(np.logaddexp(0.0, -margins)))
                sigma = expit(-margins)
                g_ref = -(A.T @ (y * sigma))
                bound = 4.0 * (rows + np.abs(margins).max()) * eps * (np.abs(A).T @ sigma)
                assert np.all(np.abs(g - g_ref) <= bound)

    @pytest.mark.parametrize("t", [0.01, 0.1, 0.5, 1.0, 3.0])
    def test_log_sum_exp(self, t):
        rng = np.random.default_rng(int(100 * t))
        for rows in (1, 2, 8, 33):
            A = rng.normal(size=(rows, 5))
            b = rng.normal(size=rows)
            problem = make_log_sum_exp(A, b, t)
            for scale in SCALES:
                for _ in range(10):
                    assert_near_scipy_log_sum_exp(problem, A, b, t,
                                                  scale * rng.normal(size=5))

    @pytest.mark.parametrize("t", [0.01, 0.5, 3.0])
    def test_log_sum_exp_tied_maxima(self, t):
        rng = np.random.default_rng(7)
        R = rng.normal(size=(4, 3))
        # symmetric rows: every entry ties at x = 0
        sym = np.vstack([R, -R])
        zero = np.zeros(sym.shape[0])
        assert_near_scipy_log_sum_exp(make_log_sum_exp(sym, zero, t), sym, zero, t,
                                      np.zeros(3))
        # duplicated rows and integer data: ties at the maximum for many x
        dup = np.vstack([np.round(3 * R), np.round(3 * R[:2])])
        shifts = np.zeros(dup.shape[0])
        problem = make_log_sum_exp(dup, shifts, t)
        for _ in range(40):
            x = rng.integers(-3, 4, size=3).astype(float)
            assert_near_scipy_log_sum_exp(problem, dup, shifts, t, x)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_gives_non_finite_oracle(self, bad):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(6, 3))
        y = np.where(rng.normal(size=6) < 0, -1.0, 1.0)
        problems = [make_quadratic(A.T @ A, A.T @ y), make_logistic(A, y, 0.0),
                    make_log_sum_exp(A, y, 0.5)]
        x = np.array([1.0, bad, -2.0])
        for problem in problems:
            f, g = problem.value_and_grad(x)
            assert not (np.isfinite(f) and np.isfinite(g).all())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:step")
    def test_divergence_fires_at_the_same_iteration(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(6, 3))
        y = np.where(rng.normal(size=6) < 0, -1.0, 1.0)
        Q = A.T @ A + np.eye(3)
        cases = [(make_quadratic(Q, A.T @ y), ref_quadratic(Q, A.T @ y)),
                 (make_logistic(A, y, 1.0), ref_logistic(A, y, 1.0))]
        for problem, reference in cases:
            twin = dataclasses.replace(problem, value_and_grad=paired(*reference))
            ks = []
            for p in (problem, twin):
                with pytest.raises(DivergenceError) as info:
                    run_nesterov(p, 50.0, StopCriteria(max_iters=100_000), x0=np.ones(3))
                ks.append(info.value.k)
            assert ks[0] == ks[1] > 0


# --- whole runs ----------------------------------------------------------------

def _floats(text):
    return np.array([float(v) for v in text.split()])


def _rows(text):
    return np.array([[float(v) for v in r.split()] for r in text.split(";") if r.strip()])


def demo_reference(spec):
    """The reference closures for one problem section of the demo config."""
    opts = spec.options
    if spec.kind == "quadratic":
        return ref_quadratic(np.diag(_floats(opts["diag"])), _floats(opts["offset"]))
    if spec.kind == "log_sum_exp":
        rows = _rows(opts["rows"])
        full = np.vstack([rows, -rows])
        return ref_log_sum_exp(full, np.zeros(full.shape[0]), float(opts["temperature"]))
    return ref_logistic(_rows(opts["features"]), _floats(opts["labels"]),
                        float(opts["ridge"]))


@pytest.fixture(scope="module")
def demo_problems():
    config = load_config(DEMO_CONFIG)
    return [(build_problem(spec, config.base_dir), demo_reference(spec))
            for spec in config.problems]


def test_demo_traces_byte_identical(demo_problems, tmp_path):
    stop = StopCriteria(max_iters=2000, grad_tol=0.0)
    x0 = np.array([1.5, -2.0, 0.5])
    for problem, reference in demo_problems:
        twin = dataclasses.replace(problem, value_and_grad=paired(*reference))
        start = x0[:problem.dimension]
        for method in ("adaagm", "nesterov"):
            texts = []
            for label, p in (("fused", problem), ("reference", twin)):
                if method == "adaagm":
                    trace = run_adaagm(p, stop=stop, x0=start)
                else:
                    trace = run_nesterov(p, 1.0 / p.L_known, stop, x0=start)
                path = tmp_path / f"{problem.name}_{method}_{label}.csv"
                write_trace_csv(trace, path)
                texts.append(path.read_bytes())
            assert len(trace) == 2001
            assert texts[0] == texts[1], (problem.name, method)


# --- the oracle count the benchmark relies on ----------------------------------

def test_value_and_grad_is_the_only_oracle_field():
    names = {f.name for f in dataclasses.fields(SmoothProblem)}
    assert "value_and_grad" in names
    assert not names & {"value", "gradient"}


def _counted(problem):
    calls = []
    inner = problem.value_and_grad

    def value_and_grad(x):
        calls.append(x)
        return inner(x)

    return dataclasses.replace(problem, value_and_grad=value_and_grad), calls


@pytest.mark.parametrize("L_known", [True, False])
def test_one_oracle_call_per_iteration(demo_problems, L_known):
    stop = StopCriteria(max_iters=300)
    for problem, _ in demo_problems:
        x0 = np.full(problem.dimension, 1.5)
        if not L_known:
            problem = dataclasses.replace(problem, L_known=0.0)
        counted, calls = _counted(problem)
        trace = run_adaagm(counted, stop=stop, x0=x0)
        # plus the s0 probe, known L or not
        assert len(calls) == trace.records[-1].k + 2
        if L_known:
            counted, calls = _counted(problem)
            trace = run_nesterov(counted, 1.0 / problem.L_known, stop, x0=x0)
            assert len(calls) == trace.records[-1].k + 1
