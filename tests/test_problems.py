import dataclasses

import numpy as np
import pytest

import adaagm.solver
from adaagm import (
    PROFILES,
    SmoothProblem,
    StopCriteria,
    load_matrix_csv,
    make_log_sum_exp,
    make_logistic,
    make_quadratic,
    make_symmetric_log_sum_exp,
    run_adaagm,
)
from adaagm.problems import _newton_minimizer

from conftest import check_grad_fd, random_quadratic


class TestQuadratic:
    def test_identity_case(self):
        p = make_quadratic(np.eye(2), np.zeros(2))
        assert np.allclose(p.x_star, 0.0)
        assert p.f_star == 0.0
        assert p.L_known == 1.0
        assert p.mu_known == 1.0

    def test_diagonal_solved_by_hand(self):
        # x* solves diag(1,100) x = (1,100) -> x* = (1,1), f* = 50.5 - 101
        p = make_quadratic(np.diag([1.0, 100.0]), np.array([1.0, 100.0]))
        assert np.allclose(p.x_star, [1.0, 1.0], atol=1e-12)
        assert p.f_star == pytest.approx(-50.5, abs=1e-12)
        assert p.L_known == pytest.approx(100.0)
        assert p.mu_known == pytest.approx(1.0)

    def test_offset_outside_column_space(self):
        with pytest.raises(ValueError, match="column space"):
            make_quadratic(np.diag([1.0, 0.0]), np.array([1.0, 1.0]))

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            make_quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))

    @pytest.mark.parametrize("upset", [5e-6, 1e-9])
    def test_rejects_asymmetry_a_relative_tolerance_would_pass(self, upset):
        # the tolerance is absolute, 1e-12 * (1 + max|A_ij|): a relative one of
        # 1e-5 passed 1 + 1e-9, whose oracle Ax - b is not the gradient of f
        with pytest.raises(ValueError, match="^matrix must be symmetric$"):
            make_quadratic(np.array([[2.0, 1.0], [1.0 + upset, 3.0]]), np.ones(2))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            make_quadratic(np.diag([1.0, -1.0]), np.zeros(2))

    def test_immutable(self):
        p = make_quadratic(np.eye(2), np.zeros(2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.f_star = 1.0


class TestLogSumExp:
    def test_single_row_unbounded_but_constructible(self):
        # f(x) = x has no minimizer; construction succeeds, fields stay unset
        p = make_log_sum_exp(np.array([[1.0]]), np.array([0.0]), 1.0)
        assert p.x_star is None and p.f_star is None
        assert p.value_and_grad(np.array([3.0]))[0] == pytest.approx(3.0)

    def test_symmetric_pair_minimized_at_origin(self):
        # f(x) = log(e^x + e^-x): symmetry forces x* = 0, f* = log 2
        p = make_symmetric_log_sum_exp(np.array([[1.0]]), 1.0)
        assert np.allclose(p.x_star, 0.0)
        assert p.f_star == pytest.approx(np.log(2.0), abs=1e-15)
        assert np.linalg.norm(p.value_and_grad(p.x_star)[1]) == 0.0

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            make_log_sum_exp(np.empty((0, 2)), np.empty(0), 1.0)

    def test_bad_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            make_log_sum_exp(np.ones((2, 2)), np.zeros(2), 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        p = make_log_sum_exp(rng.normal(size=(6, 4)), rng.normal(size=6), 0.7)
        for _ in range(10):
            x = rng.normal(size=4)
            assert check_grad_fd(p, x, 1e-5) <= 1e-6

    def test_hessian_is_the_jacobian_of_the_gradient(self):
        # central differences of the oracle's gradient against the closed form
        # the smoothness tests below take as the Hessian
        rng = np.random.default_rng(5)
        for rows, shifts, t in _lse_instances(rng, 8):
            p = make_log_sum_exp(rows, shifts, t)
            x = rng.normal(size=p.dimension)
            h = 1e-6 * (1.0 + np.linalg.norm(x))
            jac = np.column_stack([
                (p.value_and_grad(x + h * e)[1] - p.value_and_grad(x - h * e)[1]) / (2 * h)
                for e in np.eye(p.dimension)])
            hess = _lse_hessian(rows, shifts, t, x)
            assert np.linalg.norm(jac - hess) <= 1e-5 * (1.0 + np.linalg.norm(hess))

    def test_smoothness_constant_bounds_the_hessian(self):
        # lambda_max((1/t) A'(diag(p) - pp')A) <= sigma_max(A)^2 / (2t) at
        # every x, for shifted rows and for symmetric ones
        rng = np.random.default_rng(6)
        for i, (rows, shifts, t) in enumerate(_lse_instances(rng, 40)):
            if i % 2:
                p = make_symmetric_log_sum_exp(rows, t)
                rows, shifts = np.vstack([rows, -rows]), np.zeros(2 * len(rows))
            else:
                p = make_log_sum_exp(rows, shifts, t)
            for _ in range(5):
                x = rng.normal(size=p.dimension) * 10.0 ** rng.uniform(-3, 0)
                lam = np.linalg.eigvalsh(_lse_hessian(rows, shifts, t, x))[-1]
                assert lam <= p.L_known * (1 + 1e-12), (i, lam / p.L_known)

    def test_smoothness_constant_is_attained(self):
        # one row a and its negation at x* = 0: p = (1/2, 1/2), so the
        # Hessian is aa'/t with lambda_max = ||a||^2/t = L; no smaller
        # constant holds for every log-sum-exp
        a = np.array([[0.6, -1.7, 2.3]])
        p = make_symmetric_log_sum_exp(a, 0.35)
        full = np.vstack([a, -a])
        lam = np.linalg.eigvalsh(_lse_hessian(full, np.zeros(2), 0.35, p.x_star))[-1]
        assert lam == pytest.approx(p.L_known, rel=1e-14)


def _lse_instances(rng, count):
    """Random (rows, shifts, temperature) triples: 1-12 rows of 1-6 columns
    scaled by 10^U(-1,1), normal shifts and temperature 10^U(-1,1)."""
    for _ in range(count):
        m, n = rng.integers(1, 13), rng.integers(1, 7)
        rows = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-1, 1)
        yield rows, rng.normal(size=m), 10.0 ** rng.uniform(-1, 1)


def _lse_hessian(rows, shifts, t, x):
    """(1/t) A'(diag(p) - pp')A, p the softmax of (Ax + b)/t."""
    z = (rows @ x + shifts) / t
    p = np.exp(z - z.max())
    p /= p.sum()
    return rows.T @ (np.diag(p) - np.outer(p, p)) @ rows / t


@pytest.fixture(scope="module")
def benchmark_logistic():
    # 1000 x 200, built like the dense benchmark's: features scaled by
    # 1/sqrt(m), labels from a noisy linear model, ridge 0.01
    rng = np.random.default_rng(42)
    A = rng.standard_normal((1000, 200)) / np.sqrt(1000)
    margin = A @ rng.standard_normal(200) + 0.5 * rng.standard_normal(1000) / np.sqrt(200)
    return make_logistic(A, np.where(margin >= 0.0, 1.0, -1.0), 0.01)


class TestLogistic:
    def test_zero_features_decoupled_quadratic(self):
        # f(x) = n*log 2 + 0.5||x||^2, minimized at the origin
        p = make_logistic(np.zeros((4, 3)), np.ones(4), 1.0)
        x = np.array([1.0, -2.0, 0.5])
        assert p.value_and_grad(x)[0] == pytest.approx(4 * np.log(2.0) + 0.5 * float(x @ x))
        assert np.linalg.norm(p.x_star) <= 1e-8
        assert p.f_star == pytest.approx(4 * np.log(2.0), abs=1e-12)

    def test_separable_unregularized_has_no_minimizer(self):
        p = make_logistic(np.array([[1.0]]), np.array([1.0]), 0.0)
        assert p.x_star is None and p.f_star is None

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            make_logistic(np.ones((2, 2)), np.array([1.0, 0.0]), 0.1)

    def test_reference_solve_is_tight(self, logistic_problem, benchmark_logistic):
        for p in (logistic_problem, benchmark_logistic):
            assert np.linalg.norm(p.value_and_grad(p.x_star)[1]) <= 1e-12

    def test_reference_solve_uses_no_solver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the reference solve must not run adaagm")

        monkeypatch.setattr(adaagm.solver, "run_adaagm", refuse)
        rng = np.random.default_rng(8)
        y = np.where(rng.normal(size=30) < 0, -1.0, 1.0)
        p = make_logistic(rng.normal(size=(30, 4)), y, 0.2)
        assert np.linalg.norm(p.value_and_grad(p.x_star)[1]) <= 1e-12

    def test_reference_solve_agrees_with_adaagm(self, logistic_problem):
        stop = StopCriteria(max_iters=200_000, grad_tol=1e-12)
        x = run_adaagm(logistic_problem, PROFILES["sc-2"], stop,
                       np.zeros(logistic_problem.dimension)).x_final
        assert np.linalg.norm(x - logistic_problem.x_star) <= 1e-8

    def test_reference_solve_stops_at_rounding_floor(self):
        # features of size 1e3 put the gradient's rounding floor above
        # 1e-12 (about 5e-12 here): the solve must stop there, not loop
        rng = np.random.default_rng(0)
        A = 1e3 * rng.normal(size=(200, 20))
        y = np.where(rng.normal(size=200) < 0, -1.0, 1.0)
        p = make_logistic(A, y, 0.1)
        calls = []

        def counted(x):
            calls.append(x)
            return p.value_and_grad(x)

        x = _newton_minimizer(dataclasses.replace(p, value_and_grad=counted), A, y, 0.1)
        assert len(calls) <= 40
        g0 = np.linalg.norm(p.value_and_grad(np.zeros(p.dimension))[1])
        assert np.linalg.norm(p.value_and_grad(x)[1]) <= 1e-8 * (1.0 + g0)

    def test_constants(self, logistic_problem):
        assert logistic_problem.mu_known == pytest.approx(0.1)
        assert logistic_problem.L_known > 0.1


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: make_quadratic(np.ones((2, 3)), np.zeros(2)),
                 "matrix must be square", id="quadratic-non-square"),
    pytest.param(lambda: make_quadratic(np.eye(2), np.zeros(3)),
                 "offset length must match matrix size", id="quadratic-offset"),
    pytest.param(lambda: make_log_sum_exp(np.ones((2, 3)), np.zeros(3), 1.0),
                 "shifts length must match the number of rows", id="log-sum-exp-shifts"),
    pytest.param(lambda: make_logistic(np.ones((3, 2)), np.ones(2), 0.1),
                 "labels length must match the number of feature rows", id="logistic-labels"),
])
def test_shape_mismatch_rejected(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_unknown_mu_is_zero():
    # 0 is a strong-convexity modulus of every convex f, so it is the one
    # encoding of "no mu known"; an unknown L is 0.0 as well
    p = SmoothProblem(dimension=1, value_and_grad=lambda x: (0.0, 0.0 * x))
    assert p.mu_known == 0.0 and type(p.mu_known) is float
    assert p.L_known == 0.0 and type(p.L_known) is float


def test_one_dimensional_rows_and_features_are_one_row():
    a = np.array([1.0, -2.0, 0.5])
    x = np.array([0.3, 0.1, -0.7])
    lse = make_log_sum_exp(a, np.array([0.25]), 1.0)
    assert lse.dimension == 3
    assert lse.value_and_grad(x)[0] == pytest.approx(float(a @ x) + 0.25, rel=1e-15)
    # the symmetric form pairs the one row with its negation
    sym = make_symmetric_log_sum_exp(a, 1.0)
    assert sym.dimension == 3 and sym.f_star == pytest.approx(np.log(2.0), rel=1e-15)
    logit = make_logistic(a, np.array([1.0]), 0.5)
    assert logit.dimension == 3
    assert logit.value_and_grad(x)[0] == pytest.approx(
        np.logaddexp(0.0, -float(a @ x)) + 0.25 * float(x @ x), rel=1e-15)


class TestCheckGradFd:
    def test_quadratic_central_difference_exact(self):
        p = make_quadratic(np.eye(2), np.zeros(2))
        assert check_grad_fd(p, np.array([3.0, 4.0]), 1e-5) <= 1e-8

    def test_two_row_log_sum_exp_at_origin(self):
        p = make_symmetric_log_sum_exp(np.array([[1.0]]), 1.0)
        assert check_grad_fd(p, np.zeros(1), 1e-5) <= 1e-6

    def test_rejects_nonpositive_step(self):
        p = make_quadratic(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            check_grad_fd(p, np.zeros(2), 0.0)


def _shipped_problems(logistic_problem):
    rng = np.random.default_rng(11)
    return [
        make_quadratic(np.diag([1.0, 100.0]), np.array([1.0, 100.0])),
        random_quadratic(8, seed=5),
        make_log_sum_exp(rng.normal(size=(5, 3)), rng.normal(size=5), 1.3),
        logistic_problem,
    ]


class TestSharedInvariants:
    def test_gradient_consistency(self, logistic_problem):
        rng = np.random.default_rng(21)
        for p in _shipped_problems(logistic_problem):
            for _ in range(20):
                x = rng.normal(size=p.dimension)
                assert check_grad_fd(p, x, 1e-5) <= 1e-5

    def test_smoothness_bound(self, logistic_problem):
        rng = np.random.default_rng(22)
        for p in _shipped_problems(logistic_problem):
            for _ in range(20):
                a = rng.normal(size=p.dimension)
                b = rng.normal(size=p.dimension)
                lhs = np.linalg.norm(p.value_and_grad(a)[1] - p.value_and_grad(b)[1])
                assert lhs <= p.L_known * np.linalg.norm(a - b) * (1 + 1e-9)

    def test_cocoercivity(self, logistic_problem):
        # <g(a), a-b> - (f(a)-f(b)) >= ||g(a)-g(b)||^2 / (2L)
        rng = np.random.default_rng(23)
        for p in _shipped_problems(logistic_problem):
            for _ in range(20):
                a = rng.normal(size=p.dimension)
                b = rng.normal(size=p.dimension)
                (fa, ga), (fb, gb) = p.value_and_grad(a), p.value_and_grad(b)
                lhs = float(ga @ (a - b)) - (fa - fb)
                rhs = float((ga - gb) @ (ga - gb)) / (2.0 * p.L_known)
                scale = abs(fa) + abs(fb) + 1.0
                assert lhs >= rhs - 1e-9 * scale


def test_matrix_csv_roundtrip(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.5,2\n3,4.25\n")
    M = load_matrix_csv(path)
    assert M.shape == (2, 2)
    assert M[1, 1] == 4.25
