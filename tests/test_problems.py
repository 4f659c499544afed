import dataclasses

import numpy as np
import pytest

import adaagm.solver
from adaagm import (
    StopCriteria,
    get_profile,
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
            assert p.solution_is_reference

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
        x = run_adaagm(logistic_problem, get_profile("sc-2"), stop,
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
