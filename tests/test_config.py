import csv
import itertools
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import adaagm.runner
from adaagm.config import ConfigError, build_problem, load_config, start_point
from adaagm.problems import SmoothProblem
from adaagm.runner import run_experiment, validate_config
from adaagm.schedule import PROFILES, default_params
from adaagm.solver import read_trace_csv

DEMO_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.ini")

BASIC = """
[experiment]
output_dir = runs
seeds = 0 1
thinning = 2
x0_scale = 1.5

[problem quad]
kind = quadratic
diag = 1 100
offset = 1 100

[solver agm]
algorithm = adaagm
profile = cor-4.4
max_iters = 200
grad_tol = 0
"""


def write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_basic(self, tmp_path):
        config = load_config(write(tmp_path, BASIC))
        assert config.seeds == [0, 1]
        assert config.thinning == 2
        assert config.x0_scale == 1.5
        assert config.problems[0].name == "quad"
        solver = config.solvers[0]
        assert solver.algorithm == "adaagm"
        assert solver.params == PROFILES["cor-4.4"]
        assert solver.stop.max_iters == 200
        assert solver.stop.grad_tol == 0.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(write(tmp_path, BASIC + "\n[problem p2]\nkind = quadratic\ndiag = 1\nbogus = 3\n"))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(write(tmp_path, BASIC + "\n[extras]\nfoo = 1\n"))

    def test_no_problems(self, tmp_path):
        text = "[solver s]\nalgorithm = gd\nstep = 0.1\n"
        with pytest.raises(ConfigError, match="no problems"):
            load_config(write(tmp_path, text))

    def test_no_solvers(self, tmp_path):
        text = "[problem p]\nkind = quadratic\ndiag = 1\n"
        with pytest.raises(ConfigError, match="no solvers"):
            load_config(write(tmp_path, text))

    def test_bad_profile(self, tmp_path):
        text = BASIC.replace("profile = cor-4.4", "profile = cor-9.9")
        with pytest.raises(ConfigError, match="unknown profile"):
            load_config(write(tmp_path, text))

    def test_invalid_override_params(self, tmp_path):
        # the profile names every parameter: a field is an unknown key
        text = BASIC.replace(
            "profile = cor-4.4",
            "profile = cor-4.4\nm = 0.5\nt0 = 3\ngamma = 1.9\nbeta = 0.3",
        )
        with pytest.raises(ConfigError, match=r"^unknown keys in \[solver agm\] for algorithm "
                                              r"'adaagm': \['beta', 'gamma', 'm', 't0'\]$"):
            load_config(write(tmp_path, text))

    def test_overrides_set_every_field(self, tmp_path):
        # a config naming every parameter field is refused with all of them
        text = BASIC.replace(
            "profile = cor-4.4",
            "profile = cor-4.4\nm = 0.5\nt0 = 3\ngamma = 1.0\nbeta = 0.25\ns0 = 0.001"
            "\nomega = 0.1\ndelta = 0.5",
        )
        with pytest.raises(ConfigError, match=r"^unknown keys in \[solver agm\] for algorithm "
                                              r"'adaagm': \['beta', 'delta', 'gamma', 'm', "
                                              r"'omega', 's0', 't0'\]$"):
            load_config(write(tmp_path, text))

    def test_custom_is_an_unknown_profile(self, tmp_path):
        text = BASIC.replace("profile = cor-4.4", "profile = custom")
        with pytest.raises(ConfigError, match="unknown profile 'custom'"):
            load_config(write(tmp_path, text))

    def test_profile_override(self, tmp_path):
        # no field overrides a named profile, nor the one resolved per problem
        for profile, key in itertools.product(
                ["cor-4.4", "default"], ["m", "t0", "gamma", "beta", "omega", "delta", "s0"]):
            text = BASIC.replace("profile = cor-4.4", f"profile = {profile}\n{key} = 0.01")
            with pytest.raises(ConfigError, match=rf"unknown keys .*: \['{key}'\]$"):
                load_config(write(tmp_path, text))

    def test_bad_thinning(self, tmp_path):
        text = BASIC.replace("thinning = 2", "thinning = 0")
        with pytest.raises(ConfigError, match="thinning"):
            load_config(write(tmp_path, text))

    @pytest.mark.parametrize("algorithm,line", [
        ("adaagm", "step = 0.01"),
        ("gd", "step = 0.01\nprofile = cor-4.4"),
        ("gd", "step = 0.01\ns0 = 0.01"),
        ("nesterov", "step = 0.01\nm = 0.5"),
        ("nesterov", "step = 0.01\ndelta = 0.5"),
    ])
    def test_key_ignored_by_algorithm(self, tmp_path, algorithm, line):
        text = ("[problem p]\nkind = quadratic\ndiag = 1\n"
                f"[solver s]\nalgorithm = {algorithm}\n{line}\n")
        with pytest.raises(ConfigError, match=f"for algorithm '{algorithm}'"):
            load_config(write(tmp_path, text))

    def test_unknown_algorithm(self, tmp_path):
        text = BASIC.replace("algorithm = adaagm", "algorithm = bfgs")
        with pytest.raises(ConfigError, match="unknown algorithm"):
            load_config(write(tmp_path, text))


class TestBuildProblem:
    def test_quadratic_diag(self, tmp_path):
        config = load_config(write(tmp_path, BASIC))
        p = build_problem(config.problems[0], config.base_dir)
        assert p.dimension == 2
        assert p.L_known == pytest.approx(100.0)
        assert np.allclose(p.x_star, [1.0, 1.0])

    def test_quadratic_matrix_csv(self, tmp_path):
        (tmp_path / "A.csv").write_text("2,0\n0,8\n")
        text = """
[problem q]
kind = quadratic
matrix_csv = A.csv

[solver s]
algorithm = adaagm
"""
        config = load_config(write(tmp_path, text))
        p = build_problem(config.problems[0], config.base_dir)
        assert p.L_known == pytest.approx(8.0)
        assert p.mu_known == pytest.approx(2.0)

    def test_quadratic_offset_csv(self, tmp_path):
        # the offset file is raveled: a row, as the dense benchmark writes
        # it, and a column give the same vector
        (tmp_path / "A.csv").write_text("2,0\n0,8\n")
        (tmp_path / "b.csv").write_text("2,8\n")
        (tmp_path / "b_column.csv").write_text("2\n8\n")
        text = """
[problem q]
kind = quadratic
matrix_csv = A.csv
offset_csv = b.csv

[solver s]
algorithm = adaagm
"""
        for offset in ("b.csv", "b_column.csv"):
            config = load_config(write(tmp_path, text.replace("b.csv", offset)))
            p = build_problem(config.problems[0], config.base_dir)
            assert np.allclose(p.x_star, [1.0, 1.0], rtol=0.0, atol=1e-15)
            assert p.f_star == pytest.approx(-5.0, abs=1e-14)

    def test_symmetric_log_sum_exp(self, tmp_path):
        text = """
[problem lse]
kind = log_sum_exp
rows = 1 0; 0 1
symmetric = true
temperature = 0.5

[solver s]
algorithm = adaagm
"""
        config = load_config(write(tmp_path, text))
        p = build_problem(config.problems[0], config.base_dir)
        assert np.allclose(p.x_star, 0.0)
        assert p.f_star == pytest.approx(0.5 * np.log(4.0))

    def test_logistic_inline(self, tmp_path):
        text = """
[problem log]
kind = logistic
features = 1 0; 0 1; -1 1
labels = 1 -1 1
ridge = 0.5

[solver s]
algorithm = adaagm
"""
        config = load_config(write(tmp_path, text))
        p = build_problem(config.problems[0], config.base_dir)
        assert p.mu_known == pytest.approx(0.5)
        assert p.x_star is not None


class TestValidateConfig:
    def test_ok(self, tmp_path):
        assert validate_config(write(tmp_path, BASIC)) == {("agm", "quad"): pytest.approx(0.2)}

    def test_default_profile_q_per_problem(self):
        # profile = default resolves to sc-2 (q = 1/16) on the strongly convex
        # problems and to cor-4.4 (q = 1/5) on the merely convex one
        assert validate_config(DEMO_CONFIG) == {
            ("agm", "quad"): 0.0625, ("agm", "lse"): 0.2, ("agm", "logit"): 0.0625,
            ("agm-convex", "quad"): 0.2, ("agm-convex", "lse"): 0.2,
            ("agm-convex", "logit"): 0.2,
        }

    def test_missing_csv(self, tmp_path):
        text = BASIC.replace("diag = 1 100\noffset = 1 100", "matrix_csv = gone.csv")
        with pytest.raises(ConfigError) as err:
            validate_config(write(tmp_path, text))
        assert str(err.value) == f"problem quad: {tmp_path / 'gone.csv'} not found."

    def test_parse_error_reported(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown keys in \[experiment\]"):
            validate_config(write(tmp_path, "[experiment]\nbogus = 1\n"))

    def test_problem_named_once(self, tmp_path):
        text = BASIC.replace("diag = 1 100\noffset = 1 100", "offset = 1 100")
        with pytest.raises(ConfigError) as err:
            validate_config(write(tmp_path, text))
        assert str(err.value) == "problem quad: needs diag or matrix_csv"

    def test_bad_problem_reported(self, tmp_path):
        text = BASIC.replace("diag = 1 100", "diag = 1 -100")
        with pytest.raises(ConfigError,
                           match="^problem quad: matrix must be positive semidefinite$"):
            validate_config(write(tmp_path, text))


class TestStartPoint:
    def test_deterministic(self, tmp_path):
        config = load_config(write(tmp_path, BASIC))
        a = start_point(config, 0, 0, 1, 5)
        b = start_point(config, 0, 0, 1, 5)
        assert np.array_equal(a, b)

    def test_scale_applied(self, tmp_path):
        config = load_config(write(tmp_path, BASIC))
        base = load_config(write(tmp_path, BASIC.replace("x0_scale = 1.5",
                                                         "x0_scale = 1.0"),
                                 name="exp2.ini"))
        assert np.allclose(start_point(config, 0, 0, 0, 4),
                           1.5 * start_point(base, 0, 0, 0, 4))

    def test_cells_differ(self, tmp_path):
        config = load_config(write(tmp_path, BASIC))
        assert not np.array_equal(start_point(config, 0, 0, 0, 4),
                                  start_point(config, 0, 0, 1, 4))


class TestRunner:
    def test_matrix_outputs(self, tmp_path):
        config = load_config(write(tmp_path, BASIC))
        config.output_dir = str(tmp_path / "out")
        results = run_experiment(config)
        assert len(results) == 2  # 1 problem x 1 solver x 2 seeds
        assert all(r.status != "diverged" for r in results)
        assert (tmp_path / "out" / "quad_agm_0.csv").exists()
        assert (tmp_path / "out" / "quad_agm_1.csv").exists()
        lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("problem,solver,seed,status")
        assert len(lines) == 3
        for r in results:
            assert r.status == "ok"
            assert "step_floor:pass" in r.certificates

    def test_demo_matrix_emits_no_parameter_warning(self, tmp_path):
        # profile = default leaves s0 unset, and the logistic problem's
        # Newton reference solve runs no solver profile: nothing warns
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            config = load_config(DEMO_CONFIG)
            config.output_dir = str(tmp_path / "out")
            results = run_experiment(config)
        assert all(r.status == "ok" for r in results)
        assert [str(w.message) for w in record] == []

    def test_default_profile_certificates_pass_at_thin_one(self, tmp_path):
        # thin = 1, so energy_monotone compares every adjacent pair; at
        # m = 0.99 it fails on quad from start seeds 24-31
        config = load_config(DEMO_CONFIG)
        config.solvers = [s for s in config.solvers if s.name == "agm"]
        config.seeds = list(range(24, 32))
        config.thinning = 1
        config.output_dir = str(tmp_path / "out")
        results = run_experiment(config)
        assert len(results) == 24
        for r in results:
            assert r.status == "ok" and r.final_grad_norm <= 1e-9
            verdicts = r.certificates.split(";")
            assert "energy_monotone:pass" in verdicts
            assert all(v.endswith(":pass") for v in verdicts), (r.problem, r.seed, verdicts)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:step")
    def test_divergent_cell_recorded(self, tmp_path):
        text = BASIC + "\n[solver bad]\nalgorithm = gd\nstep = 10.0\nmax_iters = 500\n"
        config = load_config(write(tmp_path, text))
        config.output_dir = str(tmp_path / "out")
        results = run_experiment(config)
        assert any(r.status == "diverged" for r in results)
        statuses = {(r.solver, r.status) for r in results}
        assert ("bad", "diverged") in statuses
        assert ("agm", "ok") in statuses

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_poisoned_problem_does_not_abort_matrix(self, tmp_path, monkeypatch):
        # f = -0.5||x||^2 is concave: the adaptive rule's curvature check
        # rejects it, the fixed-step Nesterov run blows up
        real_build = adaagm.runner.build_problem

        def build(spec, base_dir="."):
            problem = real_build(spec, base_dir)
            if spec.name != "quad":
                return problem
            return SmoothProblem(dimension=problem.dimension,
                                 value_and_grad=lambda x: (-0.5 * float(x @ x), -x),
                                 L_known=1.0, name="quad")

        monkeypatch.setattr(adaagm.runner, "build_problem", build)
        config = load_config(DEMO_CONFIG)
        config.output_dir = str(tmp_path / "out")
        results = run_experiment(config)
        status = {(r.problem, r.solver): r.status for r in results}
        assert len(results) == 18
        assert status[("quad", "agm")] == status[("quad", "agm-convex")] == "failed"
        assert status[("quad", "nesterov")] == "diverged"
        assert all(s == "ok" for (p, _), s in status.items() if p != "quad")
        assert not list((tmp_path / "out").glob("quad_*.csv"))
        rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert len(rows) == 19
        assert rows[0] == ("problem,solver,seed,status,iterations,final_gap,"
                           "final_grad_norm,q,certificates,restarts,fallbacks")


def test_summary_counts_restarts_of_default_cells_only(tmp_path):
    config = load_config(DEMO_CONFIG)
    config.output_dir = str(tmp_path / "out")
    results = run_experiment(config)
    with open(tmp_path / "out" / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    restarts = {(r.problem, r.solver, r.seed): r.restarts for r in results}
    assert [int(row["restarts"]) for row in rows] == list(restarts.values())
    for (problem, solver, seed), n in restarts.items():
        assert (n > 0) == (solver == "agm"), (problem, solver, seed)
        if solver == "agm":  # every epoch start is a recorded row with t == t0
            params = default_params(build_problem(config.problems[
                [p.name for p in config.problems].index(problem)]))
            trace = read_trace_csv(tmp_path / "out" / f"{problem}_agm_{seed}.csv")
            assert sum(r.t == params.t0 for r in trace.records) == n + 1


def test_summary_counts_fallbacks_of_adaagm_cells_only(tmp_path):
    config = load_config(DEMO_CONFIG)
    config.output_dir = str(tmp_path / "out")
    results = run_experiment(config)
    with open(tmp_path / "out" / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["fallbacks"]) for row in rows] == [r.fallbacks for r in results]
    for r in results:
        if r.solver == "nesterov":
            assert r.fallbacks == 0
        else:  # a loop iteration takes the band at most once
            assert 0 <= r.fallbacks <= r.iterations
    assert any(r.fallbacks > 0 for r in results)


def test_demo_problems_load_no_scipy_linalg():
    # SciPy adds about 24 MB of resident memory; NumPy's dense solve and
    # exp/logaddexp are all the oracles and the reference solve need
    code = ("import sys\n"
            "from adaagm.config import build_problem, load_config\n"
            f"config = load_config({DEMO_CONFIG!r})\n"
            "problems = [build_problem(s, config.base_dir) for s in config.problems]\n"
            "assert len(problems) == 3 and problems[2].x_star is not None\n"
            "for p in problems: p.value_and_grad(p.x_star)\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
