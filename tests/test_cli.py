import csv
import itertools
import math
import os
import shutil
from dataclasses import replace

import pytest

from adaagm.cli import main
from adaagm.config import build_problem, load_config
from adaagm.diagnostics import CERTIFICATE_KINDS, certify
from adaagm.runner import run_experiment
from adaagm.schedule import PROFILES, default_params
from adaagm.solver import read_trace_csv

DEMO = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.ini")

CONFIG = """
[experiment]
seeds = 0
thinning = 1

[problem quad]
kind = quadratic
diag = 1 100
offset = 1 100

[solver agm]
algorithm = adaagm
profile = cor-4.4
max_iters = 500
grad_tol = 1e-9
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG)
    return str(path)


class TestValidate:
    def test_ok_prints_floor(self, config_path, capsys):
        assert main(["validate", config_path]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "solver agm on problem quad: step floor constant q = 0.2\n" in out

    def test_demo_config_prints_q_the_run_uses(self, capsys):
        assert main(["validate", DEMO]) == 0
        out = capsys.readouterr().out
        assert "solver agm on problem quad: step floor constant q = 0.0625\n" in out
        assert "solver agm on problem lse: step floor constant q = 0.2\n" in out
        assert "solver agm-convex on problem logit: step floor constant q = 0.2\n" in out

    def test_bad_config_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[problem p]\nkind = quadratic\ndiag = 1 -1\n"
                        "[solver s]\nalgorithm = adaagm\n")
        assert main(["validate", str(path)]) == 1
        assert "error" in capsys.readouterr().err


QUAD = "kind = quadratic\ndiag = 1 100\noffset = 1 100"
LSE = "kind = log_sum_exp\nrows = 1 0; 0 1"
LOGIT = "kind = logistic\nfeatures = 1 0; 0 1\nlabels = 1 -1"


@pytest.mark.parametrize("verb", ["run", "validate"])
@pytest.mark.parametrize("old,new,section,fragment", [
    pytest.param("seeds = 0", "seeds = a", "[experiment]", "'a'", id="seeds"),
    pytest.param("seeds = 0", "seeds =", "[experiment]",
                 "seeds must list at least one seed", id="empty-seeds"),
    pytest.param("thinning = 1", "thinning = x", "[experiment]", "'x'", id="thinning"),
    # parameters come from the profile alone: a field is an unknown key
    pytest.param("profile = cor-4.4", "profile = cor-4.4\nm = 0.5",
                 "unknown keys in [solver agm] for algorithm 'adaagm'", "['m']", id="m"),
    pytest.param("grad_tol = 1e-9", "grad_tol = -1", "[solver agm]",
                 "grad_tol must be a non-negative number", id="negative-grad-tol"),
    pytest.param("grad_tol = 1e-9", "grad_tol = nan", "[solver agm]",
                 "grad_tol must be a non-negative number", id="nan-grad-tol"),
    pytest.param("grad_tol = 1e-9", "gap_tol = -1e-3", "[solver agm]",
                 "gap_tol must be a non-negative number", id="negative-gap-tol"),
    pytest.param("grad_tol = 1e-9", "gap_tol = nan", "[solver agm]",
                 "gap_tol must be a non-negative number", id="nan-gap-tol"),
    # an infinite tolerance stopped every cell at k = 0, reported ok
    pytest.param("grad_tol = 1e-9", "grad_tol = inf", "[solver agm]",
                 "grad_tol must be a non-negative number and finite", id="inf-grad-tol"),
    pytest.param("grad_tol = 1e-9", "gap_tol = inf", "[solver agm]",
                 "gap_tol must be a non-negative number and finite", id="inf-gap-tol"),
    pytest.param("profile = cor-4.4", "profile = default\nm = 0.5\ns0 = 123",
                 "unknown keys in [solver agm] for algorithm 'adaagm'", "['m', 's0']",
                 id="default-with-fields"),
    pytest.param("profile = cor-4.4", "t0 = 3",
                 "unknown keys in [solver agm] for algorithm 'adaagm'", "['t0']",
                 id="no-profile-with-field"),
    pytest.param("seeds = 0", "seeds = 0 %", "[experiment]", "'%'", id="bare-percent"),
    pytest.param("kind = quadratic\ndiag = 1 100\noffset = 1 100",
                 "kind = logistic\nfeatures = 1 0; 0 1", "problem quad", "needs labels",
                 id="logistic-without-labels"),
    *[pytest.param("algorithm = adaagm\nprofile = cor-4.4", f"algorithm = nesterov\nstep = {step}",
                   "[solver agm]", "step must be a positive finite number", id=f"step-{step}")
      for step in ("-0.5", "0", "inf", "nan")],
    # run names the problem that fails to build, as validate does
    pytest.param("diag = 1 100", "diag = 1 -100", "problem quad",
                 "matrix must be positive semidefinite", id="indefinite"),
    # non-finite inputs once passed validate and ran as "diverged iters=0"
    pytest.param("offset = 1 100", "offset = 1 nan", "problem quad", "offset must be finite",
                 id="offset-nan"),
    pytest.param("diag = 1 100", "diag = 1 inf", "problem quad", "matrix must be finite",
                 id="diag-inf"),
    # NaN once read as an asymmetric matrix
    pytest.param("diag = 1 100", "diag = 1 nan", "problem quad", "matrix must be finite",
                 id="diag-nan"),
    pytest.param(QUAD, LSE + "\nshifts = 0 nan", "problem quad", "shifts must be finite",
                 id="shifts-nan"),
    pytest.param(QUAD, "kind = log_sum_exp\nrows = 1 0; 0 inf", "problem quad",
                 "rows must be finite", id="rows-inf"),
    *[pytest.param(QUAD, f"{LSE}\ntemperature = {t}", "problem quad",
                   "temperature must be positive and finite", id=f"temperature-{t}")
      for t in ("nan", "inf")],
    *[pytest.param(QUAD, f"{LOGIT}\nridge = {r}", "problem quad",
                   "ridge must be nonnegative and finite", id=f"ridge-{r}")
      for r in ("nan", "inf")],
    pytest.param(QUAD, "kind = logistic\nfeatures = 1 0; 0 nan\nlabels = 1 -1", "problem quad",
                 "features must be finite", id="features-nan"),
    pytest.param("seeds = 0", "seeds = 0\nx0_scale = nan", "[experiment]",
                 "x0_scale must be finite", id="x0-scale-nan"),
    pytest.param("[solver agm]", "[problem quad]\nkind = quadratic\ndiag = 1\n\n[solver agm]",
                 "parse failure", "section 'problem quad' already exists",
                 id="duplicate-section"),
    pytest.param(QUAD, "diag = 1 100", "[problem quad]", "unknown or missing kind None",
                 id="missing-kind"),
    pytest.param(QUAD, "kind = cubic\ndiag = 1 100", "[problem quad]",
                 "unknown or missing kind 'cubic'", id="unknown-kind"),
])
def test_malformed_value_exit_one(tmp_path, capsys, verb, old, new, section, fragment):
    path = tmp_path / "bad.ini"
    path.write_text(CONFIG.replace(old, new))
    out = ["--out", str(tmp_path / "out")] if verb == "run" else []
    assert main([verb, str(path), *out]) == 1
    err = capsys.readouterr().err
    assert f"error: {section}: " in err and fragment in err
    if verb == "run":
        assert "config error" in err


def _exit_and_error(tmp_path, capsys, verb, text):
    """Exit code and stderr of ``verb`` on a config file holding ``text``."""
    path = tmp_path / "exp.ini"
    path.write_text(text)
    out = ["--out", str(tmp_path / "out")] if verb == "run" else []
    return main([verb, str(path), *out]), capsys.readouterr().err


COLLIDING = """
[problem a_b]
kind = quadratic
diag = 1

[problem a]
kind = quadratic
diag = 1

[solver c]
algorithm = nesterov

[solver b_c]
algorithm = nesterov
"""


@pytest.mark.parametrize("verb", ["run", "validate"])
@pytest.mark.parametrize("text,message", [
    pytest.param(COLLIDING, "cells a_b x c seed=0 and a x b_c seed=0 would both write "
                 "trace a_b_c_0.csv", id="names"),
    pytest.param(CONFIG.replace("seeds = 0", "seeds = 0 0"), "cells quad x agm seed=0 and "
                 "quad x agm seed=0 would both write trace quad_agm_0.csv", id="repeated-seed"),
])
def test_cells_sharing_a_trace_file_exit_one(tmp_path, capsys, verb, text, message):
    code, err = _exit_and_error(tmp_path, capsys, verb, text)
    assert (code, err) == (1, f"config error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["run", "validate"])
@pytest.mark.parametrize("old,header", [
    # a name becomes part of the trace file name and of summary.csv
    pytest.param("[problem quad]", "problem a/b", id="slash"),
    pytest.param("[problem quad]", "problem a,b", id="comma"),
    pytest.param("[problem quad]", 'problem "q', id="quote"),
    pytest.param("[problem quad]", "problem a b", id="space"),
    # once read as a problem named s and a solver named X
    pytest.param("[problem quad]", "problems", id="problems"),
    pytest.param("[solver agm]", "solverX", id="solverX"),
])
def test_section_header_outside_the_grammar_exit_one(tmp_path, capsys, verb, old, header):
    code, err = _exit_and_error(tmp_path, capsys, verb, CONFIG.replace(old, f"[{header}]"))
    assert code == 1 and err.startswith(f"config error: unknown section [{header}]: ")
    assert not (tmp_path / "out").exists()


def test_run_whose_problem_fails_to_build_leaves_no_output_directory(tmp_path, capsys):
    text = "[problem p]\nkind = quadratic\ndiag = 1 -1\n[solver s]\nalgorithm = adaagm\n"
    code, err = _exit_and_error(tmp_path, capsys, "run", text)
    assert code == 1 and "config error: problem p: " in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["validate", "run"])
def test_names_every_problem_that_fails_to_build(tmp_path, capsys, verb):
    text = (CONFIG.replace("diag = 1 100", "diag = 1 -100")
            + "\n[problem logit]\nkind = logistic\nfeatures = 1 0; 0 1\nlabels = 1 0\n")
    code, err = _exit_and_error(tmp_path, capsys, verb, text)
    assert (code, err) == (1, "config error: problem quad: matrix must be positive "
                              "semidefinite; problem logit: labels must be +1 or -1\n")
    assert not (tmp_path / "out").exists()


def test_run_converging_at_k0_is_ok(tmp_path, capsys):
    # x0 = 0 is the symmetric log-sum-exp's minimizer: each adaagm run stops
    # at k = 0 with a one-row trace, whose energy certificate checks nothing
    text = CONFIG.replace("seeds = 0", "seeds = 0\nx0_scale = 0").replace(
        QUAD, "kind = log_sum_exp\nrows = 1 0; 0 1\nsymmetric = yes") + (
        "\n[solver agm-default]\nalgorithm = adaagm\n")
    code, err = _exit_and_error(tmp_path, capsys, "run", text)
    assert (code, err) == (0, "")
    rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
    assert [r.split(",")[:5] for r in rows] == [
        ["quad", solver, "0", "ok", "0"] for solver in ("agm", "agm-default")]
    for solver in ("agm", "agm-default"):
        trace = read_trace_csv(tmp_path / "out" / f"quad_{solver}_0.csv")
        assert [r.k for r in trace.records] == [0]


def test_percent_is_literal(tmp_path):
    # no interpolation: '%' is an ordinary character in every value
    out_dir = tmp_path / "runs%out"
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG.replace("thinning = 1", f"thinning = 1\noutput_dir = {out_dir}"))
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path)]) == 0
    assert (out_dir / "summary.csv").exists()


class TestRun:
    def test_end_to_end(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["run", config_path, "--out", str(out_dir)]) == 0
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "quad_agm_0.csv").exists()
        stdout = capsys.readouterr().out
        assert "quad x agm seed=0: ok" in stdout
        assert "summary written" in stdout

    def test_missing_config_exit_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "gone.ini")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_thin_flag(self, config_path, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["run", config_path, "--out", str(out_dir), "--thin", "50"]) == 0
        rows = [l for l in (out_dir / "quad_agm_0.csv").read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("k,")]
        ks = [int(r.split(",")[0]) for r in rows]
        assert ks[0] == 0 and ks[1] == 50

    @pytest.mark.parametrize("thin", ["0", "-3"])
    def test_non_positive_thin_is_config_error(self, config_path, tmp_path, capsys, thin):
        assert main(["run", config_path, "--out", str(tmp_path / "out"),
                     "--thin", thin]) == 1
        assert "config error" in capsys.readouterr().err

    def test_tiny_m_runs_with_an_infinite_step_cap(self, config_path, tmp_path):
        # at m = 0.001 the cap s0*exp(g)*k^g, g = 2(1-m)/m, overflows: it is
        # +inf on every row, which checks nothing and cannot fail
        config = load_config(config_path)
        config.solvers[0].params = replace(PROFILES["cor-4.4"], m=0.001)
        config.output_dir = str(tmp_path / "out")
        run_experiment(config)
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[1].startswith("quad,agm,0,ok,")
        assert "step_cap:pass" in summary[1]

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:step")
    def test_divergence_exit_two(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG + "\n[solver bad]\nalgorithm = gd\nstep = 10\n"
                        "max_iters = 300\n")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2


#: L = 0: no certificate applies, and nesterov has no 1/L step to default to
ZERO_L = """
[experiment]
seeds = 0

[problem z]
kind = quadratic
diag = 0 0
offset = 0 0

[solver x]
algorithm = adaagm

[solver nest]
algorithm = nesterov
"""


def test_failed_cell_prints_its_reason(tmp_path, capsys):
    path = tmp_path / "zero.ini"
    path.write_text(ZERO_L)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert ("z x nest seed=0: failed iters=0 certs=- (solver nest needs an explicit step: "
            "problem z has no known L)\n") in capsys.readouterr().out
    # the reason stays out of summary.csv, which has no column for it
    assert (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:] == [
        "z,x,0,ok,0,0,0,0.20000000000000001,-,0,0", "z,nest,0,failed,0,,,,-,0,0"]


def test_certify_without_a_certificate_says_why(tmp_path, capsys):
    path = tmp_path / "zero.ini"
    path.write_text(ZERO_L)
    main(["run", str(path), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert main(["certify", str(tmp_path / "out" / "z_x_0.csv"), "--problem", str(path)]) == 0
    assert capsys.readouterr().out == "no certificate applies: problem z has no known L > 0\n"


def _kinds(out: str) -> list[str]:
    """The kinds of ``certify``'s printed lines, in order."""
    return [line.split()[0][len("kind="):] for line in out.splitlines()]


class TestCertify:
    @pytest.fixture()
    def trace_path(self, config_path, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["run", config_path, "--out", str(out_dir)]) == 0
        return str(out_dir / "quad_agm_0.csv")

    def test_pass(self, trace_path, config_path, capsys):
        assert main(["certify", trace_path, "--problem", config_path]) == 0
        out = capsys.readouterr().out
        assert "kind=sublinear" in out and "PASS" in out

    def test_all_kinds_on_real_trace(self, trace_path, config_path, capsys):
        # the convex profile's cell gets the four kinds the run applied to it,
        # not the strongly convex ones (linear, grad_summable)
        assert main(["certify", trace_path, "--problem", config_path]) == 0
        out = capsys.readouterr().out
        assert _kinds(out) == ["step_floor", "step_cap", "sublinear", "energy_monotone"]
        assert all(" PASS checks=" in line for line in out.splitlines())

    def test_violations_csv_written(self, trace_path, config_path, tmp_path):
        out_dir = tmp_path / "certs"
        assert main(["certify", trace_path, "--problem", config_path,
                     "--out", str(out_dir)]) == 0
        assert (out_dir / "violations.csv").read_text() == "kind,k,lhs,rhs\n"

    def test_step_below_its_floor_exits_three(self, trace_path, config_path, tmp_path,
                                              capsys):
        # s at k = 5 forced far below q/L: step_floor fails, the other kinds hold
        lines = (tmp_path / "out" / "quad_agm_0.csv").read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("5,"))
        fields = lines[i].split(",")
        fields[3] = "1e-12"
        lines[i] = ",".join(fields)
        corrupted = tmp_path / "quad_agm_0.csv"
        corrupted.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "certs"
        capsys.readouterr()
        assert main(["certify", str(corrupted), "--problem", config_path,
                     "--out", str(out_dir)]) == 3
        out = capsys.readouterr().out.splitlines()
        assert _kinds("\n".join(out[:-1])) == ["step_floor", "step_cap", "sublinear",
                                               "energy_monotone"]
        assert " FAIL(1) checks=" in out[0] and "FAIL" not in "\n".join(out[1:])
        violations = (out_dir / "violations.csv").read_text().splitlines()
        assert violations[0] == "kind,k,lhs,rhs"
        assert [v.split(",")[:2] for v in violations[1:]] == [["step_floor", "5"]]

    def test_header_only_trace_exit_one(self, trace_path, config_path, tmp_path, capsys):
        # the comment lines and the column header of a real trace, no row
        lines = (tmp_path / "out" / "quad_agm_0.csv").read_text().splitlines()
        header = lines[:next(i for i, line in enumerate(lines) if line[:1].isdigit())]
        assert header[-1].startswith("k,")
        empty = tmp_path / "quad_agm_0.csv"
        empty.write_text("\n".join(header) + "\n")
        capsys.readouterr()
        assert main(["certify", str(empty), "--problem", config_path]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"config error: cannot read trace: trace file {empty} has no rows\n")

    def test_missing_trace(self, config_path, tmp_path, capsys):
        assert main(["certify", str(tmp_path / "gone.csv"), "--problem",
                     config_path]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_missing_problem_file(self, trace_path, tmp_path, capsys):
        path = tmp_path / "gone_matrix.ini"
        path.write_text(CONFIG.replace("diag = 1 100", "matrix_csv = gone.csv"))
        assert main(["certify", trace_path, "--problem", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "gone.csv" in err

    def test_unknown_kind_rejected_by_parser(self, trace_path, config_path):
        # the cell's kinds come from the run: certify takes no --kind at all
        for kind in ("bogus", "sublinear"):
            with pytest.raises(SystemExit):
                main(["certify", trace_path, "--problem", config_path, "--kind", kind])


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("demo") / "runs"
    assert main(["run", DEMO, "--out", str(out_dir)]) == 0
    return out_dir


def test_certify_default_profile_on_demo_trace(demo_runs, capsys):
    # certify resolves profile = default per problem as the run did: sc-2
    # at m = 1/2 on the strongly convex quad, so every kind applies
    trace = str(demo_runs / "quad_agm_0.csv")
    capsys.readouterr()
    assert main(["certify", trace, "--problem", DEMO]) == 0
    out = capsys.readouterr().out
    assert sorted(_kinds(out)) == sorted(CERTIFICATE_KINDS)
    # at the shipped thinning 10 the only adjacent recorded rows are an
    # epoch start off the thinning grid and its successor, and the energy
    # certificate compares exactly those
    recs = read_trace_csv(trace).records
    problem = build_problem(load_config(DEMO).problems[0])
    params = default_params(problem)
    epoch = list(itertools.accumulate(r.t == params.t0 for r in recs))
    pairs = sum(b.k == a.k + 1 and eb == ea
                for a, b, ea, eb in zip(recs, recs[1:], epoch, epoch[1:]))
    lines = {line.split()[0]: line for line in out.splitlines()}
    energy = lines.pop("kind=energy_monotone")
    assert (f"PASS checks={pairs} " if pairs else "VACUOUS checks=0 ") in energy
    assert all("PASS" in line for line in lines.values()) and "FAIL" not in out
    epochs = epoch[-1]
    assert epochs > 1 and all(f"epochs={epochs} " in line for line in out.splitlines())
    assert all("checks=" in line for line in out.splitlines())
    assert "q=0.0625 " in out
    # the paper profile's m = 0.99 caps the step far below the steps taken
    assert not certify(read_trace_csv(trace), problem, PROFILES["sc-2"], "step_cap").passed


@pytest.mark.parametrize("problem", ["lse", "logit"])
def test_certify_uses_the_constants_of_the_traces_own_problem(demo_runs, capsys, problem):
    # as for quad above, each later demo agm trace is certified with its own
    # problem and resolved profile, and every kind its summary row lists
    # passes (energy_monotone may check no pair at thinning 10, as on lse)
    rows = (demo_runs / "summary.csv").read_text().splitlines()
    row = next(r.split(",") for r in rows if r.startswith(f"{problem},agm,0,"))
    kinds = [v.split(":")[0] for v in row[8].split(";")]
    assert kinds
    assert main(["certify", str(demo_runs / f"{problem}_agm_0.csv"), "--problem", DEMO]) == 0
    out = capsys.readouterr().out
    assert _kinds(out) == kinds
    for kind, line in zip(kinds, out.splitlines()):
        assert (" PASS checks=" in line or " VACUOUS checks=0 " in line) and "FAIL" not in line
        assert f"q={float(row[7]):.12g} " in line
        if kind == "sublinear" and problem == "lse":
            assert "q=0.2 D=48.9137880393 " in line


def test_named_profile_cell_starts_from_the_local_probe(demo_runs):
    # at m = 0.99 the step only creeps up from s0; from q/L instead of the
    # probe's q/L_hat(x0), this cell took 3,062 iterations
    rows = (demo_runs / "summary.csv").read_text().splitlines()
    row = next(r.split(",") for r in rows if r.startswith("lse,agm-convex,0,"))
    assert row[3] == "ok" and int(row[4]) < 1000


def test_certify_rejects_a_nesterov_trace(demo_runs, tmp_path, capsys):
    trace = demo_runs / "quad_nesterov_0.csv"
    assert main(["certify", str(trace), "--problem", DEMO]) == 1
    assert ("trace quad_nesterov_0.csv (nesterov) is not written by an adaagm cell"
            in capsys.readouterr().err)
    # under an adaagm cell's name, its algorithm line still gives it away
    renamed = tmp_path / "quad_agm_0.csv"
    renamed.write_text(trace.read_text())
    assert main(["certify", str(renamed), "--problem", DEMO]) == 1
    assert ("trace quad_agm_0.csv (nesterov) is not written by an adaagm cell"
            in capsys.readouterr().err)


def test_certify_rejects_a_trace_name_no_cell_writes(demo_runs, tmp_path, capsys):
    trace = tmp_path / "quad_agm_7.csv"  # seed 7 is not listed
    trace.write_text((demo_runs / "quad_agm_0.csv").read_text())
    assert main(["certify", str(trace), "--problem", DEMO]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: trace quad_agm_7.csv (adaagm) is not written by an "
                          "adaagm cell")
    assert "<problem>_<solver>_<seed>.csv" in err


def test_passing_certificates_show_their_slack(tmp_path, capsys):
    # the demo's quad_agm_0 trace (seed 0, thinning 10): every kind passes
    # and prints the worst relative slack it held by, negative except where
    # the gap, a multiple of f*'s ulp, meets a restarted bound below one ulp
    trace = tmp_path / "quad_agm_0.csv"
    shutil.copy(os.path.join(os.path.dirname(__file__), "data", "format2_default_quad.csv"),
                trace)
    assert main(["certify", str(trace), "--problem", DEMO]) == 0
    out = capsys.readouterr().out
    assert sorted(_kinds(out)) == sorted(CERTIFICATE_KINDS)
    quad = next(p for p in load_config(DEMO).problems if p.name == "quad")
    ulp = math.ulp(build_problem(quad).f_star)
    for kind, line in zip(_kinds(out), out.splitlines()):
        assert " PASS checks=" in line
        worst = float(line.rsplit(" worst_rel=", 1)[1])
        assert worst <= ulp if kind in ("sublinear", "linear") else worst < 0.0


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("solver", ["agm", "agm-convex"])
@pytest.mark.parametrize("problem", ["quad", "lse", "logit"])
def test_certify_prints_the_verdicts_of_the_cells_summary_row(demo_runs, capsys, problem,
                                                               solver, seed):
    with open(demo_runs / "summary.csv", newline="") as fh:
        row = next(r for r in csv.DictReader(fh)
                   if (r["problem"], r["solver"], r["seed"]) == (problem, solver, str(seed)))
    capsys.readouterr()
    assert main(["certify", str(demo_runs / f"{problem}_{solver}_{seed}.csv"),
                 "--problem", DEMO]) == 0
    out = capsys.readouterr().out
    verdicts = [f"{kind}:{'fail' if ' FAIL(' in line else 'pass'}"
                for kind, line in zip(_kinds(out), out.splitlines())]
    assert ";".join(verdicts) == row["certificates"]
