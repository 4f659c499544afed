import os

import pytest

from adaagm.cli import main
from adaagm.diagnostics import CERTIFICATE_KINDS

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


@pytest.mark.parametrize("verb", ["run", "validate"])
@pytest.mark.parametrize("old,new,section,fragment", [
    pytest.param("seeds = 0", "seeds = a", "[experiment]", "'a'", id="seeds"),
    pytest.param("seeds = 0", "seeds =", "[experiment]",
                 "seeds must list at least one seed", id="empty-seeds"),
    pytest.param("thinning = 1", "thinning = x", "[experiment]", "'x'", id="thinning"),
    pytest.param("profile = cor-4.4", "profile = cor-4.4\nm = abc", "[solver agm]",
                 "'abc'", id="m"),
    pytest.param("profile = cor-4.4", "profile = custom\nm = 0.99\nt0 = 3\nbeta = 0.3",
                 "[solver agm]", "missing key 'gamma'", id="custom-without-gamma"),
    pytest.param("grad_tol = 1e-9", "grad_tol = -1", "[solver agm]",
                 "grad_tol must be a non-negative number", id="negative-grad-tol"),
    pytest.param("grad_tol = 1e-9", "grad_tol = nan", "[solver agm]",
                 "grad_tol must be a non-negative number", id="nan-grad-tol"),
    pytest.param("grad_tol = 1e-9", "gap_tol = -1e-3", "[solver agm]",
                 "gap_tol must be a non-negative number", id="negative-gap-tol"),
    pytest.param("grad_tol = 1e-9", "gap_tol = nan", "[solver agm]",
                 "gap_tol must be a non-negative number", id="nan-gap-tol"),
    pytest.param("profile = cor-4.4", "profile = default\nm = 0.5\ns0 = 123", "[solver agm]",
                 "profile = default takes no m, s0", id="default-with-fields"),
    pytest.param("profile = cor-4.4", "t0 = 3", "[solver agm]",
                 "profile = default takes no t0", id="no-profile-with-field"),
    *[pytest.param("algorithm = adaagm\nprofile = cor-4.4", f"algorithm = nesterov\nstep = {step}",
                   "[solver agm]", "step must be a positive finite number", id=f"step-{step}")
      for step in ("-0.5", "0", "inf", "nan")],
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

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:step")
    def test_divergence_exit_two(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG + "\n[solver bad]\nalgorithm = gd\nstep = 10\n"
                        "max_iters = 300\n")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2


class TestCertify:
    @pytest.fixture()
    def trace_path(self, config_path, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["run", config_path, "--out", str(out_dir)]) == 0
        return str(out_dir / "quad_agm_0.csv")

    def test_pass(self, trace_path, config_path, capsys):
        assert main(["certify", trace_path, "--problem", config_path,
                     "--profile", "cor-4.4", "--kind", "sublinear"]) == 0
        out = capsys.readouterr().out
        assert "kind=sublinear" in out and "PASS" in out

    def test_all_kinds_on_real_trace(self, trace_path, config_path):
        for kind in ("sublinear", "step_floor", "step_cap", "energy_monotone",
                     "grad_summable"):
            assert main(["certify", trace_path, "--problem", config_path,
                         "--profile", "cor-4.4", "--kind", kind]) == 0

    def test_violations_csv_written(self, trace_path, config_path, tmp_path):
        out_dir = tmp_path / "certs"
        assert main(["certify", trace_path, "--problem", config_path,
                     "--profile", "cor-4.4", "--kind", "step_floor",
                     "--out", str(out_dir)]) == 0
        assert (out_dir / "violations_step_floor.csv").exists()

    def test_wrong_profile_fails_cleanly(self, trace_path, config_path, capsys):
        # linear certificate needs the strongly convex profile's omega/delta
        assert main(["certify", trace_path, "--problem", config_path,
                     "--profile", "cor-4.4", "--kind", "linear"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_trace(self, config_path, tmp_path, capsys):
        assert main(["certify", str(tmp_path / "gone.csv"), "--problem",
                     config_path, "--profile", "cor-4.4",
                     "--kind", "sublinear"]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_unknown_kind_rejected_by_parser(self, trace_path, config_path):
        with pytest.raises(SystemExit):
            main(["certify", trace_path, "--problem", config_path,
                  "--profile", "cor-4.4", "--kind", "bogus"])


def test_certify_default_profile_on_demo_trace(tmp_path, capsys):
    # --profile default resolves per problem as the run's profile = default:
    # sc-2 at m = 1/2 on the strongly convex quad, so every kind applies
    out_dir = tmp_path / "out"
    assert main(["run", DEMO, "--out", str(out_dir)]) == 0
    trace = str(out_dir / "quad_agm_0.csv")
    capsys.readouterr()
    for kind in CERTIFICATE_KINDS:
        assert main(["certify", trace, "--problem", DEMO, "--profile", "default",
                     "--kind", kind]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == len(CERTIFICATE_KINDS) and "FAIL" not in out
    assert "q=0.0625 " in out
    # the paper profile's m = 0.99 caps the step far below the steps taken
    assert main(["certify", trace, "--problem", DEMO, "--profile", "sc-2",
                 "--kind", "step_cap"]) == 0
    assert "FAIL" in capsys.readouterr().out
