"""``scripts/rewrite_traces.py`` on every trace of a demo run at thinning 1:
each trace read back and written again gives its own bytes."""

import importlib.util
import os

from adaagm.cli import main
from adaagm.solver import read_trace_csv

_ROOT = os.path.join(os.path.dirname(__file__), "..")
_SPEC = importlib.util.spec_from_file_location(
    "rewrite_traces", os.path.join(_ROOT, "scripts", "rewrite_traces.py"))
rewrite_traces = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(rewrite_traces)

#: a gradient descent section
EXTRA_SOLVERS = """
[solver gd]
algorithm = gd
max_iters = 500
grad_tol = 1e-9
"""


def test_every_demo_trace_rewrites_to_its_own_bytes(tmp_path):
    with open(os.path.join(_ROOT, "configs", "benchmark.ini")) as fh:
        demo = fh.read()
    config = tmp_path / "demo.ini"
    config.write_text(demo + EXTRA_SOLVERS)
    runs = tmp_path / "runs"
    assert main(["run", str(config), "--out", str(runs), "--thin", "1"]) == 0
    traces = sorted(p for p in runs.glob("*.csv") if p.name != "summary.csv")
    assert len(traces) == 3 * 4 * 2  # problems x solvers x seeds
    algorithms = {p.read_text().splitlines()[1] for p in traces}
    assert algorithms == {f"# algorithm = {a}" for a in ("adaagm", "gd", "nesterov")}
    # gradient descent is the t-recursion at m = 0, where t stays 1
    assert (read_trace_csv(runs / "quad_gd_0.csv").column("t") == 1.0).all()

    out = tmp_path / "rewritten"
    assert rewrite_traces.main([str(out), *map(str, traces)]) == 0
    for path in traces:
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def test_usage_without_arguments(capsys):
    assert rewrite_traces.main([]) == 2
    assert "OUT_DIR" in capsys.readouterr().err
