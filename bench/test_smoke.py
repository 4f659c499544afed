"""Smoke test of the benchmark at tiny sizes.

Run with ``python -m pytest bench/test_smoke.py``.  Every workload runs once
untraced and once traced; the test checks that every metric named in
``BENCHMARK.json`` is reported with its unit and that the wrappers of the
traced run leave iteration and oracle-call counts unchanged.
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [m[:3] for m in harness.PER_LAYER]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run(workload, tmp_path):
    plain = harness.run_workload(workload, 3, 0, False, ROOT, str(tmp_path / "plain"), tiny=True)
    traced = harness.run_workload(workload, 3, 0, True, ROOT, str(tmp_path / "traced"), tiny=True)
    for result in (plain, traced):
        assert result["correct"], result["errors"] + result["count_mismatches"]
        assert result["failed"] == 0 and result["attempted"] > 0
    assert _units(plain) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert _units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    lines = run.report(plain) + run.report(traced)
    for name, unit in {**_units(plain), **_units(traced)}.items():
        assert any(l.startswith(f"metric {name} ") and l.endswith(f" {unit}") for l in lines), name
    # the traced wrappers change no arithmetic: same counts, same output files
    assert plain["cell_counts"] == traced["cell_counts"]
    assert traced["digests_match_untraced"]
    assert plain["digests"] == traced["digests"]


def test_failed_check_fails_the_run(tmp_path, monkeypatch):
    build = workloads.build

    def wrong_f_star(*args, **kwargs):
        work = build(*args, **kwargs)
        work.f_star = {name: f + 1.0 for name, f in work.f_star.items()}
        return work

    monkeypatch.setattr(workloads, "build", wrong_f_star)
    result = harness.run_workload("demo-matrix", 3, 0, False, ROOT, str(tmp_path), tiny=True)
    assert not result["correct"]
    assert result["failed"] > 0
