"""The per-cell iteration counts ``scripts/bench_record.py`` reads from a
benchmark run's ``summary.csv``, and its per-metric summary of the runs; no
benchmark is run."""

import importlib.util
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(os.path.dirname(__file__), "..", "scripts", "bench_record.py"))
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

HEADER = ("problem,solver,seed,status,iterations,final_gap,final_grad_norm,q,certificates,"
          "restarts,fallbacks,oracle_calls")


def _summary(path, rows):
    lines = [HEADER] + [f"{p},{s},{seed},ok,{n},0,1e-10,0.2,step_floor:pass,0,0,{n + 2}"
                        for p, s, seed, n in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture()
def two_runs(tmp_path):
    parent = _summary(tmp_path / "parent.csv", [
        ("quad", "agm", 136, 193), ("quad", "agm-convex", 136, 2000),
        ("quad", "nesterov", 136, 900), ("logit", "agm", 136, 96),
    ])
    change = _summary(tmp_path / "change.csv", [
        ("quad", "agm", 136, 190), ("quad", "agm-convex", 136, 2000),
        ("quad", "nesterov", 136, 900), ("logit", "agm", 136, 98),
    ])
    return bench_record.read_iterations(parent), bench_record.read_iterations(change)


def test_counts_are_read_per_cell(two_runs):
    parent, _ = two_runs
    assert parent == {("quad", "agm", "136"): 193, ("quad", "agm-convex", "136"): 2000,
                      ("quad", "nesterov", "136"): 900, ("logit", "agm", "136"): 96}


def test_sections_sum_their_cells(two_runs):
    parent, change = two_runs
    assert bench_record.section_sums(parent) == {"agm": 289, "agm-convex": 2000,
                                                 "nesterov": 900}
    assert bench_record.section_sums(change) == {"agm": 288, "agm-convex": 2000,
                                                 "nesterov": 900}


def test_rises_name_only_the_cells_that_rose(two_runs):
    parent, change = two_runs
    assert bench_record.rises(parent, change) == [
        {"problem": "logit", "solver": "agm", "seed": "136", "from": 96, "to": 98}]
    assert bench_record.rises(change, parent) == [
        {"problem": "quad", "solver": "agm", "seed": "136", "from": 190, "to": 193}]
    assert bench_record.rises(parent, parent) == []


def test_counts_that_differ_between_repeats_stop_the_record(two_runs):
    parent, change = two_runs
    store = {}
    bench_record.keep_counts(store, "parent", "demo-matrix/seed17", parent)
    bench_record.keep_counts(store, "parent", "demo-matrix/seed17", dict(parent))
    bench_record.keep_counts(store, "change", "demo-matrix/seed17", change)
    assert store == {("parent", "demo-matrix/seed17"): parent,
                     ("change", "demo-matrix/seed17"): change}
    with pytest.raises(RuntimeError, match="parent demo-matrix/seed17: iteration counts differ"):
        bench_record.keep_counts(store, "parent", "demo-matrix/seed17", change)


def test_summary_keeps_every_run_value_in_run_order():
    runs = [{"metrics": {"peak_rss_mb": {"value": v, "unit": "MB"}}, "shares": {},
             "correct": True, "repetitions": 3} for v in (52.5, 50.25, 51.0)]
    metric = bench_record.summarize(runs)["metrics"]["peak_rss_mb"]
    assert metric["values"] == [52.5, 50.25, 51.0]
    assert (metric["median"], metric["n"]) == (51.0, 3)
