"""The per-cell iteration counts ``scripts/bench_record.py`` reads from a
benchmark run's ``summary.csv``, its per-metric summary of the runs and its
digest comparison; no benchmark is run."""

import importlib.util
import json
import os
import pathlib

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


def test_problem_sections_sum_their_cells_over_seeds(tmp_path):
    counts = bench_record.read_iterations(_summary(tmp_path / "s.csv", [
        ("lse", "nesterov", 136, 3000), ("lse", "nesterov", 137, 102),
        ("lse", "agm", 136, 40), ("quad", "nesterov", 136, 900)]))
    sums = bench_record.problem_section_sums(counts)
    assert sums == {"lse/agm": 40, "lse/nesterov": 3102, "quad/nesterov": 900}
    assert list(sums) == sorted(sums)


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


def test_digests_differ_names_changed_and_one_sided_files():
    base = {"summary.csv": "aa", "q_agm_0.csv": "bb", "q_agm_1.csv": "cc"}
    other = {"summary.csv": "aa", "q_agm_0.csv": "bX", "q_new_0.csv": "dd"}
    assert bench_record.digests_differ(base, other) == ["q_agm_0.csv", "q_agm_1.csv",
                                                         "q_new_0.csv"]
    assert bench_record.digests_differ(base, dict(base)) == []


def _fake_checkouts(tmp_path, monkeypatch, digests):
    """Two checkouts whose ``bench/run.py`` is replaced by fake results:
    ``digests[label]`` lists the digests of each of that label's runs in turn."""
    args = []
    for label in digests:
        root = tmp_path / label
        root.mkdir()
        (root / "BENCHMARK.json").write_text(
            json.dumps({"run_seconds": 1, "workloads": [{"name": "w"}]}))
        args += ["--checkout", f"{label}={root}"]
    runs = {str(tmp_path / label): iter(values) for label, values in digests.items()}

    def run_once(root, workload, seed, seconds):
        out = os.path.join(root, ".bench_out", f"{workload}-seed{seed}-trace0", "runs")
        os.makedirs(out, exist_ok=True)
        _summary(pathlib.Path(out) / "summary.csv", [("quad", "agm", seed, 193)])
        return {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}, "shares": {},
                "correct": True, "repetitions": 1, "environment": {},
                "digests": next(runs[root])}

    monkeypatch.setattr(bench_record, "run_once", run_once)
    return args + ["--seed", "17", "--repeats", "2", "--out", str(tmp_path / "out.json")]


def test_record_names_the_files_whose_digest_differs(tmp_path, monkeypatch):
    same, changed = {"summary.csv": "aa", "t.csv": "bb"}, {"summary.csv": "aa", "t.csv": "bX"}
    argv = _fake_checkouts(tmp_path, monkeypatch, {"parent": [same, same],
                                                  "change": [changed, changed],
                                                  "twin": [same, same]})
    assert bench_record.main(argv) == 0
    out = json.loads((tmp_path / "out.json").read_text())
    assert out["digests_differ"] == {"change": {"w/seed17": ["t.csv"]},
                                     "twin": {"w/seed17": []}}
    assert out["checkouts"]["parent"]["cells"]["w/seed17"]["digest_files"] == 2


def test_digests_that_differ_between_repeats_stop_the_record(tmp_path, monkeypatch):
    a, b = {"summary.csv": "aa"}, {"summary.csv": "ab"}
    argv = _fake_checkouts(tmp_path, monkeypatch, {"parent": [a, b], "change": [a, a]})
    with pytest.raises(RuntimeError, match="^parent w/seed17: digests differ between repeats$"):
        bench_record.main(argv)
    assert not (tmp_path / "out.json").exists()


def test_record_counts_each_checkouts_src_lines(tmp_path, monkeypatch):
    same = {"summary.csv": "aa"}
    argv = _fake_checkouts(tmp_path, monkeypatch, {"parent": [same, same],
                                                  "change": [same, same]})
    for label, files in {"parent": {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"},
                         "change": {"a.py": "x = 1\n", "notes.txt": "not\ncounted\n"}}.items():
        src = tmp_path / label / "src" / "adaagm"
        src.mkdir(parents=True)
        for name, text in files.items():
            (src / name).write_text(text)
    assert bench_record.main(argv) == 0
    out = json.loads((tmp_path / "out.json").read_text())
    assert {label: c["src_lines"] for label, c in out["checkouts"].items()} == {
        "parent": 3, "change": 1}


def test_record_sums_iterations_per_problem_and_section(tmp_path, monkeypatch):
    same = {"summary.csv": "aa"}
    argv = _fake_checkouts(tmp_path, monkeypatch, {"parent": [same, same],
                                                  "change": [same, same]})
    assert bench_record.main(argv) == 0
    out = json.loads((tmp_path / "out.json").read_text())
    assert out["checkouts"]["change"]["cells"]["w/seed17"]["iterations_by_problem"] == {
        "quad/agm": 193}
