"""Repetitions of one workload, their correctness checks and their metrics.

A repetition loads the workload's config, runs the experiment matrix
through ``runner.run_experiment``, reads every trace back with
``solver.read_trace_csv`` and re-checks every certificate named in
``summary.csv`` from the file, as ``adaagm-bench certify`` does.  The
untraced mode repeats this for the requested time and reports the
end-to-end metrics as medians over repetitions; the traced mode alternates
an untraced and a traced repetition and reports the per-layer metrics.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np
import scipy

import adaagm.diagnostics
from adaagm.config import build_problem, load_config, start_point
from adaagm.runner import run_experiment
from adaagm.schedule import default_params
from adaagm.solver import read_trace_csv

import checks
import workloads
from probes import GRADIENT_OPS, REFERENCE_SPAN, Recorder

# (name, unit, better) of each end-to-end metric, measured untraced.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("certify_s", "s", "lower"),
    ("io_s", "s", "lower"),
    ("us_per_iter.adaagm", "us", "lower"),
    ("us_per_iter.nesterov", "us", "lower"),
    ("iters.adaagm", "count", "lower"),
    ("iters.nesterov", "count", "lower"),
    ("grad_evals.adaagm", "count", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
# Shares that are 0 on a healthy run; printed with the end-to-end metrics
# and reported as per-layer metrics, which carry no bound.
SHARES = [
    ("cells_unconverged", "share", "lower"),
    ("cells_failed", "share", "lower"),
    ("certs_failed", "share", "lower"),
]
CERT_KINDS = adaagm.diagnostics.CERTIFICATE_KINDS

# (name, unit, better, end-to-end metric it should move, workload where it moves)
PER_LAYER = [
    ("problems.value.calls", "count", "lower", "solve_s, us_per_iter.*", "dense-oracle; lse cells of demo-matrix"),
    ("problems.value.self_s", "s", "lower", "solve_s, us_per_iter.*", "dense-oracle; lse cells of demo-matrix"),
    ("problems.gradient.calls", "count", "lower", "solve_s, us_per_iter.*", "dense-oracle; lse cells of demo-matrix"),
    ("problems.gradient.self_s", "s", "lower", "solve_s, us_per_iter.*", "dense-oracle; lse cells of demo-matrix"),
    ("problems.gradient.us_per_call", "us", "lower", "us_per_iter.*", "dense-oracle"),
    ("problems.oracle.computed_mb", "MB", "lower", "solve_s, us_per_iter.*", "dense-oracle"),
    ("problems.reference_solve.s", "s", "lower", "setup_s, peak_rss_mb", "dense-oracle; about 0 elsewhere"),
    ("problems.reference_solve.iters", "count", "lower", "setup_s, peak_rss_mb", "dense-oracle"),
    ("schedule.local_smoothness.calls", "count", "lower", "us_per_iter.adaagm", "demo-matrix; no change on dense-oracle"),
    ("schedule.local_smoothness.self_s", "s", "lower", "us_per_iter.adaagm", "demo-matrix; no change on dense-oracle"),
    ("schedule.advance_step.calls", "count", "lower", "us_per_iter.adaagm", "demo-matrix; no change on dense-oracle"),
    ("schedule.advance_step.self_s", "s", "lower", "us_per_iter.adaagm", "demo-matrix; no change on dense-oracle"),
    ("schedule.next_t.self_s", "s", "lower", "us_per_iter.nesterov", "demo-matrix"),
    ("solver.run_adaagm.self_s", "s", "lower", "us_per_iter.adaagm", "demo-matrix; no change on dense-oracle"),
    ("solver.run_nesterov.self_s", "s", "lower", "us_per_iter.nesterov", "demo-matrix; no change on dense-oracle"),
    ("schedule.sL.p50", "ratio", "higher", "iters.adaagm, grad_evals.adaagm, cells_unconverged", "all"),
    ("schedule.sL.max", "ratio", "higher", "iters.adaagm, grad_evals.adaagm, cells_unconverged", "all"),
    ("schedule.L_ratio.p50", "ratio", "higher", "iters.adaagm, grad_evals.adaagm", "all"),
    ("diagnostics.energy.calls", "count", "lower", "us_per_iter.adaagm", "trace-replay (every row); 1/10 elsewhere"),
    ("diagnostics.energy.self_s", "s", "lower", "us_per_iter.adaagm", "trace-replay (every row); 1/10 elsewhere"),
    ("diagnostics.certify.s", "s", "lower", "certify_s", "trace-replay"),
    ("diagnostics.certify.rows", "count", "lower", "certify_s", "trace-replay"),
    *[(f"diagnostics.certify.{kind}.s", "s", "lower", "certify_s", "trace-replay") for kind in CERT_KINDS],
    ("solver.write_trace_csv.s", "s", "lower", "io_s", "trace-replay"),
    ("solver.write_trace_csv.mb", "MB", "lower", "io_s", "trace-replay"),
    ("solver.write_trace_csv.rows", "count", "lower", "io_s", "trace-replay"),
    ("solver.read_trace_csv.s", "s", "lower", "io_s", "trace-replay"),
    ("solver.read_trace_csv.rows", "count", "lower", "io_s", "trace-replay"),
    ("config.load_config.s", "s", "lower", "setup_s", "dense-oracle"),
    ("config.build_problem.s", "s", "lower", "setup_s", "dense-oracle"),
    ("config.start_point.s", "s", "lower", "setup_s", "dense-oracle"),
    ("runner.cell_s.p50", "s", "lower", "wall_s", "all"),
    ("runner.cell_s.p90", "s", "lower", "wall_s", "all"),
    ("runner.run_experiment.self_s", "s", "lower", "wall_s", "all"),
    ("trace.overhead_s", "s", "lower", "none (cost of tracing)", "all"),
    *[(name, unit, better, "itself", "all") for name, unit, better in SHARES],
]

_CELL_STAGES = ("config.start_point", "solver.run_adaagm", "solver.run_nesterov",
                "solver.run_gd", "diagnostics.certify", "solver.write_trace_csv")
WARMUP_ITERS = 20
# Set-up samples are each repetition's own set-up, followed by standalone
# set-ups until SETUP_SLICE_S has passed, so that the millisecond set-ups of
# the small workloads are medians over many samples spread across the run;
# runs with fewer than SETUP_MIN_REPEATS samples are topped up at the end.
SETUP_SLICE_S = 0.3
SETUP_MIN_REPEATS = 3


@dataclass
class Rep:
    """One repetition: its recorder, outcome and per-cell verdicts."""

    rec: Recorder
    wall: float = 0.0
    cpu: float = 0.0
    config: object = None
    rows: list = field(default_factory=list)
    failed_cells: set = field(default_factory=set)
    error: str | None = None
    digests: dict = field(default_factory=dict)
    attempted: int = 0

    @property
    def failed(self) -> int:
        return self.attempted if self.error else len(self.failed_cells)


@contextmanager
def _without_gc():
    """Cyclic garbage collection off, from a freshly collected heap.

    The package builds no reference cycles; the traces the benchmark keeps
    for its checks would only make each collection pass longer and the
    span it lands in a matter of chance.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _cell_key(config, row) -> tuple:
    p_idx = [p.name for p in config.problems].index(row["problem"])
    s_idx = [s.name for s in config.solvers].index(row["solver"])
    return (p_idx, s_idx, int(row["seed"]))


def _trace_path(out_dir: str, row: dict[str, str]) -> str:
    return os.path.join(out_dir, f"{row['problem']}_{row['solver']}_{row['seed']}.csv")


def run_rep(work: workloads.Workload, out_dir: str, traced: bool) -> Rep:
    """Run, read back and re-certify the workload once; check every cell."""
    rep = Rep(rec=Recorder(traced))
    rec = rep.rec
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with _without_gc(), rec.installed():
            with rec.span("config.load_config"):
                config = work.prepare(load_config(work.config_path), out_dir)
            rep.config = config
            rep.attempted = len(config.problems) * len(config.solvers) * len(config.seeds)
            with rec.span("runner.run_experiment"):
                run_experiment(config)
            rep.rows = checks.read_summary(os.path.join(out_dir, "summary.csv"))
            traces = {}
            for row in rep.rows:
                if row["status"] != "ok":
                    continue
                path = _trace_path(out_dir, row)
                rec.cell = _cell_key(config, row)
                with rec.span("solver.read_trace_csv", replay=True) as span:
                    traces[path] = read_trace_csv(path)
                span["rows"] = len(traces[path].records)
            replayed = _replay_certificates(rep, traces)
        rep.wall = time.perf_counter() - t0
        rep.cpu = time.process_time() - cpu0
        _check(rep, work, traces, replayed)
        if not traced:
            rec.written.clear()  # only the checks need the traces; free them
    except Exception:  # a cell that raises aborts the matrix; record it
        rep.error = traceback.format_exc()
        rep.wall = time.perf_counter() - t0
        rep.cpu = time.process_time() - cpu0
    return rep


def _replay_certificates(rep: Rep, traces: dict) -> dict:
    """Re-check every certificate in ``summary.csv`` on the trace read from file."""
    rec, config = rep.rec, rep.config
    solvers = {s.name: s for s in config.solvers}
    outcomes = {}
    for row in rep.rows:
        kinds = checks.parse_certificates(row["certificates"])
        if not kinds:
            continue
        path = _trace_path(config.output_dir, row)
        problem = rec.problems[row["problem"]]
        params = solvers[row["solver"]].params or default_params(problem)
        rec.cell = _cell_key(config, row)
        for kind in kinds:
            with rec.span("diagnostics.certify", kind=kind, replay=True) as span:
                cert = adaagm.diagnostics.certify(traces[path], problem, params, kind)
            span["rows"] = len(traces[path].records)
            outcomes[(path, kind)] = "pass" if cert.passed else "fail"
    rec.cell = None
    return outcomes


def _check(rep: Rep, work: workloads.Workload, traces: dict, replayed: dict) -> None:
    """Mark every cell that fails a correctness check."""
    rec, config = rep.rec, rep.config
    stops = {s.name: s.stop for s in config.solvers}
    bad_f_star = [name for name, exact in work.f_star.items()
                  if not checks.f_star_ok(rec.problems[name].f_star, exact)]
    for row in rep.rows:
        key = _cell_key(config, row)
        path = _trace_path(config.output_dir, row)
        ok = row["status"] == "ok" and row["problem"] not in bad_f_star
        if ok:
            ok = (checks.met_tolerance(row, stops[row["solver"]])
                  and checks.same_trace(rec.written[path][1], traces[path])
                  and all(replayed[(path, kind)] == outcome for kind, outcome
                          in checks.parse_certificates(row["certificates"]).items()))
        if ok and row["problem"] in work.f_star:
            ok = checks.closed_form_gap_ok(row, rec.problems[row["problem"]].f_star,
                                           work.f_star[row["problem"]], work.mu[row["problem"]])
        if not ok:
            rep.failed_cells.add(key)
    rep.digests["summary.csv"] = checks.sha256(os.path.join(config.output_dir, "summary.csv"))
    for path in sorted(traces):
        rep.digests[os.path.basename(path)] = checks.sha256(path)


# -- metrics ----------------------------------------------------------------

def time_setup(work: workloads.Workload, out_dir: str) -> float:
    """Wall time of config load, every problem build and every start point."""
    with _without_gc():
        t0 = time.perf_counter()
        config = work.prepare(load_config(work.config_path), out_dir)
        for p_idx, spec in enumerate(config.problems):
            problem = build_problem(spec, config.base_dir)
            for s_idx in range(len(config.solvers)):
                for seed in config.seeds:
                    start_point(config, p_idx, s_idx, seed, problem.dimension)
        return time.perf_counter() - t0


def _algorithm_totals(rec: Recorder) -> dict:
    iters = {"adaagm": 0, "nesterov": 0, "gd": 0}
    for algorithm, k in rec.iterations.values():
        iters[algorithm] += k
    return iters


# span name -> the end-to-end time it adds to
_CELL_TIMES = {
    "solver.run_adaagm": "solve.adaagm",
    "solver.run_nesterov": "solve.nesterov",
    "solver.run_gd": "solve.gd",
    "diagnostics.certify": "certify",
    "solver.write_trace_csv": "io",
    "solver.read_trace_csv": "io",
}


def _cell_times(rec: Recorder) -> dict[tuple, float]:
    """(cell, part) -> seconds spent on that part of that cell."""
    out: dict = defaultdict(float)
    for s in rec.spans:
        part = _CELL_TIMES.get(s["name"])
        if part and s["cell"] is not None:
            out[(s["cell"], part)] += s["end"] - s["start"]
    return out


def setup_time(rec: Recorder) -> float:
    return (rec.total("config.load_config") + rec.total("config.build_problem")
            + rec.total("config.start_point"))


def end_to_end(reps: list[Rep]) -> dict[str, float]:
    """End-to-end metrics over repetitions of identical inputs.

    Whole-repetition times are medians over repetitions.  Times that belong
    to cells are the median over repetitions of each cell's time, summed
    over cells, so a burst of load from elsewhere on the host during one
    repetition moves only the cells it overlapped.
    """
    samples = [_cell_times(r.rec) for r in reps]
    per_cell = {key: _median([s.get(key, 0.0) for s in samples]) for key in set().union(*samples)}

    def total(*parts):
        return sum(v for (_, part), v in per_cell.items() if part in parts)

    iters = _algorithm_totals(reps[0].rec)
    return {
        "wall_s": _median([r.wall for r in reps]),
        "cpu_s": _median([r.cpu for r in reps]),
        "solve_s": total("solve.adaagm", "solve.nesterov", "solve.gd"),
        "certify_s": total("certify"),
        "io_s": total("io"),
        "us_per_iter.adaagm": 1e6 * total("solve.adaagm") / max(iters["adaagm"], 1),
        "us_per_iter.nesterov": 1e6 * total("solve.nesterov") / max(iters["nesterov"], 1),
        "iters.adaagm": iters["adaagm"],
        "iters.nesterov": iters["nesterov"],
        "grad_evals.adaagm": reps[0].rec.calls("solver.run_adaagm", GRADIENT_OPS),
    }


def shares(rep: Rep) -> dict[str, float]:
    stops = {s.name: s.stop for s in rep.config.solvers} if rep.config else {}
    certs = [o for row in rep.rows for o in checks.parse_certificates(row["certificates"]).values()]
    attempted = max(rep.attempted, 1)
    return {
        "cells_unconverged": sum(checks.unconverged(r, stops[r["solver"]]) for r in rep.rows) / attempted,
        "cells_failed": rep.failed / attempted,
        "certs_failed": sum(o == "fail" for o in certs) / max(len(certs), 1),
    }


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def per_layer(rep: Rep, untraced: Rep) -> dict[str, float]:
    rec, config = rep.rec, rep.config
    value = rec.leaf("problems.value")
    gradient = rec.leaf("problems.gradient")
    out = {
        "problems.value.calls": value[0],
        "problems.value.self_s": value[2],
        "problems.gradient.calls": gradient[0],
        "problems.gradient.self_s": gradient[2],
        "problems.gradient.us_per_call": 1e6 * gradient[1] / max(gradient[0], 1),
        "problems.oracle.computed_mb": _computed_mb(rec, config),
        "problems.reference_solve.s": rec.total(REFERENCE_SPAN),
        "problems.reference_solve.iters": sum(s["iters"] for s in rec.spans if s["name"] == REFERENCE_SPAN),
    }
    for name in ("local_smoothness", "advance_step"):
        calls, _, self_s = rec.leaf(f"schedule.{name}", exclude_owner=REFERENCE_SPAN)
        out[f"schedule.{name}.calls"] = calls
        out[f"schedule.{name}.self_s"] = self_s
    out["schedule.next_t.self_s"] = rec.leaf("schedule.next_t", exclude_owner=REFERENCE_SPAN)[2]
    out["solver.run_adaagm.self_s"] = rec.coarse_self["solver.run_adaagm"]
    out["solver.run_nesterov.self_s"] = rec.coarse_self["solver.run_nesterov"]
    s_L, L_ratio = _step_ratios(rec, config)
    out["schedule.sL.p50"] = _percentile(s_L, 50)
    out["schedule.sL.max"] = float(np.max(s_L)) if len(s_L) else 0.0
    out["schedule.L_ratio.p50"] = _percentile(L_ratio, 50)
    energy = rec.leaf("diagnostics.energy", exclude_owner=REFERENCE_SPAN)
    out["diagnostics.energy.calls"] = energy[0]
    out["diagnostics.energy.self_s"] = energy[2]
    certs = [s for s in rec.spans if s["name"] == "diagnostics.certify"]
    out["diagnostics.certify.s"] = sum(s["end"] - s["start"] for s in certs)
    out["diagnostics.certify.rows"] = sum(s["rows"] for s in certs)
    for kind in CERT_KINDS:
        out[f"diagnostics.certify.{kind}.s"] = sum(s["end"] - s["start"] for s in certs if s["kind"] == kind)
    for name in ("solver.write_trace_csv", "solver.read_trace_csv"):
        spans = [s for s in rec.spans if s["name"] == name]
        out[f"{name}.s"] = sum(s["end"] - s["start"] for s in spans)
        out[f"{name}.rows"] = sum(s["rows"] for s in spans)
    out["solver.write_trace_csv.mb"] = sum(os.path.getsize(p) for p in rec.written) / 1e6
    for name in ("config.load_config", "config.build_problem", "config.start_point"):
        out[f"{name}.s"] = rec.total(name)
    cells = _cell_durations(rec)
    out["runner.cell_s.p50"] = _percentile(cells, 50)
    out["runner.cell_s.p90"] = _percentile(cells, 90)
    out["runner.run_experiment.self_s"] = rec.coarse_self["runner.run_experiment"]
    out["trace.overhead_s"] = rep.wall - untraced.wall
    out.update(shares(rep))
    return out


def _computed_mb(rec: Recorder, config) -> float:
    """Matrix bytes the oracle calls pass over, from array sizes (a model, not a measurement)."""
    total = 0
    for (cell, _, op), calls in rec.oracle_calls.items():
        spec = config.problems[cell[0]]
        rows, cols = workloads.matrix_shape(spec, rec.problems[spec.name].dimension)
        total += calls * workloads.matvecs_per_call(spec.kind, op) * 8 * rows * cols
    return total / 1e6


def _step_ratios(rec: Recorder, config):
    """s_k * L and L_hat / L over the recorded rows of every adaagm trace."""
    s_L, L_ratio = [], []
    for cell, trace in rec.written.values():
        if trace.algorithm != "adaagm":
            continue
        L = rec.problems[config.problems[cell[0]].name].L_known
        for r in trace.records:
            s_L.append(r.s * L)
            if r.L_est:
                L_ratio.append(r.L_est / L)
    return np.asarray(s_L), np.asarray(L_ratio)


def _cell_durations(rec: Recorder) -> list[float]:
    bounds: dict = {}
    for s in rec.spans:
        if s["cell"] is None or s.get("replay") or s["name"] not in _CELL_STAGES:
            continue
        lo, hi = bounds.get(s["cell"], (s["start"], s["end"]))
        bounds[s["cell"]] = (min(lo, s["start"]), max(hi, s["end"]))
    return [hi - lo for lo, hi in bounds.values()]


# -- environment ------------------------------------------------------------

def environment(root: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "host": (f"{len(os.sched_getaffinity(0))}-core host, possibly shared; timings "
                 "include any load from other processes"),
    }


def _git_commit(root: str) -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# -- a whole run ------------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values))


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str,
                 out_dir: str, tiny: bool = False) -> dict:
    """Measure workload ``name`` for about ``seconds``; return the full result."""
    input_dir = os.path.join(out_dir, "inputs")
    run_dir = os.path.join(out_dir, "runs")
    os.makedirs(input_dir, exist_ok=True)
    work = workloads.build(name, seed, root, input_dir, tiny=tiny)
    warm = run_rep(replace(work, start_seeds=work.start_seeds[:1], max_iters=WARMUP_ITERS),
                   os.path.join(out_dir, "warmup"), traced=False)
    reps: list[Rep] = [warm]
    pairs: list[tuple[Rep, Rep]] = []
    start = time.perf_counter()
    setups: list[float] = []
    layer_rows: list[dict] = []
    while not warm.error:
        t0 = time.perf_counter()
        plain = run_rep(work, run_dir, traced=False)
        reps.append(plain)
        if not (trace or plain.error):
            batch = [setup_time(plain.rec)]
            while sum(batch) < SETUP_SLICE_S:
                batch.append(time_setup(work, run_dir))
            setups += batch
        if trace and not plain.error:
            traced = run_rep(work, run_dir, traced=True)
            reps.append(traced)
            pairs.append((plain, traced))
            if not traced.error:
                layer_rows.append(per_layer(traced, plain))
                traced.rec.written.clear()
        last = time.perf_counter() - t0
        if any(r.error for r in reps) or time.perf_counter() - start + last > seconds:
            break

    mismatches = []
    for a, b in pairs:
        untraced, traced_counts = a.rec.cell_counts(), b.rec.cell_counts()
        mismatches += [f"cell {cell}: untraced {untraced.get(cell)} traced {traced_counts.get(cell)}"
                       for cell in sorted(set(untraced) | set(traced_counts))
                       if untraced.get(cell) != traced_counts.get(cell)]
    errors = [r.error for r in reps if r.error]
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    measured = [r for r in reps[1:] if not r.rec.traced]
    result = {
        "workload": name, "seed": seed, "trace": int(trace), "tiny": tiny,
        "repetitions": len(measured),
        "environment": environment(root),
        "correct": not errors and failed == 0 and not mismatches,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "errors": errors,
        "count_mismatches": mismatches,
        "metrics": {},
        "digests": measured[-1].digests if measured else {},
    }
    if errors or not measured:
        return result
    units = {n: u for n, u, _ in END_TO_END + [m[:3] for m in PER_LAYER]}
    if trace:
        values = {n: _median([r[n] for r in layer_rows]) for n, *_ in PER_LAYER}
        result["samples"] = {n: [r[n] for r in layer_rows] for n in layer_rows[0]}
        result["samples"]["wall_s"] = [[a.wall, b.wall] for a, b in pairs]
        spans = pairs[-1][1].rec.spans
        t_origin = min(s["start"] for s in spans)
        result["spans"] = [{**s, "start": s["start"] - t_origin, "end": s["end"] - t_origin}
                           for s in sorted(spans, key=lambda s: s["start"])]
        result["digests_match_untraced"] = pairs[-1][0].digests == pairs[-1][1].digests
        result["cell_counts"] = pairs[-1][1].rec.cell_counts()
        result["per_layer_moves"] = {n: {"moves": moves, "on": on}
                                     for n, _, _, moves, on in PER_LAYER}
    else:
        values = end_to_end(measured)
        while len(setups) < SETUP_MIN_REPEATS:
            setups.append(time_setup(work, run_dir))
        values["setup_s"] = _median(setups)
        result["samples"] = {"wall_s": [r.wall for r in measured],
                             "cpu_s": [r.cpu for r in measured], "setup_s": setups}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {n: values[n] for n, *_ in END_TO_END}
        result["shares"] = shares(measured[-1])
        result["cell_counts"] = measured[-1].rec.cell_counts()
    result["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
    return result
