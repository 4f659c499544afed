"""Experiment matrix execution: (problem x solver x seed) cells to CSV outputs.

Cells run one after another; the summary file is written once after all
cells complete.  A cell that diverges, or that fails on its inputs (a
non-convex curvature, a missing step), is recorded in the summary and never
aborts the matrix.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .config import (ConfigError, ExperimentConfig, SolverSpec, build_problem, load_config,
                     start_point, trace_name)
from .diagnostics import RateCertificate, certify
from .problems import SmoothProblem
from .schedule import AlgoParams, default_params, floor_q
from .solver import (
    DivergenceError,
    Trace,
    format_float,
    run_adaagm,
    run_gd,
    run_nesterov,
    write_trace_csv,
)


@dataclass
class CellResult:
    problem: str
    solver: str
    seed: int
    status: str  # ok | diverged | failed
    iterations: int = 0
    final_gap: float | None = None
    final_grad_norm: float | None = None
    q: float | None = None
    certificates: str = "-"
    restarts: int = 0
    fallbacks: int = 0
    reason: str = ""  # why a cell diverged or failed; not in summary.csv


def build_problems(config: ExperimentConfig) -> list[SmoothProblem]:
    """Every problem of the config, via ``build_problem`` here: bench/probes.py
    patches it.  Raises one ConfigError naming every problem that fails to build."""
    problems, errors = [], []
    for spec in config.problems:
        try:
            problems.append(build_problem(spec, config.base_dir))
        except ConfigError as exc:
            errors.append(str(exc))
    if errors:
        raise ConfigError("; ".join(errors))
    return problems


def validate_config(path) -> dict[tuple[str, str], float]:
    """Parse the config and build every problem as the run does; return q per
    (adaagm solver, problem), or raise one ConfigError naming every failed problem."""
    config = load_config(path)
    problems = build_problems(config)
    return {(spec.name, problem.name): floor_q(spec.params or default_params(problem))
            for spec in config.solvers if spec.algorithm == "adaagm" for problem in problems}


def certify_cell(trace: Trace, problem: SmoothProblem,
                 params: AlgoParams) -> list[RateCertificate]:
    """A cell's certificates in summary order, via ``certify`` here: bench/probes.py patches it."""
    if problem.L_known is None or problem.L_known <= 0:
        return []
    kinds = ["step_floor", "step_cap"]
    if problem.x_star is not None and problem.f_star is not None:
        kinds += ["sublinear", "energy_monotone"]
        if problem.mu_known is not None and problem.mu_known > 0 and params.linear_rate:
            kinds += ["linear", "grad_summable"]
    return [certify(trace, problem, params, kind) for kind in kinds]


def _run_cell(config: ExperimentConfig, p_idx: int, problem: SmoothProblem,
              s_idx: int, solver: SolverSpec, seed: int) -> tuple[CellResult, Trace | None]:
    x0 = start_point(config, p_idx, s_idx, seed, problem.dimension)
    result = CellResult(problem=problem.name, solver=solver.name, seed=seed, status="ok")
    try:
        if solver.algorithm == "adaagm":
            params = solver.params or default_params(problem)
            result.q = floor_q(params)
            trace = run_adaagm(problem, params, solver.stop, x0, thin=config.thinning)
            # every epoch start is recorded, and t == t0 marks exactly those rows
            result.restarts = sum(r.t == params.t0 for r in trace.records[1:])
            result.fallbacks = trace.fallbacks
            certs = certify_cell(trace, problem, params)
            if certs:
                result.certificates = ";".join(
                    f"{c.kind}:{'pass' if c.passed else 'fail'}" for c in certs)
        else:
            step = solver.step
            if step is None:
                if problem.L_known is None or problem.L_known <= 0:
                    raise ValueError(
                        f"solver {solver.name} needs an explicit step: "
                        f"problem {problem.name} has no known L")
                step = 1.0 / problem.L_known
            runner = run_gd if solver.algorithm == "gd" else run_nesterov
            trace = runner(problem, step, solver.stop, x0, thin=config.thinning)
    except DivergenceError as exc:
        result.status = "diverged"
        result.iterations = exc.k
        result.reason = str(exc)
        return result, None
    except ValueError as exc:
        # non-convex curvature, a missing step or parameters unfit for this problem
        result.status = "failed"
        result.reason = str(exc)
        return result, None
    last = trace.records[-1]
    result.iterations = last.k
    result.final_gap = last.gap
    result.final_grad_norm = last.grad_norm
    return result, trace


def run_experiment(config: ExperimentConfig) -> list[CellResult]:
    """Run every (problem, solver, seed) cell and write traces plus a summary.

    Returns the cell results in the order of ``summary.csv``.
    """
    if config.thinning < 1:
        raise ConfigError("thinning must be a positive integer")
    # a problem that fails to build leaves no output directory behind
    problems = build_problems(config)
    os.makedirs(config.output_dir, exist_ok=True)
    probe = os.path.join(config.output_dir, ".writable")
    try:
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise OSError(f"output directory {config.output_dir} is not writable: {exc}")

    results = []
    for p_idx, problem in enumerate(problems):
        for s_idx, solver in enumerate(config.solvers):
            for seed in config.seeds:
                result, trace = _run_cell(config, p_idx, problem, s_idx, solver, seed)
                if trace is not None:
                    name = trace_name(problem.name, solver.name, seed)
                    write_trace_csv(trace, os.path.join(config.output_dir, name))
                results.append(result)

    _write_summary(results, config.output_dir)
    return results


def _write_summary(results: list[CellResult], output_dir: str) -> None:
    lines = ["problem,solver,seed,status,iterations,final_gap,final_grad_norm,q,certificates,"
             "restarts,fallbacks"]
    for r in results:
        lines.append(",".join([
            r.problem, r.solver, str(r.seed), r.status, str(r.iterations),
            format_float(r.final_gap), format_float(r.final_grad_norm),
            format_float(r.q), r.certificates, str(r.restarts), str(r.fallbacks),
        ]))
    with open(os.path.join(output_dir, "summary.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
