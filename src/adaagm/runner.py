"""Experiment matrix execution: (problem x solver x seed) cells to CSV outputs.

Cells run one after another; the summary file is written once after all
cells complete.  A cell that diverges, or that fails on its inputs (a
non-convex curvature, a missing step), is recorded in the summary and never
aborts the matrix.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .config import ConfigError, ExperimentConfig, SolverSpec, build_problem, start_point
from .diagnostics import certify
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


def _applicable_certificates(problem: SmoothProblem, params: AlgoParams) -> list[str]:
    kinds: list[str] = []
    has_L = problem.L_known is not None and problem.L_known > 0
    has_sol = problem.x_star is not None and problem.f_star is not None
    strongly = problem.mu_known is not None and problem.mu_known > 0
    sc_profile = params.omega == 0.5 and params.delta == 0.5
    if has_L:
        kinds += ["step_floor", "step_cap"]
    if has_L and has_sol:
        kinds.append("sublinear")
        kinds.append("energy_monotone")
        if strongly and sc_profile:
            kinds += ["linear", "grad_summable"]
    return kinds


def _run_cell(config: ExperimentConfig, p_idx: int, problem: SmoothProblem,
              s_idx: int, solver: SolverSpec, seed: int) -> tuple[CellResult, Trace | None]:
    x0 = start_point(config, p_idx, s_idx, seed, problem.dimension)
    result = CellResult(problem=problem.name, solver=solver.name, seed=seed, status="ok")
    try:
        if solver.algorithm == "adaagm":
            params = solver.params or default_params(problem)
            result.q = floor_q(params)
            trace = run_adaagm(problem, params, solver.stop, x0, thin=config.thinning)
            kinds = _applicable_certificates(problem, params)
            if kinds:
                certs = [certify(trace, problem, params, kind) for kind in kinds]
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
        return result, None
    except ValueError:
        # non-convex curvature, a missing step or parameters unfit for this problem
        result.status = "failed"
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
    os.makedirs(config.output_dir, exist_ok=True)
    probe = os.path.join(config.output_dir, ".writable")
    try:
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise OSError(f"output directory {config.output_dir} is not writable: {exc}")

    problems = [build_problem(spec, config.base_dir) for spec in config.problems]
    results = []
    for p_idx, problem in enumerate(problems):
        for s_idx, solver in enumerate(config.solvers):
            for seed in config.seeds:
                result, trace = _run_cell(config, p_idx, problem, s_idx, solver, seed)
                if trace is not None:
                    name = f"{problem.name}_{solver.name}_{seed}.csv"
                    write_trace_csv(trace, os.path.join(config.output_dir, name))
                results.append(result)

    _write_summary(results, config.output_dir)
    return results


def _write_summary(results: list[CellResult], output_dir: str) -> None:
    lines = ["problem,solver,seed,status,iterations,final_gap,final_grad_norm,q,certificates"]
    for r in results:
        lines.append(",".join([
            r.problem, r.solver, str(r.seed), r.status, str(r.iterations),
            format_float(r.final_gap), format_float(r.final_grad_norm),
            format_float(r.q), r.certificates,
        ]))
    with open(os.path.join(output_dir, "summary.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
