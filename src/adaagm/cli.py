"""Benchmark command line.

Verbs::

    adaagm-bench run <config> [--out DIR] [--thin K]
    adaagm-bench validate <config>
    adaagm-bench certify <trace.csv> --problem <config> [--out DIR]

``certify`` re-checks an adaagm trace with the problem, parameters and kinds
that the run gave the cell whose ``<problem>_<solver>_<seed>.csv`` is its file
name: one line per kind; ``--out DIR`` writes ``DIR/violations.csv``.

Exit codes: 0 success, 1 configuration error, 2 at least one cell diverged
or failed on its inputs, 3 ``certify`` found a violation (printed ``FAIL``).
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, build_problem, load_config, trace_name
from .diagnostics import format_certificates, write_violations_csv
from .runner import certify_cell, run_experiment, validate_config
from .schedule import default_params
from .solver import read_trace_csv


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.out:
        config.output_dir = args.out
    if args.thin is not None:
        config.thinning = args.thin
    results = run_experiment(config)
    for r in results:
        gap = "" if r.final_gap is None else f" gap={r.final_gap:.6g}"
        reason = f" ({r.reason})" if r.reason else ""
        print(f"{r.problem} x {r.solver} seed={r.seed}: {r.status} "
              f"iters={r.iterations}{gap} certs={r.certificates}{reason}")
    print(f"summary written to {os.path.join(config.output_dir, 'summary.csv')}")
    return 2 if any(r.status != "ok" for r in results) else 0


def _cmd_validate(args) -> int:
    floors = validate_config(args.config)
    print("ok")
    for (solver, problem), q in floors.items():
        print(f"solver {solver} on problem {problem}: step floor constant q = {q:.12g}")
    return 0


def _cmd_certify(args) -> int:
    try:
        trace = read_trace_csv(args.trace)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read trace: {exc}") from exc
    config = load_config(args.problem)
    name = os.path.basename(args.trace)
    # load_config refuses a config in which two cells share a trace name
    cell = next(((spec, solver) for spec in config.problems for solver in config.solvers
                 for seed in config.seeds if solver.algorithm == "adaagm"
                 and trace_name(spec.name, solver.name, seed) == name), None)
    if cell is None or trace.algorithm != "adaagm":
        raise ConfigError(f"trace {name} ({trace.algorithm}) is not written by an adaagm cell "
                          f"of {args.problem}; certify needs an adaagm cell's trace, named "
                          + trace_name("<problem>", "<solver>", "<seed>"))
    spec, solver = cell
    problem = build_problem(spec, config.base_dir)
    certs = certify_cell(trace, problem, solver.params or default_params(problem))
    if certs:
        print(format_certificates(certs))
    else:  # certificate_kinds grades no kind without L: the "-" of the cell's summary row
        print(f"no certificate applies: problem {spec.name} has no known L > 0")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        out = os.path.join(args.out, "violations.csv")
        write_violations_csv(certs, out)
        print(f"violations written to {out}")
    return 0 if all(c.passed for c in certs) else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaagm-bench",
        description="Run and certify adaptive accelerated gradient benchmarks.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run an experiment matrix")
    p_run.add_argument("config")
    p_run.add_argument("--out", help="override the output directory")
    p_run.add_argument("--thin", type=int, help="record every k-th iteration")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    p_cert = sub.add_parser("certify", help="re-check a trace's certificates")
    p_cert.add_argument("trace")
    p_cert.add_argument("--problem", required=True,
                        help="config file whose run wrote the trace")
    p_cert.add_argument("--out", help="directory for violations.csv")
    p_cert.set_defaults(func=_cmd_certify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
