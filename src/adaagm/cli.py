"""Benchmark command line.

Verbs::

    adaagm-bench run <config> [--out DIR] [--thin K]
    adaagm-bench validate <config>
    adaagm-bench certify <trace.csv> --problem <config> --profile <name>
                 --kind <cert> [--out DIR]

``certify`` takes the initial step s0 from the trace's first row;
``--profile default`` resolves per problem, as ``profile = default`` does in
a run.

Exit codes: 0 success, 1 configuration error, 2 at least one cell diverged
or failed on its inputs.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, build_problem, load_config, validate_config
from .diagnostics import CERTIFICATE_KINDS, certify, format_certificates, write_violations_csv
from .runner import run_experiment
from .schedule import PROFILES, default_params
from .solver import read_trace_csv


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        config.output_dir = args.out
    if args.thin is not None:
        config.thinning = args.thin
    try:
        results = run_experiment(config)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    for r in results:
        gap = "" if r.final_gap is None else f" gap={r.final_gap:.6g}"
        print(f"{r.problem} x {r.solver} seed={r.seed}: {r.status} "
              f"iters={r.iterations}{gap} certs={r.certificates}")
    print(f"summary written to {os.path.join(config.output_dir, 'summary.csv')}")
    return 2 if any(r.status != "ok" for r in results) else 0


def _cmd_validate(args) -> int:
    report = validate_config(args.config)
    for err in report.errors:
        print(f"error: {err}", file=sys.stderr)
    for warn in report.warnings:
        print(f"warning: {warn}")
    if report.ok:
        print("ok")
        for (solver, problem), q in report.solver_floors.items():
            print(f"solver {solver} on problem {problem}: step floor constant q = {q:.12g}")
        return 0
    return 1


def _cmd_certify(args) -> int:
    try:
        trace = read_trace_csv(args.trace)
    except (OSError, ValueError) as exc:
        print(f"config error: cannot read trace: {exc}", file=sys.stderr)
        return 1
    try:  # the parser has already restricted --profile to PROFILES and default
        config = load_config(args.problem)
        problem = build_problem(config.problems[0], config.base_dir)
        params = (default_params(problem) if args.profile == "default"
                  else PROFILES[args.profile])
        cert = certify(trace, problem, params, args.kind)
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    print(format_certificates([cert]))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        out = os.path.join(args.out, f"violations_{args.kind}.csv")
        write_violations_csv([cert], out)
        print(f"violations written to {out}")
    return 0


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

    p_cert = sub.add_parser("certify", help="re-check a certificate on a trace CSV")
    p_cert.add_argument("trace")
    p_cert.add_argument("--problem", required=True,
                        help="config file whose first problem section describes the objective")
    p_cert.add_argument("--profile", required=True, choices=["default", *sorted(PROFILES)],
                        help="default resolves per problem, as profile = default does in a run")
    p_cert.add_argument("--kind", required=True, choices=CERTIFICATE_KINDS)
    p_cert.add_argument("--out", help="directory for the violations CSV")
    p_cert.set_defaults(func=_cmd_certify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
