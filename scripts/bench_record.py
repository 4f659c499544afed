#!/usr/bin/env python3
"""Record benchmark medians and quartiles of one or more checkouts.

Run from anywhere, naming each checkout to measure with a label::

    python3 scripts/bench_record.py --out BENCH_20.json \\
        --checkout parent=../adaagm-parent --checkout change=. \\
        --workload dense-oracle --seed 17 --repeats 5

For every repeat, workload and seed, ``bench/run.py`` runs once in each
checkout for the ``run_seconds`` of that checkout's ``BENCHMARK.json``, in
an order that alternates between repeats, so slow drift on a shared host
hits every checkout alike.  The workloads default to every one
``BENCHMARK.json`` declares.  After each run the script reads
``.bench_out/<workload>-seed<n>-trace0/result.json`` of that checkout, and
the iterations of every cell from ``runs/summary.csv`` beside it.  The
output holds, per checkout and per ``<workload>/seed<n>``, each end-to-end
metric's median, quartiles, run count and the value of every run in run
order (so the repeats of two labels pair up), the failure shares, how many runs
passed their correctness checks, the repetitions per run, the
environment and commit the runs reported, whether the checkout's
tracked files differed from that commit, its ``src_lines`` (the summed
line count of ``src/adaagm/*.py``) and ``code_lines`` (the lines of those
files that hold a token: no comment, blank line or docstring), the sum of
``iterations`` per solver section (``agm``, ``agm-convex``, ``nesterov``)
and per problem and section (``lse/nesterov``, ...), and how many output
files ``result.json`` digests.  Iteration counts and digests are exact, so a count or a digest
that differs between one checkout's repeats stops the script.  Per later
label and ``<workload>/seed<n>``, ``rises`` lists every cell whose count is
higher than under the first label, and ``digests_differ`` the sorted
names of the files whose digest differs from the first label's, and
``paired`` holds, per end-to-end metric of the first label's
``BENCHMARK.json``, ``wins`` (the repeats in which the later label's run
beats the first label's run of the same repeat in the metric's ``better``
direction; a tie counts for neither), ``pairs`` and ``unresolved`` (true
when the first label's quartile spread exceeds the metric's ``bound`` times
its median, so the runs spread too widely to tell a change within the
bound).  Checkout paths stay out of the output; the labels name them.
"""

from __future__ import annotations

import argparse
import ast
import csv
import glob
import io
import json
import os
import subprocess
import sys
import tokenize

import numpy as np


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="output file, e.g. BENCH_20.json")
    ap.add_argument("--checkout", action="append", required=True, metavar="LABEL=PATH",
                    help="a checkout to measure; repeat for more than one")
    ap.add_argument("--workload", action="append",
                    help="workload to run (default: every one BENCHMARK.json declares); "
                         "repeatable")
    ap.add_argument("--seed", action="append", type=int, required=True,
                    help="workload seed; repeatable")
    ap.add_argument("--repeats", type=int, default=5, help="runs per checkout and seed")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be positive")
    checkouts, specs = {}, {}
    for item in args.checkout:
        label, sep, path = item.partition("=")
        spec = os.path.join(path, "BENCHMARK.json")
        if not sep or not label or not os.path.isfile(spec):
            ap.error(f"--checkout {item!r} is not LABEL=PATH of a checkout with BENCHMARK.json")
        if label in checkouts:
            ap.error(f"--checkout label {label!r} given twice")
        checkouts[label] = os.path.abspath(path)
        with open(spec) as fh:
            specs[label] = json.load(fh)
    args.checkouts = checkouts
    args.seconds = {label: float(spec["run_seconds"]) for label, spec in specs.items()}
    first = specs[next(iter(specs))]
    args.workload = args.workload or [w["name"] for w in first["workloads"]]
    args.end_to_end = first.get("end_to_end", [])
    return args


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``bench/run.py`` run in ``root``; its result.json as a dict."""
    result = os.path.join(root, ".bench_out", f"{workload}-seed{seed}-trace0", "result.json")
    if os.path.exists(result):
        os.remove(result)
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    if not os.path.exists(result):  # exit 1 (a failed check) still writes the result
        raise RuntimeError(f"{' '.join(cmd)} in {root} wrote no result.json "
                           f"(exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
    with open(result) as fh:
        return json.load(fh)


def read_iterations(path: str) -> dict[tuple[str, str, str], int]:
    """``iterations`` of every cell of a ``summary.csv``, keyed by
    (problem, solver, seed)."""
    with open(path, newline="") as fh:
        return {(row["problem"], row["solver"], row["seed"]): int(row["iterations"])
                for row in csv.DictReader(fh)}


def section_sums(counts: dict[tuple[str, str, str], int]) -> dict[str, int]:
    """The sum of iterations per solver section."""
    sums: dict[str, int] = {}
    for (_, solver, _), n in counts.items():
        sums[solver] = sums.get(solver, 0) + n
    return sums


def problem_section_sums(counts: dict[tuple[str, str, str], int]) -> dict[str, int]:
    """The sum of iterations per problem and solver section, keyed
    ``problem/solver`` in sorted order."""
    sums: dict[str, int] = {}
    for (problem, solver, _), n in sorted(counts.items()):
        key = f"{problem}/{solver}"
        sums[key] = sums.get(key, 0) + n
    return sums


def keep_counts(store: dict, label: str, cell: str, counts: dict,
                what: str = "iteration counts") -> None:
    """Store a run's counts (or digests, named by ``what``) under (label, cell),
    or check them against the stored ones: the runs are deterministic, so
    values that differ stop the script."""
    if store.setdefault((label, cell), counts) != counts:
        raise RuntimeError(f"{label} {cell}: {what} differ between repeats")


def rises(base: dict[tuple[str, str, str], int],
          other: dict[tuple[str, str, str], int]) -> list[dict]:
    """The cells of ``other`` whose count is higher than in ``base``."""
    return [{"problem": key[0], "solver": key[1], "seed": key[2], "from": base[key], "to": n}
            for key, n in sorted(other.items()) if key in base and n > base[key]]


def digests_differ(base: dict[str, str], other: dict[str, str]) -> list[str]:
    """The sorted names of the files whose digest in ``other`` differs from
    ``base``'s, a file that only one of them digests included."""
    return sorted(name for name in base.keys() | other.keys()
                  if base.get(name) != other.get(name))


def paired(base: list[dict], other: list[dict], end_to_end: list[dict]) -> dict[str, dict]:
    """Per end-to-end metric that the runs report: ``wins``, the repeats in
    which ``other``'s run beats ``base``'s run of the same repeat (a tie
    counts for neither), ``pairs``, and ``unresolved``, whether ``base``'s
    quartile spread exceeds the metric's ``bound`` times its median."""
    out = {}
    for metric in end_to_end:
        name = metric["name"]
        if name not in base[0]["metrics"]:
            continue
        a, b = ([r["metrics"][name]["value"] for r in runs] for runs in (base, other))
        sign = 1.0 if metric["better"] == "lower" else -1.0
        q1, median, q3 = np.percentile(a, [25, 50, 75])
        out[name] = {"wins": sum(sign * (y - x) < 0.0 for x, y in zip(a, b)),
                     "pairs": min(len(a), len(b)),
                     "unresolved": bool(q3 - q1 > metric["bound"] * abs(median))}
    return out


def tree_state(root: str) -> str:
    """Whether the checkout's tracked files differ from its ``git_commit``."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                              cwd=root, capture_output=True, text=True)
    except OSError:
        return "unknown (git not found)"
    if proc.returncode != 0:
        return "unknown (not a git checkout)"
    return "modified: uncommitted changes on top of git_commit" if proc.stdout else "clean"


def src_lines(root: str) -> int:
    """The summed line count of the checkout's ``src/adaagm/*.py``, as ``wc -l``."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "adaagm", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def code_lines(root: str) -> int:
    """The lines of the checkout's ``src/adaagm/*.py`` that hold a token: no
    comment, blank line or docstring counts."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
    total = 0
    for path in glob.glob(os.path.join(root, "src", "adaagm", "*.py")):
        with open(path, "rb") as fh:
            source = fh.read()
        docstrings = set()
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))
                    and ast.get_docstring(node, clean=False) is not None):
                doc = node.body[0]
                docstrings.update(range(doc.lineno, doc.end_lineno + 1))
        lines = set()
        for tok in tokenize.tokenize(io.BytesIO(source).readline):
            if tok.type not in skip and not (tok.type == tokenize.STRING
                                             and tok.start[0] in docstrings):
                lines.update(range(tok.start[0], tok.end[0] + 1))
        total += len(lines)
    return total


def summarize(runs: list[dict]) -> dict:
    """Median, quartiles, count and the values in run order of every metric
    over the runs of one cell."""
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = np.array([r["metrics"][name]["value"] for r in runs], dtype=float)
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        metrics[name] = {"unit": first["unit"], "median": float(median),
                         "q1": float(q1), "q3": float(q3), "n": len(values),
                         "values": values.tolist()}
    shares = {name: float(np.median([r["shares"][name] for r in runs]))
              for name in runs[0].get("shares", {})}
    return {
        "runs": len(runs),
        "correct_runs": sum(bool(r["correct"]) for r in runs),
        "repetitions": [r["repetitions"] for r in runs],
        "metrics": metrics,
        "shares_median": shares,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    labels = list(args.checkouts)
    runs: dict = {label: {} for label in labels}
    counts: dict = {}
    digests: dict = {}
    environment: dict = {}
    for rep in range(args.repeats):
        order = labels if rep % 2 == 0 else labels[::-1]
        for workload in args.workload:
            for seed in args.seed:
                for label in order:
                    root = args.checkouts[label]
                    result = run_once(root, workload, seed, args.seconds[label])
                    cell = f"{workload}/seed{seed}"
                    runs[label].setdefault(cell, []).append(result)
                    summary = os.path.join(root, ".bench_out", f"{workload}-seed{seed}-trace0",
                                           "runs", "summary.csv")
                    keep_counts(counts, label, cell, read_iterations(summary))
                    keep_counts(digests, label, cell, result["digests"], "digests")
                    environment.setdefault(label, result["environment"])
                    print(f"repeat {rep + 1}/{args.repeats} {label} {workload} seed {seed}: "
                          f"wall_s {result['metrics']['wall_s']['value']:.3f}", flush=True)
    out = {
        "settings": {"run_seconds": args.seconds, "repeats": args.repeats,
                     "workloads": args.workload, "seeds": args.seed,
                     "order": "checkouts alternate which runs first on each repeat"},
        "checkouts": {
            label: {"environment": environment[label],
                    "tree": tree_state(args.checkouts[label]),
                    "src_lines": src_lines(args.checkouts[label]),
                    "code_lines": code_lines(args.checkouts[label]),
                    "cells": {cell: {**summarize(rs),
                                     "iterations": section_sums(counts[label, cell]),
                                     "iterations_by_problem":
                                         problem_section_sums(counts[label, cell]),
                                     "digest_files": len(digests[label, cell])}
                              for cell, rs in runs[label].items()}}
            for label in labels
        },
        "rises": {label: {cell: rises(counts[labels[0], cell], counts[label, cell])
                          for cell in runs[label]}
                  for label in labels[1:]},
        "digests_differ": {label: {cell: digests_differ(digests[labels[0], cell],
                                                        digests[label, cell])
                                   for cell in runs[label]}
                           for label in labels[1:]},
        "paired": {label: {cell: paired(runs[labels[0]][cell], runs[label][cell],
                                        args.end_to_end)
                           for cell in runs[label]}
                   for label in labels[1:]},
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=False)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
