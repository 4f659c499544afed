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
``.bench_out/<workload>-seed<n>-trace0/result.json`` of that checkout.  The
output holds, per checkout and per ``<workload>/seed<n>``, each end-to-end
metric's median, quartiles and run count, the failure shares, how many runs
passed their correctness checks, the repetitions per run, the
environment and commit the runs reported, and whether the checkout's
tracked files differed from that commit.  Checkout paths stay out of the
output; the labels name them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

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


def summarize(runs: list[dict]) -> dict:
    """Median, quartiles and count of every metric over the runs of one cell."""
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = np.array([r["metrics"][name]["value"] for r in runs], dtype=float)
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        metrics[name] = {"unit": first["unit"], "median": float(median),
                         "q1": float(q1), "q3": float(q3), "n": len(values)}
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
    environment: dict = {}
    for rep in range(args.repeats):
        order = labels if rep % 2 == 0 else labels[::-1]
        for workload in args.workload:
            for seed in args.seed:
                for label in order:
                    result = run_once(args.checkouts[label], workload, seed,
                                      args.seconds[label])
                    runs[label].setdefault(f"{workload}/seed{seed}", []).append(result)
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
                    "cells": {cell: summarize(rs) for cell, rs in runs[label].items()}}
            for label in labels
        },
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=False)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
