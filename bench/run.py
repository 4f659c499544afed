#!/usr/bin/env python3
"""adaagm benchmark: one workload, measured end to end or traced per layer.

Run from the root of a checkout::

    python3 bench/run.py --workload demo-matrix --seed 1 --seconds 40 --trace 0

``--trace 0`` prints every end-to-end metric with its unit; ``--trace 1``
runs an untraced and a traced repetition in turn and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with the environment, digests and (traced) spans, is written to
``.bench_out/<workload>-seed<n>-trace<t>/result.json``.  The exit code is 0
when every correctness check passed, 1 when one failed and 2 when the
package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Same as workloads.WORKLOADS; that module imports numpy, which must wait
# until the thread settings below are in the environment.
WORKLOADS = ("demo-matrix", "dense-oracle", "trace-replay")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def report(result: dict) -> list[str]:
    """Human-readable lines: every metric with its unit, then the digests."""
    lines = [f"workload {result['workload']} seed {result['seed']} trace {result['trace']} "
             f"repetitions {result['repetitions']}",
             "environment " + json.dumps(result["environment"])]
    lines += [f"metric {name} {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    lines += [f"metric {name} {value:.6g} share" for name, value in result.get("shares", {}).items()]
    lines += [f"sha256 {name} {digest}" for name, digest in result["digests"].items()]
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "adaagm", "__init__.py")):
        print(f"no package sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # One process, one BLAS thread: never more threads than cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import harness

    out_dir = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  ROOT, out_dir)
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1, default=str)

    print("\n".join(report(result)))
    for error in result["errors"] + result["count_mismatches"]:
        print(error, file=sys.stderr)
    print(f"details in {os.path.relpath(os.path.join(out_dir, 'result.json'), ROOT)}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
