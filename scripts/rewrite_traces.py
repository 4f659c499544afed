#!/usr/bin/env python3
"""Read trace CSVs and write each again, under the same name, into a directory.

    python3 scripts/rewrite_traces.py OUT_DIR runs/quad_agm_0.csv ...

A trace read back by ``read_trace_csv`` and written by ``write_trace_csv``
gives the file's own bytes, so ``diff -r`` of the two directories (the
summary and other non-trace files excluded) checks the reader and the
writer on every trace a run produced.
"""

from __future__ import annotations

import os
import sys

from adaagm import read_trace_csv, write_trace_csv


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out_dir, paths = argv[0], argv[1:]
    os.makedirs(out_dir, exist_ok=True)
    for path in paths:
        write_trace_csv(read_trace_csv(path), os.path.join(out_dir, os.path.basename(path)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
