"""Correctness checks on one run of an experiment matrix, and output digests."""

from __future__ import annotations

import csv
import dataclasses
import hashlib

import numpy as np


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_summary(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def parse_certificates(field: str) -> dict[str, str]:
    """``kind:pass;kind:fail`` -> {kind: outcome}; ``-`` means none."""
    if field in ("", "-"):
        return {}
    return dict(item.split(":", 1) for item in field.split(";"))


def same_trace(written, read) -> bool:
    """The trace read back from CSV equals the one written, field for field."""
    return (written.algorithm == read.algorithm
            and np.array_equal(written.x0, read.x0)
            and len(written.records) == len(read.records)
            and all(dataclasses.astuple(a) == dataclasses.astuple(b)
                    for a, b in zip(written.records, read.records)))


def met_tolerance(row: dict[str, str], stop) -> bool:
    """A cell that stopped inside its budget is at or below its ``grad_tol``."""
    if int(row["iterations"]) >= stop.max_iters or stop.grad_tol is None:
        return True
    return float(row["final_grad_norm"]) <= stop.grad_tol


def unconverged(row: dict[str, str], stop) -> bool:
    """The cell used its whole budget and still sits above ``grad_tol``."""
    return (row["status"] == "ok" and int(row["iterations"]) >= stop.max_iters
            and stop.grad_tol is not None
            and float(row["final_grad_norm"]) > stop.grad_tol)


def closed_form_gap_ok(row: dict[str, str], f_star_program: float,
                       f_star_exact: float, mu: float) -> bool:
    """The reported gap of a quadratic cell agrees with the closed-form f*.

    The true gap is the reported one plus the error in the program's f*; it
    must lie in [0, ||g||^2 / (2 mu)], the strong-convexity bound, up to
    rounding on the scale of f*.
    """
    tol = 1e-9 * (1.0 + abs(f_star_exact))
    true_gap = float(row["final_gap"]) + (f_star_program - f_star_exact)
    bound = float(row["final_grad_norm"]) ** 2 / (2.0 * mu)
    return -tol <= true_gap <= bound + tol


def f_star_ok(f_star_program: float, f_star_exact: float) -> bool:
    return abs(f_star_program - f_star_exact) <= 1e-9 * (1.0 + abs(f_star_exact))
