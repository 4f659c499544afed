"""Experiment configuration: a plain-text INI file, parsed into dataclasses.

Layout::

    [experiment]
    output_dir = runs
    seeds = 0 1
    thinning = 1
    x0_scale = 1.0

    [problem quad]
    kind = quadratic
    diag = 1 100
    offset = 1 100

    [solver agm]
    algorithm = adaagm
    profile = cor-4.4
    max_iters = 10000
    grad_tol = 0

Problem kinds: ``quadratic`` (diag or matrix_csv, offset or offset_csv),
``log_sum_exp`` (rows or rows_csv, shifts, temperature, symmetric),
``logistic`` (features or features_csv, labels, ridge).  Inline matrices
use ';' between rows and spaces between entries.  Values are taken
literally (no ``%`` interpolation).  A solver's parameters come from its
``profile`` alone: ``cor-4.4`` or ``sc-2`` from :mod:`adaagm.schedule`, or
``default`` (also when ``profile`` is absent), which
:func:`~adaagm.schedule.default_params` resolves per problem; only
``default`` restarts.  Other parameter sets come from the Python API.
Every solver takes ``max_iters`` and ``grad_tol``; ``adaagm`` also takes
``profile``, while ``gd`` and ``nesterov`` run at the step 1/L (any other
step comes from the Python API).  ``symmetric`` is 1/yes/true/on or
0/no/false/off, in any case.  A key the solver would ignore is an error,
as is a ``grad_tol`` that is negative, infinite or NaN; so are non-finite
inputs and two cells (say, a repeated seed) that would write the same
trace file.  Sections are ``[experiment]``, ``[problem <name>]`` and
``[solver <name>]``; every problem and solver section is named, and a
name has only letters, digits, ``_``, ``-`` and ``.``, since it becomes part
of a trace file name and of ``summary.csv``.
"""

from __future__ import annotations

import configparser
import itertools
import math
import os
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import rng
from .problems import (
    SmoothProblem,
    load_matrix_csv,
    make_log_sum_exp,
    make_logistic,
    make_quadratic,
    make_symmetric_log_sum_exp,
)
from .schedule import PROFILES, AlgoParams
from .solver import StopCriteria

_EXPERIMENT_KEYS = {"output_dir": str, "thinning": int, "x0_scale": float,  # key: parser
                    "seeds": lambda text: [int(v) for v in text.replace(",", " ").split()]}
_PROBLEM_KEYS = {
    "quadratic": {"kind", "diag", "matrix_csv", "offset", "offset_csv"},
    "log_sum_exp": {"kind", "rows", "rows_csv", "shifts", "temperature", "symmetric"},
    "logistic": {"kind", "features", "features_csv", "labels", "ridge"},
}
_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES  # lower-case word -> bool
_SECTION = re.compile(r"experiment|(problem|solver) ([A-Za-z0-9_.-]+)")
_STOP_KEYS = {"algorithm", "max_iters", "grad_tol"}
_SOLVER_KEYS = {
    "adaagm": _STOP_KEYS | {"profile"},
    "gd": _STOP_KEYS,
    "nesterov": _STOP_KEYS,
}


class ConfigError(ValueError):
    """The configuration file is malformed or inconsistent."""


@dataclass
class ProblemSpec:
    name: str
    kind: str
    options: dict[str, str]


@dataclass
class SolverSpec:
    name: str
    algorithm: str
    params: Optional[AlgoParams] = None
    stop: StopCriteria = field(default_factory=StopCriteria)


@dataclass
class ExperimentConfig:
    problems: list[ProblemSpec]
    solvers: list[SolverSpec]
    seeds: list[int] = field(default_factory=lambda: [0])
    output_dir: str = "runs"
    thinning: int = 1
    x0_scale: float = 1.0
    base_dir: str = "."


def trace_name(problem: str, solver: str, seed: int) -> str:
    """File name of a cell's trace in the output directory."""
    return f"{problem}_{solver}_{seed}.csv"


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.replace(",", " ").split()])


def _parse_matrix(text: str) -> np.ndarray:
    rows = [r for r in text.split(";") if r.strip()]
    return np.array([[float(v) for v in r.split()] for r in rows])


def load_config(path) -> ExperimentConfig:
    """Parse and structurally validate a config file; raises ConfigError."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"parse failure: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")

    # ExperimentConfig's defaults stand for every [experiment] key the file leaves out
    config = ExperimentConfig(problems=[], solvers=[],
                              base_dir=os.path.dirname(os.path.abspath(path)))

    for section in parser.sections():
        match = _SECTION.fullmatch(section)
        if match is None:
            raise ConfigError(f"unknown section [{section}]: sections are [experiment], "
                              "[problem <name>] and [solver <name>], "
                              "a name made of letters, digits, '_', '-' and '.'")
        head, name = match.groups()
        items = dict(parser.items(section))
        try:
            if section == "experiment":
                unknown = set(items) - _EXPERIMENT_KEYS.keys()
                if unknown:
                    raise ConfigError(f"unknown keys in [experiment]: {sorted(unknown)}")
                for key, value in items.items():
                    setattr(config, key, _EXPERIMENT_KEYS[key](value))
                if not config.seeds:
                    raise ValueError("seeds must list at least one seed")
                if config.thinning < 1:
                    raise ConfigError("thinning must be a positive integer")
                if not math.isfinite(config.x0_scale):
                    raise ValueError("x0_scale must be finite")
            elif head == "problem":
                kind = items.get("kind")
                if kind not in _PROBLEM_KEYS:
                    raise ConfigError(f"[{section}]: unknown or missing kind {kind!r}")
                unknown = set(items) - _PROBLEM_KEYS[kind]
                if unknown:
                    raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
                config.problems.append(ProblemSpec(name=name, kind=kind, options=items))
            else:
                config.solvers.append(_parse_solver(name, items, section))
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"[{section}]: {exc}") from exc

    if not config.problems:
        raise ConfigError("no problems defined")
    if not config.solvers:
        raise ConfigError("no solvers defined")
    written: dict[str, str] = {}  # trace file name -> the cell that writes it
    for spec, solver, seed in itertools.product(config.problems, config.solvers, config.seeds):
        cell = f"{spec.name} x {solver.name} seed={seed}"
        name = trace_name(spec.name, solver.name, seed)
        if name in written:
            raise ConfigError(f"cells {written[name]} and {cell} would both write trace {name}")
        written[name] = cell
    return config


def _parse_solver(name: str, items: dict[str, str], section: str) -> SolverSpec:
    algorithm = items.get("algorithm", "adaagm")
    if algorithm not in _SOLVER_KEYS:
        raise ConfigError(f"[{section}]: unknown algorithm {algorithm!r}")
    unknown = set(items) - _SOLVER_KEYS[algorithm]
    if unknown:
        raise ConfigError(f"unknown keys in [{section}] for algorithm {algorithm!r}: "
                          f"{sorted(unknown)}")
    stop = StopCriteria(**{key: parse(items[key]) for key, parse
                           in (("max_iters", int), ("grad_tol", float)) if key in items})
    profile = items.get("profile", "default")  # default: resolved per problem at run time
    if profile != "default" and profile not in PROFILES:
        raise ConfigError(f"[{section}]: unknown profile {profile!r}")
    return SolverSpec(name=name, algorithm=algorithm, params=PROFILES.get(profile), stop=stop)


def build_problem(spec: ProblemSpec, base_dir: str = ".") -> SmoothProblem:
    """Instantiate the problem described by a config section; any error, a
    missing file included, is a ConfigError that names the problem."""
    opts = spec.options

    def path_of(key: str) -> str:
        p = opts[key]
        return p if os.path.isabs(p) else os.path.join(base_dir, p)

    def matrix(key: str, csv_key: str, parse) -> np.ndarray:
        """The matrix from ``csv_key``'s file, else parsed from ``key``'s text."""
        if csv_key in opts:
            return load_matrix_csv(path_of(csv_key))
        if key in opts:
            return parse(opts[key])
        raise ValueError(f"needs {key} or {csv_key}")

    try:
        if spec.kind == "quadratic":
            A = matrix("diag", "matrix_csv", lambda text: np.diag(_parse_vector(text)))
            if "offset_csv" in opts:
                b = load_matrix_csv(path_of("offset_csv")).ravel()
            else:
                b = _parse_vector(opts.get("offset", " ".join(["0"] * A.shape[0])))
            return make_quadratic(A, b, name=spec.name)

        if spec.kind == "log_sum_exp":
            rows = matrix("rows", "rows_csv", _parse_matrix)
            temperature = float(opts.get("temperature", 1.0))
            symmetric = opts.get("symmetric", "false").lower()
            if symmetric not in _BOOLEANS:
                raise ValueError(f"symmetric must be one of {'/'.join(_BOOLEANS)}, "
                                 f"not {opts['symmetric']!r}")
            if _BOOLEANS[symmetric]:
                return make_symmetric_log_sum_exp(rows, temperature, name=spec.name)
            shifts = _parse_vector(opts.get("shifts", " ".join(["0"] * rows.shape[0])))
            return make_log_sum_exp(rows, shifts, temperature, name=spec.name)

        if spec.kind == "logistic":
            A = matrix("features", "features_csv", _parse_matrix)
            if "labels" not in opts:
                raise ValueError("needs labels")
            labels = _parse_vector(opts["labels"])
            return make_logistic(A, labels, float(opts.get("ridge", 0.0)), name=spec.name)

        raise ValueError(f"unknown kind {spec.kind!r}")
    except (ValueError, OSError) as exc:
        raise ConfigError(f"problem {spec.name}: {exc}") from exc


def start_point(config: ExperimentConfig, problem_index: int,
                solver_index: int, seed: int, dimension: int) -> np.ndarray:
    """Deterministic per-cell start point: scaled standard normals."""
    gen = rng.XorShift64Star(rng.cell_seed(problem_index, solver_index, seed))
    return gen.normal_vector(dimension, scale=config.x0_scale)

