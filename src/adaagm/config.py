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
use ';' between rows and spaces between entries.  Solver profiles are the
named ones from :mod:`adaagm.schedule`, ``custom`` with explicit fields, or
``default`` (also when ``profile`` is absent), which
:func:`~adaagm.schedule.default_params` resolves per problem.
Every solver takes ``max_iters``, ``grad_tol`` and ``gap_tol``; ``adaagm``
also takes ``profile``, ``m``, ``t0``, ``gamma``, ``beta``, ``omega``,
``delta`` and ``s0``, while ``gd`` and ``nesterov`` take ``step``.  A key the
solver would ignore is an error (so is a parameter field under
``profile = default``), as is a ``step`` that is not positive and finite or
a negative or NaN tolerance.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, replace
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
from .schedule import PROFILES, AlgoParams, default_params, floor_q, get_profile, validate_params
from .solver import StopCriteria, check_step

_EXPERIMENT_KEYS = {"output_dir", "seeds", "thinning", "x0_scale"}
_PROBLEM_KEYS = {
    "quadratic": {"kind", "diag", "matrix_csv", "offset", "offset_csv"},
    "log_sum_exp": {"kind", "rows", "rows_csv", "shifts", "temperature", "symmetric"},
    "logistic": {"kind", "features", "features_csv", "labels", "ridge"},
}
_STOP_KEYS = {"algorithm", "max_iters", "grad_tol", "gap_tol"}
_PARAM_KEYS = {"m", "t0", "gamma", "beta", "omega", "delta", "s0"}
_SOLVER_KEYS = {
    "adaagm": _STOP_KEYS | _PARAM_KEYS | {"profile"},
    "gd": _STOP_KEYS | {"step"},
    "nesterov": _STOP_KEYS | {"step"},
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
    step: Optional[float] = None  # None: 1/L at run time when L is known
    stop: StopCriteria = field(default_factory=StopCriteria)


@dataclass
class ExperimentConfig:
    problems: list[ProblemSpec]
    solvers: list[SolverSpec]
    seeds: list[int]
    output_dir: str = "runs"
    thinning: int = 1
    x0_scale: float = 1.0
    base_dir: str = "."


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.replace(",", " ").split()])


def _parse_matrix(text: str) -> np.ndarray:
    rows = [r for r in text.split(";") if r.strip()]
    return np.array([[float(v) for v in r.split()] for r in rows])


def load_config(path) -> ExperimentConfig:
    """Parse and structurally validate a config file; raises ConfigError."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"parse failure: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")

    base_dir = os.path.dirname(os.path.abspath(path))
    problems: list[ProblemSpec] = []
    solvers: list[SolverSpec] = []
    output_dir = "runs"
    seeds = [0]
    thinning = 1
    x0_scale = 1.0

    for section in parser.sections():
        items = dict(parser.items(section))
        try:
            if section == "experiment":
                unknown = set(items) - _EXPERIMENT_KEYS
                if unknown:
                    raise ConfigError(f"unknown keys in [experiment]: {sorted(unknown)}")
                output_dir = items.get("output_dir", output_dir)
                if "seeds" in items:
                    seeds = [int(v) for v in items["seeds"].replace(",", " ").split()]
                    if not seeds:
                        raise ValueError("seeds must list at least one seed")
                thinning = int(items.get("thinning", thinning))
                if thinning < 1:
                    raise ConfigError("thinning must be a positive integer")
                x0_scale = float(items.get("x0_scale", x0_scale))
            elif section.startswith("problem"):
                name = section[len("problem"):].strip() or f"problem{len(problems)}"
                kind = items.get("kind")
                if kind not in _PROBLEM_KEYS:
                    raise ConfigError(f"[{section}]: unknown or missing kind {kind!r}")
                unknown = set(items) - _PROBLEM_KEYS[kind]
                if unknown:
                    raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
                problems.append(ProblemSpec(name=name, kind=kind, options=items))
            elif section.startswith("solver"):
                name = section[len("solver"):].strip() or f"solver{len(solvers)}"
                solvers.append(_parse_solver(name, items, section))
            else:
                raise ConfigError(f"unknown section [{section}]")
        except ConfigError:
            raise
        except KeyError as exc:
            raise ConfigError(f"[{section}]: missing key {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"[{section}]: {exc}") from exc

    if not problems:
        raise ConfigError("no problems defined")
    if not solvers:
        raise ConfigError("no solvers defined")
    return ExperimentConfig(problems=problems, solvers=solvers, seeds=seeds,
                            output_dir=output_dir, thinning=thinning,
                            x0_scale=x0_scale, base_dir=base_dir)


def _parse_solver(name: str, items: dict[str, str], section: str) -> SolverSpec:
    algorithm = items.get("algorithm", "adaagm")
    if algorithm not in _SOLVER_KEYS:
        raise ConfigError(f"[{section}]: unknown algorithm {algorithm!r}")
    unknown = set(items) - _SOLVER_KEYS[algorithm]
    if unknown:
        raise ConfigError(f"unknown keys in [{section}] for algorithm {algorithm!r}: "
                          f"{sorted(unknown)}")
    stop = StopCriteria(
        max_iters=int(items.get("max_iters", 100_000)),
        grad_tol=float(items["grad_tol"]) if "grad_tol" in items else None,
        gap_tol=float(items["gap_tol"]) if "gap_tol" in items else None,
    )
    step = float(items["step"]) if "step" in items else None
    if step is not None:
        check_step(step)

    params = None
    profile = items.get("profile", "default")
    if algorithm == "adaagm":
        fields = sorted(set(items) & _PARAM_KEYS)
        if profile == "custom":
            params = AlgoParams(
                m=float(items["m"]), t0=float(items["t0"]),
                gamma=float(items["gamma"]), beta=float(items["beta"]),
                omega=float(items.get("omega", 0.0)),
                delta=float(items.get("delta", 0.0)),
                s0=float(items["s0"]) if "s0" in items else None,
            )
        elif profile == "default":
            # resolved per problem (convex vs strongly convex), so a field set
            # here would be silently dropped
            if fields:
                raise ValueError(f"profile = default takes no {', '.join(fields)}; "
                                 "name a profile or use profile = custom")
        elif profile in PROFILES:
            params = get_profile(profile, **{key: float(items[key]) for key in fields})
        else:
            raise ConfigError(f"[{section}]: unknown profile {profile!r}")
        if params is not None:
            report = validate_params(params)
            if not report.valid:
                raise ConfigError(f"[{section}]: " + "; ".join(report.failures))
    return SolverSpec(name=name, algorithm=algorithm, params=params, step=step, stop=stop)


def build_problem(spec: ProblemSpec, base_dir: str = ".") -> SmoothProblem:
    """Instantiate the problem described by a config section."""
    opts = spec.options

    def path_of(key: str) -> str:
        p = opts[key]
        return p if os.path.isabs(p) else os.path.join(base_dir, p)

    if spec.kind == "quadratic":
        if "matrix_csv" in opts:
            A = load_matrix_csv(path_of("matrix_csv"))
        elif "diag" in opts:
            A = np.diag(_parse_vector(opts["diag"]))
        else:
            raise ConfigError(f"problem {spec.name}: needs diag or matrix_csv")
        if "offset_csv" in opts:
            b = load_matrix_csv(path_of("offset_csv")).ravel()
        else:
            b = _parse_vector(opts.get("offset", " ".join(["0"] * A.shape[0])))
        return make_quadratic(A, b, name=spec.name)

    if spec.kind == "log_sum_exp":
        if "rows_csv" in opts:
            rows = load_matrix_csv(path_of("rows_csv"))
        elif "rows" in opts:
            rows = _parse_matrix(opts["rows"])
        else:
            raise ConfigError(f"problem {spec.name}: needs rows or rows_csv")
        temperature = float(opts.get("temperature", 1.0))
        if opts.get("symmetric", "").lower() in ("1", "true", "yes"):
            return make_symmetric_log_sum_exp(rows, temperature, name=spec.name)
        shifts = _parse_vector(opts.get("shifts", " ".join(["0"] * rows.shape[0])))
        return make_log_sum_exp(rows, shifts, temperature, name=spec.name)

    if spec.kind == "logistic":
        if "features_csv" in opts:
            A = load_matrix_csv(path_of("features_csv"))
        elif "features" in opts:
            A = _parse_matrix(opts["features"])
        else:
            raise ConfigError(f"problem {spec.name}: needs features or features_csv")
        labels = _parse_vector(opts["labels"])
        return make_logistic(A, labels, float(opts.get("ridge", 0.0)), name=spec.name)

    raise ConfigError(f"problem {spec.name}: unknown kind {spec.kind!r}")


def start_point(config: ExperimentConfig, problem_index: int,
                solver_index: int, seed: int, dimension: int) -> np.ndarray:
    """Deterministic per-cell start point: scaled standard normals."""
    gen = rng.XorShift64Star(rng.cell_seed(problem_index, solver_index, seed))
    return gen.normal_vector(dimension, scale=config.x0_scale)


@dataclass
class ConfigReport:
    ok: bool
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    #: step floor constant q per (solver, problem), as the run resolves it
    solver_floors: dict[tuple[str, str], float] = field(default_factory=dict)


def validate_config(path) -> ConfigReport:
    """Full validation: parse, check files, build problems, then resolve q and
    check the parameters against L per (solver, problem)."""
    report = ConfigReport(ok=True)
    try:
        config = load_config(path)
    except ConfigError as exc:
        return ConfigReport(ok=False, errors=[str(exc)])

    problems: list[SmoothProblem] = []
    for spec in config.problems:
        missing = [spec.options[key]
                   for key in ("matrix_csv", "offset_csv", "rows_csv", "features_csv")
                   if key in spec.options
                   and not os.path.exists(os.path.join(config.base_dir, spec.options[key]))]
        report.errors.extend(f"problem {spec.name}: missing file {p}" for p in missing)
        if missing:
            continue
        try:
            problems.append(build_problem(spec, config.base_dir))
        except (ConfigError, ValueError, OSError) as exc:
            report.errors.append(f"problem {spec.name}: {exc}")

    for spec in config.solvers:
        if spec.algorithm != "adaagm":
            continue
        for problem in problems:
            params = spec.params or default_params(problem)
            # load_config has already rejected invalid parameter sets
            report.warnings.extend(
                f"solver {spec.name} on problem {problem.name}: {w}"
                for w in validate_params(params, problem.L_known).warnings)
            report.solver_floors[(spec.name, problem.name)] = floor_q(params)

    report.ok = not report.errors
    return report
