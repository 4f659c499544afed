"""The benchmark's workloads: an experiment config per name, built from a seed.

Every generated matrix, label vector and start-point seed derives from the
workload seed alone, so one seed always gives the same inputs.  Why each
workload exists is recorded in ``BENCHMARK.json``.

* ``demo-matrix`` is the shipped ``configs/benchmark.ini`` with its
  start-point seeds replaced.  Its problems have 2-3 unknowns, where the
  iteration count depends strongly on the start point, so the matrix runs
  ``DEMO_SEEDS`` start points to keep the summed counts steady from one
  workload seed to the next.
* ``dense-oracle`` writes a dense quadratic and ridge-logistic features as
  matrix CSVs, so matrix-vector products dominate.
* ``trace-replay`` uses small problems, all with a known minimizer, at
  thinning 1, so every row carries an energy and the trace files are large.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from adaagm.config import load_config

WORKLOADS = ("demo-matrix", "dense-oracle", "trace-replay")
DEMO_SEEDS = 8
REPLAY_SEEDS = 4
TINY_MAX_ITERS = 2000

_SOLVERS = """
[solver agm]
algorithm = adaagm
profile = default
max_iters = 20000
grad_tol = 1e-9

[solver agm-convex]
algorithm = adaagm
profile = cor-4.4
max_iters = 20000
grad_tol = 1e-9

[solver nesterov]
algorithm = nesterov
max_iters = 20000
grad_tol = 1e-9
"""


@dataclass
class Workload:
    """A config file plus what the benchmark overrides after loading it."""

    name: str
    config_path: str
    start_seeds: list[int]
    max_iters: int | None = None
    # closed-form minimum value per quadratic problem name
    f_star: dict[str, float] = field(default_factory=dict)
    # strong-convexity modulus per quadratic problem name
    mu: dict[str, float] = field(default_factory=dict)

    def prepare(self, config, output_dir: str):
        """Apply the seed-derived start points and output directory to a loaded config."""
        config.seeds = list(self.start_seeds)
        config.output_dir = output_dir
        if self.max_iters is not None:
            for solver in config.solvers:
                solver.stop.max_iters = self.max_iters
        return config


def _fmt(values) -> str:
    return " ".join(format(float(v), ".17g") for v in np.ravel(values))


def _inline_matrix(matrix) -> str:
    return "; ".join(_fmt(row) for row in matrix)


def _write_csv(path: str, matrix) -> None:
    np.savetxt(path, np.atleast_2d(matrix), delimiter=",", fmt="%.17g")


def _rotated_quadratic(gen, n: int, cond: float):
    """Dense SPD matrix with log-spaced spectrum in [1, cond], offset, and f*."""
    Q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    lam = np.logspace(0.0, np.log10(cond), n)
    A = (Q * lam) @ Q.T
    A = 0.5 * (A + A.T)
    b = gen.standard_normal(n)
    Qb = Q.T @ b
    f_star = -0.5 * float(np.sum(Qb * Qb / lam))
    return A, b, f_star, float(lam[0])


def _logistic_data(gen, m: int, n: int):
    """Features scaled by 1/sqrt(m) and noisy linear labels in {-1, +1}."""
    features = gen.standard_normal((m, n)) / np.sqrt(m)
    w = gen.standard_normal(n)
    margin = features @ w + 0.5 * gen.standard_normal(m) / np.sqrt(n)
    return features, np.where(margin >= 0.0, 1.0, -1.0)


def _experiment(thinning: int) -> str:
    return f"[experiment]\nseeds = 0\nthinning = {thinning}\nx0_scale = 2.0\n"


def _demo(seed: int, root: str, tiny: bool) -> Workload:
    path = os.path.join(root, "configs", "benchmark.ini")
    config = load_config(path)
    work = Workload("demo-matrix", path,
                    start_seeds=[DEMO_SEEDS * seed + i for i in range(1 if tiny else DEMO_SEEDS)],
                    max_iters=TINY_MAX_ITERS if tiny else None)
    for spec in config.problems:
        if spec.kind == "quadratic" and "diag" in spec.options:
            d = np.array([float(v) for v in spec.options["diag"].split()])
            b = np.array([float(v) for v in spec.options["offset"].split()])
            work.f_star[spec.name] = -0.5 * float(np.sum(b * b / d))
            work.mu[spec.name] = float(d.min())
    return work


def _dense(seed: int, input_dir: str, tiny: bool) -> Workload:
    gen = np.random.default_rng([seed, 1])
    n_quad, m_logit, n_logit = (30, 60, 12) if tiny else (500, 1000, 200)
    A, b, f_star, mu = _rotated_quadratic(gen, n_quad, 1e2)
    features, labels = _logistic_data(gen, m_logit, n_logit)
    _write_csv(os.path.join(input_dir, "quad_matrix.csv"), A)
    _write_csv(os.path.join(input_dir, "quad_offset.csv"), b)
    _write_csv(os.path.join(input_dir, "logit_features.csv"), features)
    text = (_experiment(10)
            + "\n[problem dquad]\nkind = quadratic\nmatrix_csv = quad_matrix.csv\n"
            + "offset_csv = quad_offset.csv\n"
            + "\n[problem dlogit]\nkind = logistic\nfeatures_csv = logit_features.csv\n"
            + f"labels = {_fmt(labels)}\nridge = 0.01\n"
            + _SOLVERS)
    path = os.path.join(input_dir, "dense-oracle.ini")
    with open(path, "w") as fh:
        fh.write(text)
    return Workload("dense-oracle", path, start_seeds=[seed],
                    max_iters=TINY_MAX_ITERS if tiny else None,
                    f_star={"dquad": f_star}, mu={"dquad": mu})


def _replay(seed: int, input_dir: str, tiny: bool) -> Workload:
    gen = np.random.default_rng([seed, 2])
    A, b, f_star, mu = _rotated_quadratic(gen, 20, 10 ** 1.5)
    features, labels = _logistic_data(gen, 50, 10)
    # orthonormal rows: the curvature at the minimizer is the same for every seed
    rows, _ = np.linalg.qr(gen.standard_normal((4, 4)))
    text = (_experiment(1)
            + f"\n[problem rquad]\nkind = quadratic\nmatrix_csv = replay_matrix.csv\n"
            + f"offset = {_fmt(b)}\n"
            + f"\n[problem rlogit]\nkind = logistic\nfeatures = {_inline_matrix(features)}\n"
            + f"labels = {_fmt(labels)}\nridge = 0.05\n"
            + f"\n[problem rlse]\nkind = log_sum_exp\nrows = {_inline_matrix(rows)}\n"
            + "symmetric = true\ntemperature = 0.5\n"
            + _SOLVERS)
    _write_csv(os.path.join(input_dir, "replay_matrix.csv"), A)
    path = os.path.join(input_dir, "trace-replay.ini")
    with open(path, "w") as fh:
        fh.write(text)
    count = 1 if tiny else REPLAY_SEEDS
    return Workload("trace-replay", path,
                    start_seeds=[REPLAY_SEEDS * seed + i for i in range(count)],
                    max_iters=TINY_MAX_ITERS if tiny else None,
                    f_star={"rquad": f_star}, mu={"rquad": mu})


def build(name: str, seed: int, root: str, input_dir: str, tiny: bool = False) -> Workload:
    """Write the inputs of workload ``name`` under ``input_dir``."""
    if name == "demo-matrix":
        return _demo(seed, root, tiny)
    if name == "dense-oracle":
        return _dense(seed, input_dir, tiny)
    if name == "trace-replay":
        return _replay(seed, input_dir, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def matrix_shape(spec, dimension: int) -> tuple[int, int]:
    """Rows and columns of the matrix behind a problem section.

    Log-sum-exp rows are read from the inline ``rows`` option, which every
    workload here uses.
    """
    opts = spec.options
    if spec.kind == "quadratic":
        return dimension, dimension
    if spec.kind == "logistic":
        return len(opts["labels"].replace(",", " ").split()), dimension
    rows = len([r for r in opts["rows"].split(";") if r.strip()])
    if opts.get("symmetric", "").lower() in ("1", "true", "yes"):
        rows *= 2
    return rows, dimension


def matvecs_per_call(kind: str, op: str) -> int:
    """Matrix passes per oracle call: value needs A@x, most gradients also A.T@r."""
    if op == "value":
        return 1
    return 1 if kind == "quadratic" else 2
