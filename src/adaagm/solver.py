"""Solver loops: the adaptive accelerated method and two fixed-step baselines.

One driver, :func:`_iterate`, runs all three methods.  Every iteration
takes y_{k+1} = x_k - s_k*grad f(x_k) and extrapolates
x_{k+1} = y_{k+1} + (t_k - 1)/t_{k+1}*(y_{k+1} - y_k), plus a
(gamma - 1)*t_k/t_{k+1}*(y_{k+1} - x_k) correction when gamma != 1.  The
loop keeps t_k, t_{k+1} and s_k as plain numbers, and every method advances
t by :func:`next_t` at its own m.  Only the step rule and the t-recursion's
constants differ:

* adaptive (:func:`run_adaagm`): s from :func:`local_smoothness` and
  :func:`advance_step`, t from the profile's t_0 and m;
* fixed: constant s, t from t_0 = 1 at m = 1, which is classical Nesterov
  momentum (:func:`run_nesterov`), or at m = 0, where t stays 1 and the
  momentum vanishes, which is gradient descent (:func:`run_gd`).

Every iteration, and the s0 probe, makes exactly one oracle call,
``problem.value_and_grad``; a non-finite value or gradient raises
:class:`DivergenceError`.  All runs produce a :class:`Trace` of
per-iteration records and the final iterate; the iterates along the way are
not kept.  The energy column of an adaptive record at index k is computed
from the iterates available at the end of iteration k (it needs x_{k+1} and
y_{k+1}), so it lags the other columns by one step; the final record carries
no energy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import diagnostics
from .problems import SmoothProblem
from .schedule import (
    AlgoParams,
    advance_step,
    default_params,
    floor_q,
    local_smoothness,
    next_t,
    validate_params,
)

Array = np.ndarray


class DivergenceError(RuntimeError):
    """A non-finite value or gradient appeared at iteration ``k``."""

    def __init__(self, k: int):
        super().__init__(f"non-finite value or gradient at iteration {k}")
        self.k = k


@dataclass
class StopCriteria:
    """Stopping rule: iteration budget plus optional tolerances.

    ``grad_tol=None`` resolves to the scale-free default
    1e-10*(1 + ||grad(x0)||).  Zero tolerances never fire, leaving the
    budget as the only criterion.
    """

    max_iters: int = 100_000
    grad_tol: Optional[float] = None
    gap_tol: Optional[float] = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        for key in ("grad_tol", "gap_tol"):
            tol = getattr(self, key)
            if tol is not None and not tol >= 0.0:  # also rejects NaN
                raise ValueError(f"{key} must be a non-negative number")


@dataclass
class TraceRecord:
    """One logged iteration."""

    k: int
    gap: Optional[float]
    grad_norm: float
    s: Optional[float]
    t: Optional[float]
    L_est: Optional[float]
    energy: Optional[float] = None


@dataclass
class Trace:
    """A solver run: per-iteration records plus the start point.

    ``x_final`` is the iterate the run stopped at; traces read back from CSV
    do not carry it.
    """

    records: list[TraceRecord]
    x0: Array
    algorithm: str
    x_final: Optional[Array] = None

    def __len__(self) -> int:
        return len(self.records)


#: Fixed-rule parameters: the t-recursion from t_0 = 1 at m = 1 (Nesterov)
#: and at m = 0, where next_t(1, 0) == 1 exactly (gradient descent).
_NESTEROV = AlgoParams(m=1.0, t0=1.0, gamma=1.0)
_GD = AlgoParams(m=0.0, t0=1.0, gamma=1.0)


def check_step(step: float) -> None:
    """Reject a fixed step that is not positive and finite."""
    if not 0.0 < step < math.inf:  # also rejects NaN
        raise ValueError("step must be a positive finite number")


def _evaluate(problem: SmoothProblem, x: Array, k: int) -> tuple[float, Array, float]:
    """f, g and g.g at x; a non-finite f or g raises DivergenceError.

    g.g is finite whenever every entry of g is, unless it overflows on huge
    finite entries, so the entry-wise check runs only when g.g is not finite.
    """
    f, g = problem.value_and_grad(x)
    gg = g.dot(g)
    if not math.isfinite(f) or (not math.isfinite(gg) and not np.isfinite(g).all()):
        raise DivergenceError(k)
    return f, g, gg


def _resolved_grad_tol(stop: StopCriteria, g0: Array) -> float:
    if stop.grad_tol is not None:
        return stop.grad_tol
    return 1e-10 * (1.0 + float(np.linalg.norm(g0)))


def _probe_s0(problem: SmoothProblem, x0: Array, g0: Array, f0: float,
              params: AlgoParams) -> float:
    """Initial step from a unit-scaled trial step when L is unknown.

    The probe's local estimate never exceeds the true L, so q divided by it
    is at least q/L.
    """
    q = floor_q(params)
    g_norm = float(np.linalg.norm(g0))
    if g_norm == 0.0:
        return 1.0
    eps = 1e-4 * (1.0 + float(np.linalg.norm(x0)))
    x1 = x0 - eps * g0 / g_norm
    f1, g1, _ = _evaluate(problem, x1, 0)
    L_hat = local_smoothness(g1, g0, f1, f0, x1, x0)
    if L_hat <= 0.0:
        return 1.0
    return q / L_hat


def _iterate(problem: SmoothProblem, algorithm: str, params: AlgoParams,
             s0: Optional[float], x0, stop: Optional[StopCriteria],
             thin: int) -> Trace:
    """The iteration loop of all three methods, from x0 = y0.

    ``algorithm == "adaagm"`` selects the adaptive rule, anything else the
    fixed rule with the constant step ``s0`` and ``params.m``.  The driver
    owns stopping, recording every ``thin``-th iteration plus the last, and
    the finite checks.  ``s0=None`` resolves by :func:`_probe_s0` at the
    start point.
    """
    if thin < 1:
        raise ValueError(f"thin must be a positive integer, got {thin}")
    x0 = np.zeros(problem.dimension) if x0 is None else np.asarray(x0, dtype=float)
    stop = stop or StopCriteria()
    adaptive = algorithm == "adaagm"

    x = x0.copy()
    y = x0.copy()
    f_x, g_x, gg_x = _evaluate(problem, x, 0)
    grad_tol = _resolved_grad_tol(stop, g_x)
    s = _probe_s0(problem, x0, g_x, f_x, params) if s0 is None else s0
    t, t_next = params.t0, next_t(params.t0, params.m)

    has_gap = problem.f_star is not None
    has_energy = adaptive and has_gap and problem.x_star is not None

    records: list[TraceRecord] = []
    L_curr = 0.0 if adaptive else None
    L_seen = 0.0
    k = 0
    while True:
        grad_norm = math.sqrt(gg_x)  # np.linalg.norm's own formula, bit for bit
        gap = f_x - problem.f_star if has_gap else None
        stopping = (
            k >= stop.max_iters
            or (grad_tol > 0.0 and grad_norm <= grad_tol)
            or (stop.gap_tol is not None and stop.gap_tol > 0.0
                and has_gap and gap <= stop.gap_tol)
        )
        rec = None
        if k % thin == 0 or stopping:
            rec = TraceRecord(k=k, gap=gap, grad_norm=grad_norm, s=s,
                              t=None if algorithm == "gd" else t, L_est=L_curr)
            records.append(rec)
        if stopping:
            break

        y_next = x - s * g_x
        x_next = y_next + (t - 1.0) / t_next * (y_next - y)
        if params.gamma != 1.0:  # at gamma = 1 the correction is exactly zero
            x_next = x_next + (params.gamma - 1.0) * t / t_next * (y_next - x)
        f_next, g_next, gg_next = _evaluate(problem, x_next, k + 1)

        if adaptive:
            L_curr = local_smoothness(g_next, g_x, f_next, f_x, x_next, x,
                                      clamp=problem.L_known,
                                      underflow_fallback=(L_seen or None))
            L_seen = max(L_seen, L_curr)
            if rec is not None and has_energy:
                rec.energy = diagnostics.energy(x_next, y_next, g_x, f_x, t, t_next, s,
                                                problem.x_star, problem.f_star, params)
            s = advance_step(t_next, s, L_curr, params)
        t, t_next = t_next, next_t(t_next, params.m)

        x, y, f_x, g_x, gg_x = x_next, y_next, f_next, g_next, gg_next
        k += 1

    return Trace(records=records, x0=x0, algorithm=algorithm, x_final=x)


def run_adaagm(problem: SmoothProblem, params: Optional[AlgoParams] = None,
               stop: Optional[StopCriteria] = None, x0=None, *, thin: int = 1) -> Trace:
    """Run the adaptive accelerated method from x0 = y0.

    ``params.s0=None`` resolves to q/L when L is known, otherwise by a
    one-step probe at the start point.  Invalid parameters raise
    ``ValueError``; :func:`validate_params`' warnings are emitted.
    """
    if params is None:
        params = default_params(problem)
    report = validate_params(params, L_known=problem.L_known)
    if not report.valid:
        raise ValueError("invalid parameters: " + "; ".join(report.failures))
    for message in report.warnings:
        warnings.warn(message, stacklevel=2)
    s0 = params.s0
    if s0 is None and problem.L_known is not None and problem.L_known > 0:
        s0 = floor_q(params) / problem.L_known
    return _iterate(problem, "adaagm", params, s0, x0, stop, thin)


def run_gd(problem: SmoothProblem, step: float,
           stop: Optional[StopCriteria] = None, x0=None, *, thin: int = 1) -> Trace:
    """Fixed-step gradient descent baseline."""
    check_step(step)
    if problem.L_known is not None and problem.L_known > 0 and step >= 2.0 / problem.L_known:
        warnings.warn(f"step {step:.6g} >= 2/L = {2.0 / problem.L_known:.6g}; "
                      "gradient descent may diverge", stacklevel=2)
    return _iterate(problem, "gd", _GD, step, x0, stop, thin)


def run_nesterov(problem: SmoothProblem, step: float,
                 stop: Optional[StopCriteria] = None, x0=None, *, thin: int = 1) -> Trace:
    """Classical momentum baseline with the theta recursion from theta_0 = 1."""
    check_step(step)
    if problem.L_known is not None and problem.L_known > 0 and step > 1.0 / problem.L_known:
        warnings.warn(f"step {step:.6g} > 1/L = {1.0 / problem.L_known:.6g}; "
                      "the accelerated rate is not guaranteed", stacklevel=2)
    return _iterate(problem, "nesterov", _NESTEROV, step, x0, stop, thin)


# --- CSV serialization -------------------------------------------------------

_CSV_HEADER = "k,gap,grad_norm,s,t,L_est,energy"


def format_float(v: Optional[float]) -> str:
    """17 significant digits, so the float reads back exactly; None is empty."""
    return "" if v is None else format(float(v), ".17g")


def write_trace_csv(trace: Trace, path) -> None:
    """Write a trace as CSV with 17-significant-digit floats.

    The start point rides along in a comment line so that certificates can
    be re-checked from the file alone.
    """
    lines = [
        f"# algorithm = {trace.algorithm}",
        "# x0 = " + " ".join(map(format_float, trace.x0)),
        "# note: energy[k] uses the step-(k+1) iterates and lags the other columns by one row",
        _CSV_HEADER,
    ]
    for r in trace.records:
        lines.append(",".join([
            str(r.k), format_float(r.gap), format_float(r.grad_norm), format_float(r.s),
            format_float(r.t), format_float(r.L_est), format_float(r.energy),
        ]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_csv(path) -> Trace:
    """Read a trace written by :func:`write_trace_csv`."""
    algorithm = "unknown"
    x0: Optional[Array] = None
    records: list[TraceRecord] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("# ").strip()
                if body.startswith("algorithm ="):
                    algorithm = body.split("=", 1)[1].strip()
                elif body.startswith("x0 ="):
                    x0 = np.array([float(v) for v in body.split("=", 1)[1].split()])
                continue
            if line == _CSV_HEADER:
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise ValueError(f"malformed trace row: {line!r}")
            vals = [None if p == "" else float(p) for p in parts[1:]]
            records.append(TraceRecord(k=int(parts[0]), gap=vals[0],
                                       grad_norm=vals[1], s=vals[2],
                                       t=vals[3], L_est=vals[4], energy=vals[5]))
    if x0 is None:
        raise ValueError(f"trace file {path} is missing the x0 comment line")
    return Trace(records=records, x0=x0, algorithm=algorithm)
