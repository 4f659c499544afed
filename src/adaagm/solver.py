"""Solver loops: the adaptive accelerated method and two fixed-step baselines.

One driver, :func:`_iterate`, runs all three methods.  Every iteration
takes y_{k+1} = x_k - s_k*grad f(x_k) and extrapolates
x_{k+1} = y_{k+1} + (t_k - 1)/t_{k+1}*(y_{k+1} - y_k), plus a
(gamma - 1)*t_k/t_{k+1}*(y_{k+1} - x_k) correction when gamma != 1.  The
loop keeps t_k, t_{k+1} and s_k as plain numbers, and every method advances
t by :func:`next_t` at its own m.  Only the step rule and the t-recursion's
constants differ:

* adaptive (:func:`run_adaagm`): s_0 from a one-step probe of the local
  smoothness at x_0 (:func:`_probe_s0`) unless the parameters fix it, then
  s from :func:`local_smoothness` and :func:`advance_step`, t from the
  profile's t_0 and m;
* fixed: constant s, t from t_0 = 1 at m = 1, which is classical Nesterov
  momentum (:func:`run_nesterov`), or at m = 0, where t stays 1 and the
  momentum vanishes, which is gradient descent (:func:`run_gd`).

With ``params.restart`` (set by :func:`default_params` only), an adaptive
run restarts whenever g_k'(y_{k+1} - y_k) > 0: x_{k+1} = y_{k+1} without
extrapolation, t goes back to t_0, and the step s_{k+1} becomes the new
epoch's s0.  From there on every step is exactly a fresh run from
z = y_{k+1}, and the oracle call at z is the one the loop makes anyway.
An epoch's first row is recorded even when thinned; when x* is known it
carries ||z - x*||^2 (``dist_sq``), which certificates need to
re-anchor the rate constant.  Epoch starts are the rows with t == t_0,
since t grows strictly inside an epoch.

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
    1e-10*(1 + ||grad(x0)||).  A tolerance is finite, since an infinite
    one fires at k = 0; zero tolerances never fire, leaving the budget as
    the only criterion.
    """

    max_iters: int = 100_000
    grad_tol: Optional[float] = None
    gap_tol: Optional[float] = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        for key in ("grad_tol", "gap_tol"):
            tol = getattr(self, key)
            if tol is not None and not 0.0 <= tol < math.inf:  # also rejects NaN
                raise ValueError(f"{key} must be a non-negative number and finite")


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
    # ||z - x*||^2 at the start point z of a restart epoch after the first
    dist_sq: Optional[float] = None


@dataclass
class Trace:
    """A solver run: per-iteration records plus the start point.

    ``x_final`` is the iterate the run stopped at, and ``fallbacks`` the
    number of iterations whose local estimate fell in the rounding band of
    :func:`local_smoothness`; traces read back from CSV carry neither.
    """

    records: list[TraceRecord]
    x0: Array
    algorithm: str
    x_final: Optional[Array] = None
    fallbacks: Optional[int] = None

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


def _probe_s0(problem: SmoothProblem, x0: Array, g0: Array, f0: float,
              params: AlgoParams) -> float:
    """Initial step q/L_hat(x0) from one short trial step along -g0.

    L_hat(x0) is :func:`local_smoothness` of the pair (x0, x1), capped at
    the known L as in the loop, so s0 = q/min(L_hat(x0), L) >= q/L: the
    local curvature at the start point, not the global bound, sets the
    first step.  A probe that sees no curvature (L_hat = 0) starts from
    q/L when L is known and from 1 otherwise.
    """
    q = floor_q(params)
    g_norm = float(np.linalg.norm(g0))
    if g_norm == 0.0:
        return 1.0
    eps = 1e-4 * (1.0 + float(np.linalg.norm(x0)))
    x1 = x0 - eps * g0 / g_norm
    f1, g1, gg1 = _evaluate(problem, x1, 0)
    L_known = problem.L_known
    L_hat, _ = local_smoothness(g1, g0, f1, f0, x1, x0, gg1, clamp=L_known)
    if L_hat > 0.0:
        return q / L_hat
    return q / L_known if L_known else 1.0


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
    # loop invariants, read once
    f_star, x_star, L_known = problem.f_star, problem.x_star, problem.L_known
    t0, m, gamma, max_iters = params.t0, params.m, params.gamma, stop.max_iters
    has_gap = f_star is not None
    gap_tol = stop.gap_tol if has_gap and stop.gap_tol is not None else 0.0
    has_energy = adaptive and has_gap and x_star is not None
    restart = adaptive and params.restart

    x, y = x0.copy(), x0.copy()
    f_x, g_x, gg_x = _evaluate(problem, x, 0)
    grad_tol = stop.grad_tol
    if grad_tol is None:  # StopCriteria's scale-free default
        grad_tol = 1e-10 * (1.0 + float(np.linalg.norm(g_x)))
    s = _probe_s0(problem, x0, g_x, f_x, params) if s0 is None else s0
    t, t_next = t0, next_t(t0, m)
    t1 = t_next

    records: list[TraceRecord] = []
    L_curr = 0.0 if adaptive else None
    fallbacks = 0
    k = 0
    restarted = False
    while True:
        grad_norm = math.sqrt(gg_x)  # np.linalg.norm's own formula, bit for bit
        gap = f_x - f_star if has_gap else None
        stopping = (k >= max_iters or (grad_tol > 0.0 and grad_norm <= grad_tol)
                    or (gap_tol > 0.0 and gap <= gap_tol))
        rec = None
        if k % thin == 0 or stopping or restarted:
            rec = TraceRecord(k=k, gap=gap, grad_norm=grad_norm, s=s,
                              t=None if algorithm == "gd" else t, L_est=L_curr)
            if restarted and x_star is not None:
                dz = x - x_star
                rec.dist_sq = float(dz.dot(dz))
            records.append(rec)
        if stopping:
            break

        y_next = x - s * g_x
        dy = y_next - y
        x_next = y_next + (t - 1.0) / t_next * dy
        if gamma != 1.0:  # at gamma = 1 the correction is exactly zero
            x_next = x_next + (gamma - 1.0) * t / t_next * (y_next - x)
        restarted = restart and float(g_x.dot(dy)) > 0.0
        # x_next stays the epoch's extrapolation, which the energy row needs
        x_eval = y_next if restarted else x_next
        f_next, g_next, gg_next = _evaluate(problem, x_eval, k + 1)

        if adaptive:
            L_curr, fallback = local_smoothness(g_next, g_x, f_next, f_x, x_eval, x, gg_next,
                                                clamp=L_known)
            fallbacks += fallback
            if rec is not None and has_energy:
                rec.energy = diagnostics.energy(x_next, y_next, gg_x, f_x, t, t_next, s,
                                                x_star, f_star, params)
            s = advance_step(t_next, s, L_curr, params)
        if restarted:
            t, t_next = t0, t1
        else:
            t, t_next = t_next, next_t(t_next, m)

        x, y, f_x, g_x, gg_x = x_eval, y_next, f_next, g_next, gg_next
        k += 1

    return Trace(records=records, x0=x0, algorithm=algorithm, x_final=x, fallbacks=fallbacks)


def run_adaagm(problem: SmoothProblem, params: Optional[AlgoParams] = None,
               stop: Optional[StopCriteria] = None, x0=None, *, thin: int = 1) -> Trace:
    """Run the adaptive accelerated method from x0 = y0.

    ``params.s0=None`` resolves by a one-step probe of the local smoothness
    at the start point (:func:`_probe_s0`), whether or not L is known; it
    costs one oracle call.  Invalid parameters raise ``ValueError``;
    :func:`validate_params`' warnings are emitted.
    """
    if params is None:
        params = default_params(problem)
    for message in validate_params(params, L_known=problem.L_known):
        warnings.warn(message, stacklevel=2)
    return _iterate(problem, "adaagm", params, params.s0, x0, stop, thin)


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

#: Format 2 appends ``dist_sq``; format 1 files (no ``# format`` line, seven
#: columns) still read back, with ``dist_sq`` None.
_CSV_FORMAT = 2
_CSV_HEADER = "k,gap,grad_norm,s,t,L_est,energy,dist_sq"
_CSV_HEADERS = (_CSV_HEADER, "k,gap,grad_norm,s,t,L_est,energy")


def format_float(v: Optional[float]) -> str:
    """17 significant digits, so the float reads back exactly; None is empty."""
    return "" if v is None else format(float(v), ".17g")


def write_trace_csv(trace: Trace, path) -> None:
    """Write a trace as CSV with 17-significant-digit floats.

    The start point rides along in a comment line so that certificates can
    be re-checked from the file alone.
    """
    lines = [
        f"# format = {_CSV_FORMAT}",
        f"# algorithm = {trace.algorithm}",
        "# x0 = " + " ".join(map(format_float, trace.x0)),
        "# note: energy[k] uses the step-(k+1) iterates and lags the other columns by one row",
        "# note: dist_sq is ||z - x*||^2 at the start point z of a restart epoch",
        _CSV_HEADER,
    ]
    for r in trace.records:
        lines.append(",".join([
            str(r.k), format_float(r.gap), format_float(r.grad_norm), format_float(r.s),
            format_float(r.t), format_float(r.L_est), format_float(r.energy),
            format_float(r.dist_sq),
        ]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_csv(path) -> Trace:
    """Read a trace written by :func:`write_trace_csv`, in format 2 or 1."""
    algorithm = "unknown"
    x0: Optional[Array] = None
    records: list[TraceRecord] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line[:1] in "#k":  # a comment, the header, or a blank line ("" is in "#k")
                if line[:1] == "#":
                    body = line.lstrip("# ").strip()
                    if body.startswith("format ="):
                        version = body.split("=", 1)[1].strip()
                        if version not in ("1", "2"):
                            raise ValueError(f"unsupported trace format {version!r}")
                    elif body.startswith("algorithm ="):
                        algorithm = body.split("=", 1)[1].strip()
                    elif body.startswith("x0 ="):
                        x0 = np.array([float(v) for v in body.split("=", 1)[1].split()])
                    continue
                if line == "" or line in _CSV_HEADERS:
                    continue
            parts = line.split(",")
            if len(parts) == 8:
                k, gap, grad_norm, s, t, L_est, e, d = parts
            elif len(parts) == 7:
                (k, gap, grad_norm, s, t, L_est, e), d = parts, ""
            else:
                raise ValueError(f"malformed trace row: {line!r}")
            records.append(TraceRecord(
                int(k), float(gap) if gap else None, float(grad_norm) if grad_norm else None,
                float(s) if s else None, float(t) if t else None,
                float(L_est) if L_est else None, float(e) if e else None,
                float(d) if d else None))
    if x0 is None:
        raise ValueError(f"trace file {path} is missing the x0 comment line")
    if not records:
        raise ValueError(f"trace file {path} has no rows")
    return Trace(records=records, x0=x0, algorithm=algorithm)
