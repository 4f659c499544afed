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
re-anchor the rate constant.  Epoch starts are the rows with t == t_0
(:func:`diagnostics.epoch_starts`), since t grows strictly inside an epoch.

Every iteration, and the s0 probe, makes exactly one oracle call,
``problem.value_and_grad``; a non-finite value or gradient raises
:class:`DivergenceError`, so no NaN reaches a trace as a value.  All runs
produce a :class:`Trace` of recorded rows and the final iterate; the
iterates along the way are not kept.  A trace is one float64 array, a row
per recorded iteration and a column per :class:`TraceRecord` field; the
loop appends each row's values to one flat list and converts it once.
The energy column of an adaptive row at index k is computed from the
iterates available at the end of iteration k (it needs x_{k+1} and
y_{k+1}), so it lags the other columns by one step; the final row carries
no energy.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, fields
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
    """Stopping rule: iteration budget plus an optional gradient tolerance.

    ``grad_tol=None`` resolves to the scale-free default
    1e-10*(1 + ||grad(x0)||).  The tolerance is finite, since an infinite
    one fires at k = 0; zero never fires, leaving the budget as the only
    criterion.
    """

    max_iters: int = 100_000
    grad_tol: Optional[float] = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.grad_tol is not None and not 0.0 <= self.grad_tol < math.inf:  # rejects NaN
            raise ValueError("grad_tol must be a non-negative number and finite")


@dataclass(slots=True)
class TraceRecord:
    """One logged iteration; its fields, in order, are a trace's columns.

    :attr:`Trace.records` builds one per row on access.
    """

    k: int
    gap: Optional[float]
    grad_norm: float
    s: Optional[float]
    t: Optional[float]
    L_est: Optional[float]
    energy: Optional[float] = None
    # ||z - x*||^2 at the start point z of a restart epoch after the first
    dist_sq: Optional[float] = None


#: Trace columns: :class:`TraceRecord`'s fields, in order.
COLUMNS = tuple(f.name for f in fields(TraceRecord))
_COLUMN = {name: i for i, name in enumerate(COLUMNS)}


def _record(row: list[float]) -> TraceRecord:
    k, *values = row
    return TraceRecord(int(k), *[None if v != v else v for v in values])  # NaN != NaN


class TraceRows(Sequence):
    """Read-only rows of a trace: each access builds a :class:`TraceRecord`,
    with an ``int`` k and None for NaN.  A slice is a list of records.

    A record is a copy, so writing to it leaves the trace as it was; write
    to :meth:`Trace.column` to change a trace.
    """

    __slots__ = ("_data",)

    def __init__(self, data: Array):
        self._data = data

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(_record, self._data[i].tolist()))
        return _record(self._data[i].tolist())

    def __iter__(self):
        return map(_record, self._data.tolist())


@dataclass(eq=False)  # == is identity: a generated one would compare arrays and raise
class Trace:
    """A solver run: its recorded rows plus the start point.

    ``data`` holds one row per recorded iteration and one float64 column
    per :class:`TraceRecord` field, in :data:`COLUMNS` order; a missing
    value (no f*, no energy, no ``dist_sq``) is NaN.  :meth:`column` slices
    one column and :attr:`records` views the rows as records.
    ``x_final`` is the iterate the run stopped at, and ``fallbacks`` the
    number of iterations whose local estimate fell in the rounding band of
    :func:`local_smoothness`; traces read back from CSV carry neither.
    """

    data: Array
    x0: Array
    algorithm: str
    x_final: Optional[Array] = None
    fallbacks: Optional[int] = None

    def __len__(self) -> int:
        return len(self.data)

    def column(self, name: str) -> Array:
        """The named column, a view: writing to it writes to the trace."""
        return self.data[:, _COLUMN[name]]

    @property
    def records(self) -> TraceRows:
        """The rows as records, each built on access."""
        return TraceRows(self.data)


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
              params: AlgoParams, gg0: float) -> float:
    """Initial step q/L_hat(x0) from one short trial step along -g0.

    L_hat(x0) is :func:`local_smoothness` of the pair (x0, x1), as in the
    loop: the local curvature at the start point, not a global bound, sets
    the first step.  A probe that sees no curvature (L_hat = 0) starts from
    1.  ``gg0`` is g0.g0, as the loop computed it.
    """
    q = floor_q(params)
    g_norm = math.sqrt(gg0)
    if g_norm == 0.0:
        return 1.0
    eps = 1e-4 * (1.0 + float(np.linalg.norm(x0)))
    x1 = x0 - eps * g0 / g_norm
    f1, g1, gg1 = _evaluate(problem, x1, 0)
    L_hat, _ = local_smoothness(g1, g0, f1, f0, x1, x0, gg1)
    return q / L_hat if L_hat > 0.0 else 1.0


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
    f_star, x_star = problem.f_star, problem.x_star
    t0, m, gamma, max_iters = params.t0, params.m, params.gamma, stop.max_iters
    has_gap = f_star is not None
    has_energy = adaptive and has_gap and x_star is not None
    restart = adaptive and params.restart

    x, y = x0.copy(), x0.copy()
    f_x, g_x, gg_x = _evaluate(problem, x, 0)
    grad_tol = stop.grad_tol
    if grad_tol is None:  # StopCriteria's scale-free default
        grad_tol = 1e-10 * (1.0 + math.sqrt(gg_x))
    s = _probe_s0(problem, x0, g_x, f_x, params, gg_x) if s0 is None else s0
    t, t_next = t0, next_t(t0, m)
    t1 = t_next

    nan = math.nan  # no value
    rows: list[float] = []  # the recorded rows' values, flat
    L_curr = 0.0 if adaptive else nan
    fallbacks = 0
    k = 0
    restarted = False
    while True:
        grad_norm = math.sqrt(gg_x)  # np.linalg.norm's own formula, bit for bit
        gap = f_x - f_star if has_gap else nan
        stopping = k >= max_iters or (grad_tol > 0.0 and grad_norm <= grad_tol)
        recorded = k % thin == 0 or stopping or restarted
        if recorded:
            dist_sq = nan
            if restarted and x_star is not None:
                dz = x - x_star
                dist_sq = float(dz.dot(dz))
            rows += (k, gap, grad_norm, s, t, L_curr, nan, dist_sq)
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
            L_curr, fallback = local_smoothness(g_next, g_x, f_next, f_x, x_eval, x, gg_next)
            fallbacks += fallback
            if recorded and has_energy:  # the energy field of the row just recorded
                rows[-2] = diagnostics.energy(x_next, y_next, gg_x, f_x, t, t_next, s,
                                              x_star, f_star, params)
            s = advance_step(t_next, s, L_curr, params)
        if restarted:
            t, t_next = t0, t1
        else:
            t, t_next = t_next, next_t(t_next, m)

        x, y, f_x, g_x, gg_x = x_eval, y_next, f_next, g_next, gg_next
        k += 1

    data = np.fromiter(rows, float, len(rows)).reshape(-1, len(COLUMNS))
    return Trace(data=data, x0=x0, algorithm=algorithm, x_final=x, fallbacks=fallbacks)


def run_adaagm(problem: SmoothProblem, params: Optional[AlgoParams] = None,
               stop: Optional[StopCriteria] = None, x0=None, *, thin: int = 1) -> Trace:
    """Run the adaptive accelerated method from x0 = y0.

    ``params.s0=None`` resolves by a one-step probe of the local smoothness
    at the start point (:func:`_probe_s0`); it costs one oracle call.
    Invalid parameters raise ``ValueError``; :func:`validate_params`'
    warnings are emitted.
    """
    if params is None:
        params = default_params(problem)
    for message in validate_params(params):
        warnings.warn(message, stacklevel=2)
    return _iterate(problem, "adaagm", params, params.s0, x0, stop, thin)


def run_gd(problem: SmoothProblem, step: float,
           stop: Optional[StopCriteria] = None, x0=None, *, thin: int = 1) -> Trace:
    """Fixed-step gradient descent baseline."""
    check_step(step)
    if problem.L_known > 0 and step >= 2.0 / problem.L_known:
        warnings.warn(f"step {step:.6g} >= 2/L = {2.0 / problem.L_known:.6g}; "
                      "gradient descent may diverge", stacklevel=2)
    return _iterate(problem, "gd", _GD, step, x0, stop, thin)


def run_nesterov(problem: SmoothProblem, step: float,
                 stop: Optional[StopCriteria] = None, x0=None, *, thin: int = 1) -> Trace:
    """Classical momentum baseline with the theta recursion from theta_0 = 1."""
    check_step(step)
    if problem.L_known > 0 and step > 1.0 / problem.L_known:
        warnings.warn(f"step {step:.6g} > 1/L = {1.0 / problem.L_known:.6g}; "
                      "the accelerated rate is not guaranteed", stacklevel=2)
    return _iterate(problem, "nesterov", _NESTEROV, step, x0, stop, thin)


# --- CSV serialization -------------------------------------------------------

#: The columns are :data:`COLUMNS`.  Format 2 appends ``dist_sq``; format 1
#: files (no ``# format`` line, the first seven columns) still read back,
#: with ``dist_sq`` NaN.
_CSV_FORMAT = 2
_CSV_HEADER = ",".join(COLUMNS)
_CSV_HEADERS = (_CSV_HEADER, ",".join(COLUMNS[:-1]))
_CSV_ROW = ",".join(["%.17g"] * len(COLUMNS))


def format_float(v: Optional[float]) -> str:
    """17 significant digits, so the float reads back exactly; None is empty."""
    return "" if v is None else format(float(v), ".17g")


def write_trace_csv(trace: Trace, path) -> None:
    """Write a trace as CSV with 17-significant-digit floats.

    The start point rides along in a comment line so that certificates can
    be re-checked from the file alone.  A missing value is an empty field.
    """
    lines = [
        f"# format = {_CSV_FORMAT}",
        f"# algorithm = {trace.algorithm}",
        "# x0 = " + " ".join(map(format_float, trace.x0)),
        "# note: energy[k] uses the step-(k+1) iterates and lags the other columns by one row",
        "# note: dist_sq is ||z - x*||^2 at the start point z of a restart epoch",
        _CSV_HEADER,
    ]
    # one format per row, format_float's; k < 1e17 prints as its digits.
    # NaN prints as "nan", which no number does, and a missing value is empty
    body = "\n".join([_CSV_ROW % tuple(row) for row in trace.data.tolist()])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n" + body.replace("nan", "") + "\n")


def _row_values(lines, width: int):
    """Every field of every row, as floats; an empty field is NaN."""
    nan = math.nan
    for line in lines:
        parts = line.split(",")
        if len(parts) != width:
            if not line:
                continue
            raise ValueError(f"malformed trace row: {line!r}")
        for v in parts:
            yield float(v) if v else nan


def read_trace_csv(path) -> Trace:
    """Read a trace written by :func:`write_trace_csv`, in format 2 or 1.

    A row has eight fields under ``# format = 2`` and seven without;
    another width, or a k that is not a strictly increasing integer, is a
    malformed row.
    """
    algorithm = "unknown"
    x0: Optional[Array] = None
    width = len(COLUMNS) - 1  # format 1 has no dist_sq
    with open(path) as fh:
        lines = map(str.strip, fh)
        for line in lines:  # comments and the header, up to the first row
            if line.startswith("#"):
                body = line.lstrip("# ").strip()
                if body.startswith("format ="):
                    version = body.split("=", 1)[1].strip()
                    if version not in ("1", "2"):
                        raise ValueError(f"unsupported trace format {version!r}")
                    width = len(COLUMNS) - (version == "1")
                elif body.startswith("algorithm ="):
                    algorithm = body.split("=", 1)[1].strip()
                elif body.startswith("x0 ="):
                    x0 = np.array([float(v) for v in body.split("=", 1)[1].split()])
            elif line and line not in _CSV_HEADERS:
                break
        else:
            line = ""
        if x0 is None:
            raise ValueError(f"trace file {path} is missing the x0 comment line")
        data = np.fromiter(_row_values(itertools.chain([line], lines), width), float)
    if not data.size:
        raise ValueError(f"trace file {path} has no rows")
    data = data.reshape(-1, width)
    if width < len(COLUMNS):
        data = np.column_stack([data, np.full(len(data), math.nan)])
    k = data[:, 0]
    # one check on the column: every k an integer, each above the one before
    bad = ~np.isfinite(k) | (k != np.floor(k))
    bad[1:] |= k[1:] <= k[:-1]
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"malformed trace row {i + 1}: k = {k[i]:.17g} is not an integer "
                         f"above the row before")
    return Trace(data=data, x0=x0, algorithm=algorithm)
