"""Energy quantities, rate constants, and certificates along solver traces.

The energy sequence E_k combines a shifted-distance term, a weighted
gradient term, and a weighted optimality gap.  Along valid runs it is
nonincreasing for convex objectives and contracts geometrically under
strong convexity, which yields checkable per-iteration inequalities:

* the optimality gap is bounded by D*L/t_k^2 (times (1-rho)^k when strongly
  convex), with D and rho in closed form from the start point;
* the step size stays within [q/L, s0*exp(2(1-m)/m)*k^(2(1-m)/m)];
* the partial sums of k^2*||grad||^2 stay bounded: their tail half adds at
  most 1%.

A restarted run is a sequence of fresh runs, so the certificates apply
these per restart epoch, with the epoch's first row as the start point.

All inequalities are certified with one relative tolerance, ``TOLERANCE``
= 1e-9 on scale 1 + |rhs|: a minimizer from the ridge-logistic Newton solve
(||grad f(x*)|| <= 1e-12 on every shipped and benchmark problem) is graded
like a closed-form one.

:func:`energy` and :func:`phi` take the iterates and scalars they read;
the solver calls :func:`energy` on every recorded row of an adaptive run
whose problem carries x* and f*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .problems import SmoothProblem
from .schedule import AlgoParams, floor_q

if TYPE_CHECKING:  # solver imports this module
    from .solver import Trace

Array = np.ndarray

TOLERANCE = 1e-9  # relative to 1 + |rhs|, for every inequality

CERTIFICATE_KINDS = (
    "sublinear", "linear", "step_floor", "step_cap",
    "energy_monotone", "grad_summable",
)


def phi(x_next: Array, y_next: Array, t_next: float, x_star: Array) -> Array:
    """Shifted-distance vector t_{k+1}(x_{k+1} - y_{k+1}) + (y_{k+1} - x*)."""
    return t_next * (x_next - y_next) + (y_next - x_star)


def energy(x_next: Array, y_next: Array, grad_sq: float, f_x: float, t: float,
           t_next: float, s: float, x_star: Array, f_star: float,
           params: AlgoParams) -> float:
    """E_k = 0.5||phi_k||^2 + (beta/2)g^2 t^2 s^2 ||grad||^2 + g t^2 s (f - f*).

    Needs the iterates from step k+1 (x_next, y_next) alongside the step-k
    quantities, so the energy column lags the trace by one row.
    ``grad_sq`` is ||grad f(x_k)||^2.
    """
    ph = phi(x_next, y_next, t_next, x_star)
    return (0.5 * float(ph.dot(ph))
            + 0.5 * params.beta * params.gamma ** 2 * t ** 2 * s ** 2 * grad_sq
            + params.gamma * t ** 2 * s * (f_x - f_star))


def initial_D(gap0: float, grad_sq0: float, dist_sq0: float, L: float,
              params: AlgoParams, s0: float) -> float:
    """Closed-form rate constant D of a run from z with initial step s0.

    Takes f(z) - f*, ||grad f(z)||^2 and ||z - x*||^2, so it makes no
    oracle call.  Returns the D the certificates grade with, the smaller of
    the full form and the min-form, which drops the raw gradient term.
    When (1 + beta)*gamma*s0*t0*L >= 1, ||grad||^2 <= 2L*gap and
    <= L^2*dist_sq make the min-form an upper bound on the full form, so D
    is the full form.  Below that threshold the same bounds make the
    min-form at most the full form, and D is the min-form; that the rate
    holds with it there is not derived here (ROADMAP item 6).
    """
    if not L > 0:
        raise ValueError("initial_D needs a positive smoothness constant L")
    q = floor_q(params)
    t0, gam, bet = params.t0, params.gamma, params.beta
    st = s0 * t0
    full = (1.0 / q) * (
        dist_sq0 / (2.0 * gam)
        + st * ((1.0 + bet) * gam * st * L - 1.0) / (2.0 * L) * grad_sq0
        + st * (t0 - 1.0) * gap0
    )
    first = (dist_sq0 / (2.0 * gam)
             + st * (t0 * ((1.0 + bet) * gam * s0 * L + 1.0) - 2.0) * gap0)
    second = ((1.0 + gam * st * L * ((1.0 + bet) * gam * st * L - 1.0))
              / (2.0 * gam) * dist_sq0
              + st * (t0 - 1.0) * gap0)
    return min(full, (1.0 / q) * min(first, second))


def rho(params: AlgoParams, mu: float, L: float) -> float:
    """Linear contraction factor, of order mu/L, for the omega=delta=1/2 setting."""
    if mu <= 0:
        raise ValueError("rho requires mu > 0")
    if mu > L:
        raise ValueError("rho requires mu <= L")
    if not params.linear_rate:
        raise ValueError("rho is defined for the omega = delta = 1/2 profile")
    q = floor_q(params)
    b, g = params.beta, params.gamma
    return min(
        mu * g * q / (4.0 * L),
        mu * q / (2.0 * L / (b * g) + (8.0 / (b * g ** 2) + 2.0) * mu * q),
    )


@dataclass
class RateCertificate:
    """Outcome of checking one inequality along a trace.

    ``checks`` counts the inequalities evaluated; a certificate with no
    checks and no violations passed vacuously.  ``max_violation_rel`` is the
    worst (lhs - rhs)/(1 + |rhs|): at most the tolerance on a pass, usually
    negative but just above 0 where an inequality holds with equality up to
    rounding; -inf without checks.
    ``epochs`` counts the restart epochs; ``constant_D`` is the first epoch's.
    """

    kind: str
    constant_q: float
    constant_D: Optional[float] = None
    constant_rho: Optional[float] = None
    violations: list[tuple[int, float, float]] = field(default_factory=list)
    max_violation_rel: float = -math.inf
    checks: int = 0
    epochs: int = 1

    @property
    def passed(self) -> bool:
        return not self.violations


def certificate_kinds(problem: SmoothProblem, params: AlgoParams) -> list[str]:
    """The kinds a run of ``params`` on ``problem`` is graded with, in
    ``summary.csv`` order; none without a known L."""
    if not problem.L_known > 0:
        return []
    kinds = ["step_floor", "step_cap"]
    if problem.x_star is not None and problem.f_star is not None:
        kinds += ["sublinear", "energy_monotone"]
        if problem.mu_known > 0 and params.linear_rate:
            kinds += ["linear", "grad_summable"]
    return kinds


def _require(problem: SmoothProblem, kind: str, *fields: str) -> None:
    """Raise unless the problem knows every named constant: an x* or f* of
    ``None`` is unknown, and so is an ``L_known`` or ``mu_known`` that is not positive."""
    for name in fields:
        value = getattr(problem, name)
        if value is None or (name in ("L_known", "mu_known") and not value > 0):
            raise ValueError(f"certificate {kind!r} needs problem.{name}")


def epoch_starts(trace: Trace, params: AlgoParams) -> Array:
    """The first row of each restart epoch: row 0 and, under ``params.restart``,
    every row with t == t0 (t grows strictly inside an epoch, and the loop
    records every epoch's start)."""
    if not params.restart:
        return np.zeros(1, dtype=int)
    starts = trace.column("t") == params.t0
    starts[0] = True
    return np.flatnonzero(starts)


def _epoch_D(trace: Trace, first: Array, problem: SmoothProblem,
             params: AlgoParams) -> Array:
    """D of every epoch, from the epoch's first row.

    The first epoch takes ||x0 - x*||^2 from the trace's start point, later
    ones from the row's ``dist_sq``.  A start gap below 0 is f's rounding
    below f* and counts as 0, since the exact gap is not negative.
    """
    k, gap, grad_norm, s, dist_sq = (trace.column(name)[first].tolist()
                                     for name in ("k", "gap", "grad_norm", "s", "dist_sq"))
    dist_sq[0] = float(np.sum((trace.x0 - problem.x_star) ** 2))
    D = []
    for i in range(len(first)):
        if dist_sq[i] != dist_sq[i]:  # NaN: no value
            raise ValueError(f"the restart epoch at k={int(k[i])} carries no dist_sq")
        D.append(initial_D(max(gap[i], 0.0), grad_norm[i] ** 2, dist_sq[i],
                           problem.L_known, params, s[i]))
    return np.array(D)


def certify(trace: Trace, problem: SmoothProblem, params: AlgoParams,
            kind: str) -> RateCertificate:
    """Check the chosen inequality on every row of the trace and collect violations.

    Each kind slices the trace columns it needs (a missing value is NaN)
    and evaluates its inequality over all rows at once.
    A row whose inequality involves NaN is neither a violation nor a check,
    and neither is a ``step_cap`` row whose cap overflows to +inf (m below
    about 0.0028).

    When ``params.restart`` is set, every kind re-anchors at each restart
    epoch (:func:`epoch_starts`): k counts from the epoch's first row, and
    s0, D and the energy baseline come from it, so each epoch is checked
    as the fresh run it is.
    ``energy_monotone`` compares pairs within an epoch only.
    A kind that reads a constant the problem lacks (an x* or f* of
    ``None``, an ``L_known`` or ``mu_known`` that is not positive) raises
    ValueError.
    ``energy_monotone`` contracts by (1 - rho) on the cells that
    :func:`certificate_kinds` grades with ``linear``.
    """
    if kind not in CERTIFICATE_KINDS:
        raise ValueError(f"unknown certificate kind {kind!r}")
    if not len(trace):
        raise ValueError("trace is empty")
    if len(trace.x0) != problem.dimension:
        raise ValueError(f"trace start point has {len(trace.x0)} entries, "
                         f"problem {problem.name} has dimension {problem.dimension}")
    q = floor_q(params)
    cert = RateCertificate(kind=kind, constant_q=q)
    k = trace.column("k")
    t = trace.column("t")
    first = epoch_starts(trace, params)
    epoch = np.zeros(len(k), dtype=int)  # epoch of each row
    if len(first) > 1:
        epoch[first[1:]] = 1
        epoch = np.cumsum(epoch)
    k_rel = k - k[first][epoch]
    cert.epochs = len(first)

    def check(at: Array, lhs, rhs) -> None:
        """Check lhs <= rhs, up to the tolerance, at the iterations ``at``."""
        rel = (lhs - rhs) / (1.0 + np.abs(rhs))
        cert.checks += int(np.count_nonzero(rel == rel))  # NaN != NaN
        bad = np.flatnonzero(rel > TOLERANCE)
        if bad.size:
            lhs, rhs = np.broadcast_arrays(lhs, rhs)
            cert.violations += [(int(at[i]), float(lhs[i]), float(rhs[i])) for i in bad]
        cert.max_violation_rel = float(np.fmax.reduce(rel, initial=cert.max_violation_rel))

    if kind in ("sublinear", "linear"):
        _require(problem, kind, "x_star", "f_star", "L_known")
        decay = 1.0  # linear: (1 - rho)^k, k counted from the epoch's start
        if kind == "linear":
            _require(problem, kind, "mu_known")
            cert.constant_rho = rho(params, problem.mu_known, problem.L_known)
            decay = np.exp(k_rel * math.log1p(-cert.constant_rho))
        D = _epoch_D(trace, first, problem, params)
        cert.constant_D = float(D[0])
        check(k, trace.column("gap"), D[epoch] * problem.L_known / t ** 2 * decay)

    elif kind == "step_floor":
        _require(problem, kind, "L_known")
        s = trace.column("s")
        floor = np.minimum(s[first], q / problem.L_known)
        later = k_rel >= 1  # an epoch's first row meets its own floor by construction
        check(k[later], floor[epoch[later]], s[later])  # violation when s_k < floor

    elif kind == "step_cap":
        growth = 2.0 * (1.0 - params.m) / params.m
        s = trace.column("s")
        later = k_rel >= 1
        with np.errstate(over="ignore"):  # the cap overflows for m below about 0.0028
            cap = s[first][epoch[later]] * np.exp(growth) * k_rel[later] ** growth
        cap[cap == math.inf] = math.nan  # an infinite cap bounds nothing
        check(k[later], s[later], cap)

    elif kind == "energy_monotone":
        _require(problem, kind, "x_star", "f_star")
        factor = 1.0
        if "linear" in certificate_kinds(problem, params):
            factor = 1.0 - rho(params, problem.mu_known, problem.L_known)
            cert.constant_rho = 1.0 - factor
        e = trace.column("energy")
        # adjacent rows of one epoch; a NaN energy on either side drops the pair
        pair = (k[1:] == k[:-1] + 1) & (epoch[1:] == epoch[:-1])
        check(k[1:][pair], e[1:][pair], factor * e[:-1][pair])

    elif kind == "grad_summable":
        # the tail half of the partial sums of k_rel^2*||g||^2 adds at most 1%
        partials = np.cumsum(k_rel ** 2 * trace.column("grad_norm") ** 2)  # row order
        if partials[-1] > 0.0:
            increment = (partials[-1:] - partials[len(partials) // 2]) / partials[-1]
            check(k[-1:], increment, 0.01)

    return cert


def format_certificates(certs: list[RateCertificate]) -> str:
    """One summary line per certificate: kind, constants, verdict, checks, worst slack.

    The verdict is ``VACUOUS`` for a certificate that checked nothing and
    so cannot have failed; its worst slack prints as ``n/a``.
    """
    lines = []
    for c in certs:
        parts = [f"kind={c.kind}", f"q={c.constant_q:.12g}"]
        if c.constant_D is not None:
            parts.append(f"D={c.constant_D:.12g}")
        if c.constant_rho is not None:
            parts.append(f"rho={c.constant_rho:.12g}")
        parts.append(f"epochs={c.epochs}")
        verdict = "PASS" if c.checks else "VACUOUS"
        parts.append(verdict if c.passed else f"FAIL({len(c.violations)})")
        parts.append(f"checks={c.checks}")
        parts.append(f"worst_rel={c.max_violation_rel:.3e}" if c.checks else "worst_rel=n/a")
        lines.append(" ".join(parts))
    return "\n".join(lines)


def write_violations_csv(certs: list[RateCertificate], path) -> None:
    """Machine-readable violation list: kind,k,lhs,rhs."""
    lines = ["kind,k,lhs,rhs"]
    for c in certs:
        for k, lhs, rhs in c.violations:
            lines.append(f"{c.kind},{k},{format(lhs, '.17g')},{format(rhs, '.17g')}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
