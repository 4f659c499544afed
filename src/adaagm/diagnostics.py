"""Energy quantities, rate constants, and certificates along solver traces.

The energy sequence E_k combines a shifted-distance term, a weighted
gradient term, and a weighted optimality gap.  Along valid runs it is
nonincreasing for convex objectives and contracts geometrically under
strong convexity, which yields checkable per-iteration inequalities:

* the optimality gap is bounded by D*L/t_k^2 (times (1-rho)^k when strongly
  convex), with D and rho in closed form from the start point;
* the step size stays within [q/L, s0*exp(2(1-m)/m)*k^(2(1-m)/m)];
* the partial sums of k^2*||grad||^2 stay bounded.

All inequalities are certified with relative tolerance 1e-9 on scale
1 + |rhs| (widened to 1e-6 when the problem's minimizer comes from a
numerical reference solve).

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

CERTIFICATE_KINDS = (
    "sublinear", "linear", "step_floor", "step_cap",
    "energy_monotone", "grad_summable",
)


def phi(x_next: Array, y_next: Array, t_next: float, x_star: Array) -> Array:
    """Shifted-distance vector t_{k+1}(x_{k+1} - y_{k+1}) + (y_{k+1} - x*)."""
    return t_next * (x_next - y_next) + (y_next - x_star)


def energy(x_next: Array, y_next: Array, grad_x: Array, f_x: float, t: float,
           t_next: float, s: float, x_star: Array, f_star: float,
           params: AlgoParams) -> float:
    """E_k = 0.5||phi_k||^2 + (beta/2)g^2 t^2 s^2 ||grad||^2 + g t^2 s (f - f*).

    Needs the iterates from step k+1 (x_next, y_next) alongside the step-k
    quantities, so the energy column lags the trace by one row.
    """
    ph = phi(x_next, y_next, t_next, x_star)
    grad_sq = float(grad_x @ grad_x)
    return (0.5 * float(ph @ ph)
            + 0.5 * params.beta * params.gamma ** 2 * t ** 2 * s ** 2 * grad_sq
            + params.gamma * t ** 2 * s * (f_x - f_star))


def initial_D(x0, problem: SmoothProblem, params: AlgoParams,
              s0: Optional[float] = None) -> tuple[float, float]:
    """Closed-form rate constant D from the start point, in two forms.

    Returns the pair (full form, min-form bound) from one oracle call at
    x0; the min-form upper bound on D avoids the raw gradient term.  The
    certificates use the smaller of the two.
    """
    if problem.x_star is None or problem.f_star is None:
        raise ValueError("initial_D needs x_star and f_star on the problem")
    if problem.L_known is None or problem.L_known <= 0:
        raise ValueError("initial_D needs a positive L_known on the problem")
    s0 = params.s0 if s0 is None else s0
    if s0 is None:
        raise ValueError("initial_D needs the resolved initial step s0")
    x0 = np.asarray(x0, dtype=float)
    L = problem.L_known
    q = floor_q(params)
    f0, g0 = problem.value_and_grad(x0)
    gap0 = f0 - problem.f_star
    dist_sq = float(np.sum((x0 - problem.x_star) ** 2))
    grad_sq = float(g0 @ g0)
    t0, gam, bet = params.t0, params.gamma, params.beta
    st = s0 * t0
    full = (1.0 / q) * (
        dist_sq / (2.0 * gam)
        + st * ((1.0 + bet) * gam * st * L - 1.0) / (2.0 * L) * grad_sq
        + st * (t0 - 1.0) * gap0
    )
    first = (dist_sq / (2.0 * gam)
             + st * (t0 * ((1.0 + bet) * gam * s0 * L + 1.0) - 2.0) * gap0)
    second = ((1.0 + gam * st * L * ((1.0 + bet) * gam * st * L - 1.0))
              / (2.0 * gam) * dist_sq
              + st * (t0 - 1.0) * gap0)
    return full, (1.0 / q) * min(first, second)


def rho(params: AlgoParams, mu: float, L: float) -> float:
    """Linear contraction factor, of order mu/L, for the omega=delta=1/2 setting."""
    if mu <= 0:
        raise ValueError("rho requires mu > 0")
    if mu > L:
        raise ValueError("rho requires mu <= L")
    if not (params.omega == 0.5 and params.delta == 0.5):
        raise ValueError("rho is defined for the omega = delta = 1/2 profile")
    q = floor_q(params)
    b, g = params.beta, params.gamma
    return min(
        mu * g * q / (4.0 * L),
        mu * q / (2.0 * L / (b * g) + (8.0 / (b * g ** 2) + 2.0) * mu * q),
    )


@dataclass
class RateCertificate:
    """Outcome of checking one inequality along a trace."""

    kind: str
    constant_q: float
    constant_D: Optional[float] = None
    constant_rho: Optional[float] = None
    violations: list[tuple[int, float, float]] = field(default_factory=list)
    max_violation_rel: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations


def _tolerance(problem: SmoothProblem) -> float:
    return 1e-6 if problem.solution_is_reference else 1e-9


def _require(problem: SmoothProblem, kind: str, *fields: str) -> None:
    for name in fields:
        if getattr(problem, name) is None:
            raise ValueError(f"certificate {kind!r} needs problem.{name}")


def certify(trace: Trace, problem: SmoothProblem, params: AlgoParams,
            kind: str) -> RateCertificate:
    """Walk the trace and collect violations of the chosen inequality."""
    if kind not in CERTIFICATE_KINDS:
        raise ValueError(f"unknown certificate kind {kind!r}")
    if not trace.records:
        raise ValueError("trace is empty")
    tol = _tolerance(problem)
    recs = trace.records
    s0 = recs[0].s
    q = floor_q(params)
    cert = RateCertificate(kind=kind, constant_q=q)

    def check(k: int, lhs: float, rhs: float) -> None:
        rel = (lhs - rhs) / (1.0 + abs(rhs))
        if rel > tol:
            cert.violations.append((k, lhs, rhs))
        cert.max_violation_rel = max(cert.max_violation_rel, rel)

    if kind == "sublinear":
        _require(problem, kind, "x_star", "f_star", "L_known")
        D = min(initial_D(trace.x0, problem, params, s0))
        cert.constant_D = D
        L = problem.L_known
        for r in recs:
            check(r.k, r.gap, D * L / r.t ** 2)

    elif kind == "linear":
        _require(problem, kind, "x_star", "f_star", "L_known")
        if problem.mu_known is None or problem.mu_known <= 0:
            raise ValueError("the linear certificate needs mu_known > 0")
        rho_val = rho(params, problem.mu_known, problem.L_known)
        D = min(initial_D(trace.x0, problem, params, s0))
        cert.constant_D = D
        cert.constant_rho = rho_val
        L = problem.L_known
        log1m = math.log1p(-rho_val)
        for r in recs:
            check(r.k, r.gap, D * L / r.t ** 2 * math.exp(r.k * log1m))

    elif kind == "step_floor":
        _require(problem, kind, "L_known")
        floor = min(s0, q / problem.L_known)
        for r in recs:
            check(r.k, floor, r.s)  # violation when s_k < floor

    elif kind == "step_cap":
        growth = 2.0 * (1.0 - params.m) / params.m
        lead = s0 * math.exp(growth)
        for r in recs:
            if r.k < 1:
                continue
            check(r.k, r.s, lead * r.k ** growth)

    elif kind == "energy_monotone":
        factor = 1.0
        if (params.omega == 0.5 and params.delta == 0.5
                and problem.mu_known is not None and problem.mu_known > 0
                and problem.L_known is not None):
            factor = 1.0 - rho(params, problem.mu_known, problem.L_known)
            cert.constant_rho = 1.0 - factor
        prev = None
        for r in recs:
            if prev is not None and prev.energy is not None \
                    and r.energy is not None and r.k == prev.k + 1:
                check(r.k, r.energy, factor * prev.energy)
            prev = r
        if all(r.energy is None for r in recs):
            raise ValueError("the energy certificate needs an energy column "
                             "(problem must carry x_star and f_star)")

    elif kind == "grad_summable":
        total = 0.0
        partials = []
        for r in recs:
            total += r.k ** 2 * r.grad_norm ** 2
            partials.append(total)
        if total > 0.0:
            half = partials[len(partials) // 2]
            increment = (total - half) / total
            if increment > 0.01:
                cert.violations.append((recs[-1].k, increment, 0.01))
            cert.max_violation_rel = max(0.0, increment - 0.01)

    return cert


def format_certificates(certs: list[RateCertificate]) -> str:
    """One summary line per certificate: kind, constants, pass/fail, worst slack."""
    lines = []
    for c in certs:
        parts = [f"kind={c.kind}", f"q={c.constant_q:.12g}"]
        if c.constant_D is not None:
            parts.append(f"D={c.constant_D:.12g}")
        if c.constant_rho is not None:
            parts.append(f"rho={c.constant_rho:.12g}")
        parts.append("PASS" if c.passed else f"FAIL({len(c.violations)})")
        parts.append(f"worst_rel={c.max_violation_rel:.3e}")
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
