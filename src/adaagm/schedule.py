"""Parameter recursions: inertial weights, local smoothness estimates, step sizes.

Three coupled sequences drive the adaptive solver:

* t_k, the inertial (momentum) weights, growing linearly in k;
* L_k, a per-iteration local estimate of the smoothness constant that never
  exceeds the global L;
* s_k, the step size, advanced as the minimum of three candidates A_k*s_k,
  B_k*s_k and C_k/L_{k+1}.  Under valid parameters A_k and B_k exceed 1, so
  the step can grow, while the third candidate keeps it above a closed-form
  floor q/L.

The solver keeps t_k, t_{k+1} and s_k as plain numbers: :func:`next_t`
advances t and :func:`advance_step` returns s_{k+1} from t_{k+1}, s_k and
the estimate L_{k+1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional


class NonConvexInputError(ValueError):
    """The local smoothness ratio saw a denominator that convexity forbids."""


@dataclass(frozen=True)
class AlgoParams:
    """Solver parameters (m, t0, gamma, beta, omega, delta, s0).

    ``s0=None`` means "resolve at run time": q/L when L is known, otherwise
    by a one-step probe of the local smoothness at the start point.
    """

    m: float = 0.99
    t0: float = 3.0
    gamma: float = 1.0
    beta: float = 1.0 / 3.0
    omega: float = 0.0
    delta: float = 0.0
    s0: Optional[float] = None


#: Named parameter profiles exposed to configs.  The two convex profiles have
#: step floors q = 1/4 and 1/5; the two strongly convex ones 1/12 and 1/16.
PROFILES = {
    "cor-4.3": AlgoParams(m=0.99, t0=2.0, gamma=0.5, beta=1.0, omega=0.0, delta=0.0),
    "cor-4.4": AlgoParams(),  # AlgoParams' defaults are this profile
    "sc-1": AlgoParams(m=0.99, t0=2.0, gamma=0.5, beta=1.0, omega=0.5, delta=0.5),
    "sc-2": AlgoParams(m=0.99, t0=3.0, gamma=1.0, beta=1.0 / 3.0, omega=0.5, delta=0.5),
}


def get_profile(name: str, **overrides) -> AlgoParams:
    """Look up a named profile, optionally overriding individual fields."""
    if name not in PROFILES:
        raise KeyError(f"unknown profile {name!r}; choose from {sorted(PROFILES)}")
    params = PROFILES[name]
    return replace(params, **overrides) if overrides else params


def default_params(problem) -> AlgoParams:
    """``sc-2`` when mu > 0 is known, ``cor-4.4`` otherwise, both at m = 1/2.

    At the profiles' m = 0.99 the candidate A = (t_{k+1} - m)/(t_{k+1} - 1)
    is about 1 + 0.01/t_{k+1}: it binds on nearly every iteration, so the
    step creeps up from q/L and the local estimate L_hat almost never acts.
    At m = 1/2 the step follows L_hat and grows past 1/L where the
    curvature allows.  q, D and rho do not depend on m and stay the
    profile's.  The price: t_k grows like m*k/2, so the certified sublinear
    bound D*L/t_k^2 is about (0.99/0.5)^2 = 3.9 times looser than the
    profile's, and still O(1/k^2).
    """
    strongly = problem.mu_known is not None and problem.mu_known > 0
    return replace(PROFILES["sc-2" if strongly else "cor-4.4"], m=0.5)


def next_t(t_curr: float, m: float) -> float:
    """Advance the inertial weight: the positive root of t^2 - m*t - t_curr^2."""
    return 0.5 * (m + math.sqrt(m * m + 4.0 * t_curr * t_curr))


def floor_q(params: AlgoParams) -> float:
    """Closed-form step floor constant q, so that s_k >= q/L along any run."""
    t0, g, b = params.t0, params.gamma, params.beta
    if t0 <= 1.0:
        raise ValueError("the step floor requires t0 > 1")
    return (1.0 - params.omega) / (
        (1.0 + b) * g * t0 / (t0 - 1.0) + 1.0 / (b * g * (1.0 - params.delta))
    )


def local_smoothness(g_next, g_prev, f_next: float, f_prev: float,
                     x_next, x_prev, clamp: Optional[float] = None,
                     underflow_fallback: Optional[float] = None) -> float:
    """Local smoothness estimate from one iterate pair of float arrays.

    Returns 0.5*||g_next - g_prev||^2 / (<g_next, x_next - x_prev> -
    (f_next - f_prev)), with the 0/0 = 0 convention.  Exact gradient
    equality never fires in floating point, so the zero branch triggers on
    ||g_next - g_prev|| <= 1e-14*(1 + ||g_next||).  Tiny negative
    denominators are rounding and map to the zero branch; genuinely
    negative ones raise, since convexity makes them impossible.

    ``clamp`` is the known global smoothness constant when available: the
    raw ratio can never exceed it in exact arithmetic, but cancellation in
    the denominator near convergence can push the computed ratio far above
    it, so the estimate is capped.  ``underflow_fallback`` replaces the
    ratio when the denominator underflows and no clamp is known.
    """
    diff = g_next - g_prev
    # np.linalg.norm's own 1-D formula, bit for bit
    diff_norm = math.sqrt(diff.dot(diff))
    if diff_norm <= 1e-14 * (1.0 + math.sqrt(g_next.dot(g_next))):
        return 0.0
    denom = float(g_next @ (x_next - x_prev)) - (f_next - f_prev)
    scale = abs(f_next) + abs(f_prev) + 1.0
    if denom <= 0.0:
        if denom >= -1e-12 * scale:
            return 0.0
        raise NonConvexInputError(
            f"negative curvature denominator {denom:.3e}: inputs are not "
            "from a convex smooth objective"
        )
    if denom < 1e-300:
        if clamp is not None:
            return clamp
        if underflow_fallback is not None:
            return underflow_fallback
    ratio = 0.5 * diff_norm * diff_norm / denom
    if clamp is not None:
        ratio = min(ratio, clamp)
    return ratio


def _coefficients(t_next: float, params: AlgoParams) -> tuple[float, float, float]:
    A = (t_next - params.m) / (t_next - 1.0)
    B = 2.0 / ((1.0 + params.beta) * params.gamma) * (1.0 - 1.0 / t_next)
    C = (1.0 - params.omega) / (
        2.0 / B + 1.0 / (params.beta * (1.0 - params.delta) * params.gamma * A)
    )
    return A, B, C


def advance_step(t_next: float, s: float, L_hat: float, params: AlgoParams) -> float:
    """The next step s_{k+1} from t_{k+1}, the step s_k and the estimate L_hat.

    ``L_hat`` is the local smoothness estimate for the new iterate pair.
    The step advances to min{A*s, B*s, C/L_hat}; when the estimate is zero
    the third candidate never binds.
    """
    A, B, C = _coefficients(t_next, params)
    s_next = min(A * s, B * s)
    if L_hat > 0.0:
        s_next = min(s_next, C / L_hat)
    return s_next


@dataclass
class ValidationReport:
    """Per-clause outcome of parameter validation."""

    valid: bool
    failures: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def validate_params(params: AlgoParams, L_known: Optional[float] = None) -> ValidationReport:
    """Check every standing assumption on the parameters.

    The binding clause is the step-growth condition
    (2/((1+beta)*gamma))*(1 - 1/t0) >= 1, which forces t0 > 1 and
    gamma in (0, 2).  m = 1 is accepted with a warning: the A-candidate
    degenerates to 1 and the step can no longer grow through it.
    """
    failures: list[str] = []
    warnings: list[str] = []
    if not (0.0 < params.m <= 1.0):
        failures.append(f"m={params.m} must lie in (0, 1]")
    elif params.m == 1.0:
        warnings.append("m=1 disables step growth (A_k = 1)")
    if not (0.0 <= params.omega < 1.0):
        failures.append(f"omega={params.omega} must lie in [0, 1)")
    if not (0.0 <= params.delta < 1.0):
        failures.append(f"delta={params.delta} must lie in [0, 1)")
    if not params.beta > 0.0:
        failures.append(f"beta={params.beta} must be positive")
    if not (0.0 < params.gamma < 2.0):
        failures.append(f"gamma={params.gamma} must lie in (0, 2)")
    if not params.t0 >= 1.0:
        failures.append(f"t0={params.t0} must be >= 1")
    if params.s0 is not None and params.s0 <= 0.0:
        failures.append(f"s0={params.s0} must be positive")

    if params.beta > 0.0 and params.gamma > 0.0 and params.t0 >= 1.0:
        growth = 2.0 / ((1.0 + params.beta) * params.gamma) * (1.0 - 1.0 / params.t0)
        if growth < 1.0:
            failures.append(
                "step-growth condition fails: "
                f"(2/((1+beta)*gamma))*(1-1/t0) = {growth:.6g} < 1"
            )

    if (not failures and params.t0 > 1.0 and params.s0 is not None
            and L_known is not None and L_known > 0):
        s0_floor = floor_q(params) / L_known
        if params.s0 < s0_floor * (1.0 - 1e-12):
            warnings.append(
                f"s0={params.s0:.6g} is below the floor q/L={s0_floor:.6g}; "
                "the step floor degrades to min(s0, q/L)"
            )
    return ValidationReport(valid=not failures, failures=failures, warnings=warnings)
