"""Parameter recursions: inertial weights, local smoothness estimates, step sizes.

Three coupled sequences drive the adaptive solver:

* t_k, the inertial (momentum) weights, growing linearly in k;
* L_k, a per-iteration local estimate of the smoothness constant, capped at
  the global L when L is known (rounding can push the raw estimate above it);
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
from dataclasses import dataclass, replace
from typing import Optional


_SQRT_EPS = math.sqrt(2.0 ** -52)
_F_ROUNDING = 64 * 2.0 ** -52


class NonConvexInputError(ValueError):
    """The local smoothness ratio saw a denominator that convexity forbids."""


@dataclass(frozen=True)
class AlgoParams:
    """Solver parameters (m, t0, gamma, beta, omega, delta, s0, restart).

    ``s0=None`` means "resolve at run time" by a one-step probe of the
    local smoothness at the start point: q/L_hat(x0), with L_hat capped at
    the known L, so never below q/L.
    ``restart`` turns on gradient-based adaptive restart; only
    :func:`default_params` sets it, and no config key exposes it.
    """

    m: float = 0.99
    t0: float = 3.0
    gamma: float = 1.0
    beta: float = 1.0 / 3.0
    omega: float = 0.0
    delta: float = 0.0
    s0: Optional[float] = None
    restart: bool = False

    @property
    def linear_rate(self) -> bool:
        """omega = delta = 1/2: the setting whose runs contract linearly
        under strong convexity, and for which rho is defined."""
        return self.omega == 0.5 and self.delta == 0.5


#: Named parameter profiles exposed to configs.  The two convex profiles have
#: step floors q = 1/4 and 1/5; the two strongly convex ones 1/12 and 1/16.
PROFILES = {
    "cor-4.3": AlgoParams(m=0.99, t0=2.0, gamma=0.5, beta=1.0, omega=0.0, delta=0.0),
    "cor-4.4": AlgoParams(),  # AlgoParams' defaults are this profile
    "sc-1": AlgoParams(m=0.99, t0=2.0, gamma=0.5, beta=1.0, omega=0.5, delta=0.5),
    "sc-2": AlgoParams(m=0.99, t0=3.0, gamma=1.0, beta=1.0 / 3.0, omega=0.5, delta=0.5),
}


def default_params(problem) -> AlgoParams:
    """``sc-2`` when mu > 0 is known, ``cor-4.4`` otherwise, both at m = 1/2
    and with adaptive restart.

    At the profiles' m = 0.99 the candidate A = (t_{k+1} - m)/(t_{k+1} - 1)
    is about 1 + 0.01/t_{k+1}: it binds on nearly every iteration, so the
    step creeps up from the probed s0 and the local estimate L_hat almost
    never acts.
    At m = 1/2 the step follows L_hat and grows past 1/L where the
    curvature allows.  q, D and rho do not depend on m and stay the
    profile's.  The price: t_k grows like m*k/2, so the certified sublinear
    bound D*L/t_k^2 is about (0.99/0.5)^2 = 3.9 times looser than the
    profile's, and still O(1/k^2).

    Restart (O'Donoghue & Candes, FoCM 2015, gradient scheme): whenever
    g_k'(y_{k+1} - y_k) > 0 the solver drops the momentum and starts a
    fresh run of the profile from y_{k+1}, with the current step as its
    s0.  It needs no mu.  Each restart epoch is a run the paper's theorems
    cover, so the certificates re-anchor per epoch.
    """
    strongly = problem.mu_known is not None and problem.mu_known > 0
    return replace(PROFILES["sc-2" if strongly else "cor-4.4"], m=0.5, restart=True)


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
                     x_next, x_prev, gg_next: float,
                     clamp: Optional[float] = None) -> tuple[float, bool]:
    """Local smoothness estimate from one iterate pair of float arrays.

    Returns ``(L_hat, fallback)``: L_hat = 0.5*||dg||^2/D with dg =
    g_next - g_prev, dx = x_next - x_prev and D = <g_next, dx> - (f_next -
    f_prev), the Bregman divergence D_f(x_prev, x_next); 0/0 = 0.
    ``gg_next`` is g_next.g_next, which the caller's oracle evaluation
    already has.  Exact gradient equality never fires in floating point, so
    the zero branch triggers on ||dg|| <= 1e-14*(1 + ||g_next||).

    One rounding band.  D is a difference of two first-order terms, and
    on ill-conditioned objectives f carries a rounding error far above
    eps*|f| (cancellation inside the oracle: about 4e-10 at |f| = 2.5 on a
    quadratic with spectrum 1..1e6), so near convergence the computed D is
    noise.  With f_size = |f_next| + |f_prev|, the band is -tau <= D <=
    64*eps*f_size, tau = max(sqrt(eps)*f_size, 1e-12*(1 + f_size)).  A
    negative D is impossible for a convex f, so every one down to -tau
    counts as rounding: sqrt(eps) is the rounding of an oracle that loses
    up to half of f's digits, as the cond-1e6 quadratic does, and D < -tau
    raises.  A positive D counts as rounding only within f's own rounding,
    64*eps*f_size; above it the paper's ratio stands.  Inside the band
    ``fallback`` is True and L_hat is the gradient-only ||dg||^2/<dg, dx>,
    which cocoercivity keeps <= L, or 0 (no information) when <dg, dx> <=
    0.  The energy argument needs D >= ||dg||^2/(2*L_hat); with the
    fallback this holds with equality when f is quadratic along the
    segment, but not for a general convex f.  The solver counts fallback
    iterations, and ``summary.csv`` reports them per cell as ``fallbacks``.

    ``clamp`` is the known global smoothness constant when available: the
    raw estimate never exceeds it in exact arithmetic, but rounding can push
    the computed one above it, so the estimate is capped (also when a
    subnormal denominator makes the ratio infinite).  Without a clamp the
    raw estimate stands, however large.
    """
    diff = g_next - g_prev
    # np.linalg.norm's own 1-D formula, bit for bit
    diff_norm = math.sqrt(diff.dot(diff))
    if diff_norm <= 1e-14 * (1.0 + math.sqrt(gg_next)):
        return 0.0, False
    dx = x_next - x_prev
    denom = float(g_next.dot(dx)) - (f_next - f_prev)
    f_size = abs(f_next) + abs(f_prev)
    fallback = denom <= _F_ROUNDING * f_size
    if fallback:
        if denom < -_SQRT_EPS * f_size and denom < -1e-12 * (f_size + 1.0):
            raise NonConvexInputError(
                f"negative curvature denominator {denom:.3e}: inputs are not "
                "from a convex smooth objective"
            )
        monotone = float(diff.dot(dx))
        if not monotone > 0.0:
            return 0.0, True
        ratio = diff_norm * diff_norm / monotone
    else:
        ratio = 0.5 * diff_norm * diff_norm / denom
    if clamp is not None and ratio > clamp:
        ratio = clamp
    return ratio, fallback


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


def validate_params(params: AlgoParams, L_known: Optional[float] = None) -> list[str]:
    """Check every standing assumption on the parameters; return the warnings.

    Raises ``ValueError`` naming every failed clause.  The binding clause is
    the step-growth condition (2/((1+beta)*gamma))*(1 - 1/t0) >= 1, which
    forces t0 > 1 and gamma in (0, 2).  m = 1 is accepted with a warning:
    the A-candidate degenerates to 1 and the step can no longer grow
    through it.
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
    if failures:
        raise ValueError("invalid parameters: " + "; ".join(failures))

    # the step-growth condition holds, so t0 > 1 and q is defined
    if params.s0 is not None and L_known is not None and L_known > 0:
        s0_floor = floor_q(params) / L_known
        if params.s0 < s0_floor * (1.0 - 1e-12):
            warnings.append(
                f"s0={params.s0:.6g} is below the floor q/L={s0_floor:.6g}; "
                "the step floor degrades to min(s0, q/L)"
            )
    return warnings
