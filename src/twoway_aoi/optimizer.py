"""Optimal power-splitting ratio for the weighted-sum average age.

The objective is strictly convex in rho on (0, 1) (both second-derivative
brackets are positive), so the interior minimizer, when it exists, is the
unique root of the gradient. A damped Newton iteration finds it; if the
damping stalls the solver switches permanently to bisection on the
gradient sign, which convexity guarantees to succeed. For w = 0 (or 1)
the gradient keeps one sign on the whole interval and the minimum sits at
the corresponding edge of the admissible interval; such solutions are
reported with method "boundary" rather than faked as interior roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analytic import harvest_slot_moments, weighted_sum_aoi
from .model import SystemParams, derive_constants

__all__ = [
    "OptOptions",
    "OptResult",
    "SweepPoint",
    "aoi_gradient",
    "aoi_second_derivative",
    "newton_solve",
    "sweep_w",
]

_BISECTION_BUDGET = 200
_GRAD_REL_TOL = 1e-8


@dataclass(frozen=True)
class OptOptions:
    """Solver knobs.

    ``boundary_eps`` excludes a margin near 0 and 1 where the objective is
    genuinely unbounded for interior w; ``tol`` is the convergence
    threshold on successive iterates.
    """

    rho_init: float = 0.5
    max_iters: int = 100
    tol: float = 1e-12
    boundary_eps: float = 1e-4

    def __post_init__(self):
        if not (0.0 < self.boundary_eps < 0.5):
            raise ValueError(f"boundary_eps must be in (0, 0.5), got {self.boundary_eps!r}")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters!r}")
        if not (0.0 < self.rho_init < 1.0):
            raise ValueError(f"rho_init must be in (0, 1), got {self.rho_init!r}")


@dataclass(frozen=True)
class OptResult:
    """Outcome of one minimization: the ratio, its objective, and the path taken."""

    rho_star: float
    aoi_star: float
    iterations: int
    trace: tuple = field(repr=False)   # (rho_n, objective_n, gradient_n) per step
    converged: bool
    method: str                        # "newton", "bisection", or "boundary"


@dataclass(frozen=True)
class SweepPoint:
    w: float
    result: OptResult


def _constants(params: SystemParams, rho: float, w: float):
    """(theta, a, y) of the derivative formulas, with y = lambda theta d^alpha."""
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must be in (0, 1), got {rho!r}")
    if not (0.0 <= w <= 1.0):
        raise ValueError(f"w must be in [0, 1], got {w!r}")
    loads = derive_constants(params, 1.0)   # the uplink load y / rho is y itself at rho = 1
    return loads.theta, harvest_slot_moments(params.harvest_eff).m1, loads.ul_load


def aoi_gradient(params: SystemParams, rho: float, w: float) -> float:
    """Derivative of the weighted-sum average age with respect to rho.

    Downlink part: (1-w) [3 theta / (2 (1-rho)^2) + theta / (2 (1+theta-rho)^2)].
    Uplink part:   -w a lambda theta d^alpha [3 / (2 rho^2) + 1 / (2 (rho + lambda theta d^alpha)^2)]
    with a = 1/eta + exp(-1/eta).
    """
    theta, a, y = _constants(params, rho, w)
    down = 1.5 * theta / (1.0 - rho) ** 2 + 0.5 * theta / (1.0 + theta - rho) ** 2
    up = -1.5 * a * y / rho ** 2 - 0.5 * a * y / (rho + y) ** 2
    return (1.0 - w) * down + w * up


def aoi_second_derivative(params: SystemParams, rho: float, w: float) -> float:
    """Second derivative of the objective; strictly positive on (0, 1)."""
    theta, a, y = _constants(params, rho, w)
    down = 3.0 * theta / (1.0 - rho) ** 3 + theta / (1.0 + theta - rho) ** 3
    up = a * y * (3.0 / rho ** 3 + 1.0 / (rho + y) ** 3)
    return (1.0 - w) * down + w * up


def _objective(params: SystemParams, rho: float, w: float) -> float:
    return weighted_sum_aoi(params, rho, w).weighted


def _bisect(params, w, lo, hi, opts, trace, iterations):
    """Bisection on the gradient sign; requires g(lo) < 0 < g(hi)."""
    budget = max(_BISECTION_BUDGET, opts.max_iters)
    for _ in range(budget):
        mid = 0.5 * (lo + hi)
        g_mid = aoi_gradient(params, mid, w)
        trace.append((mid, _objective(params, mid, w), g_mid))
        iterations += 1
        if g_mid < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= opts.tol:
            rho = 0.5 * (lo + hi)
            return rho, iterations, True
    return 0.5 * (lo + hi), iterations, False


def newton_solve(params: SystemParams, w: float, opts: OptOptions | None = None) -> OptResult:
    """Minimize the weighted-sum average age over rho for a fixed weight w."""
    opts = opts or OptOptions()
    lo = opts.boundary_eps
    hi = 1.0 - opts.boundary_eps
    g_lo = aoi_gradient(params, lo, w)
    g_hi = aoi_gradient(params, hi, w)
    grad_scale = max(abs(g_lo), abs(g_hi))

    # the gradient is strictly increasing (convexity): a single sign decides
    # whether the admissible-interval minimum sits at an edge
    if g_lo >= 0.0:
        obj = _objective(params, lo, w)
        return OptResult(lo, obj, 0, ((lo, obj, g_lo),), True, "boundary")
    if g_hi <= 0.0:
        obj = _objective(params, hi, w)
        return OptResult(hi, obj, 0, ((hi, obj, g_hi),), True, "boundary")

    trace: list[tuple[float, float, float]] = []
    rho = min(max(opts.rho_init, lo), hi)
    obj = _objective(params, rho, w)
    iterations = 0
    method = "newton"
    converged = False

    for _ in range(opts.max_iters):
        g = aoi_gradient(params, rho, w)
        trace.append((rho, obj, g))
        step = -g / aoi_second_derivative(params, rho, w)
        candidate = rho + step
        stalled = False
        for _halving in range(50):
            if lo <= candidate <= hi:
                cand_obj = _objective(params, candidate, w)
                if cand_obj <= obj:
                    break
            step *= 0.5
            candidate = rho + step
        else:
            stalled = True
        if stalled:
            method = "bisection"
            break
        iterations += 1
        moved = abs(candidate - rho)
        rho, obj = candidate, cand_obj
        if moved <= opts.tol:
            if abs(aoi_gradient(params, rho, w)) <= _GRAD_REL_TOL * grad_scale:
                converged = True
                break
            # step collapsed away from the root: damping cannot help anymore
            method = "bisection"
            break

    if not converged:
        if method == "bisection":
            # fall back to bisecting the whole admissible interval [lo, hi]
            rho, iterations, converged = _bisect(
                params, w, lo, hi, opts, trace, iterations)
            obj = _objective(params, rho, w)
            converged = converged and (
                abs(aoi_gradient(params, rho, w)) <= _GRAD_REL_TOL * grad_scale)
        # else: Newton exhausted max_iters without stalling; report as-is

    trace.append((rho, obj, aoi_gradient(params, rho, w)))
    return OptResult(rho, obj, iterations, tuple(trace), converged, method)


def sweep_w(params: SystemParams, w_grid, opts: OptOptions | None = None) -> list[SweepPoint]:
    """Minimize over rho for each weight in a sorted grid.

    Points are solved independently (no warm starting) so the result is
    deterministic and order-insensitive; failures are carried per point in
    the OptResult rather than raised.
    """
    grid = [float(w) for w in w_grid]
    if any(not (0.0 <= w <= 1.0) for w in grid):
        raise ValueError("w grid values must lie in [0, 1]")
    if grid != sorted(grid):
        raise ValueError("w grid must be sorted ascending")
    opts = opts or OptOptions()
    return [SweepPoint(w, newton_solve(params, w, opts)) for w in grid]
