"""Optimal power-splitting ratio for the weighted-sum average age.

The objective is strictly convex in rho on (0, 1) (both second-derivative
brackets are positive), so the interior minimizer, when it exists, is the
unique root of a strictly increasing gradient g. The gradient signs at the
two ends of the admissible interval bracket that root. A safeguarded Newton
iteration finds it on the cleared gradient h = g rho^2 (1-rho)^2 / theta,
which has g's sign on (0, 1) but neither scales with theta nor blows up at
the edges: each iterate's sign shrinks the bracket, and a Newton step that
would leave the bracket is halved until it lies inside (where h' is not
positive, the bracket's midpoint is taken instead). No step is tested
against the objective, so the root found does not depend on the
objective's last bit. For w = 0 (or 1) the gradient keeps one sign on the
whole interval and the minimum sits at the corresponding edge of the
admissible interval; such solutions are reported with method "boundary"
rather than faked as interior roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic import ClosedForms, weighted_sum
from .model import SystemParams, _check, _check_count, _check_split, _check_weight

# bench/tracing.py wraps these names in this module's namespace; the solver
# evaluates through ClosedForms, so the names are bound for the tracer only
from .analytic import weighted_sum_aoi  # noqa: F401
from .model import derive_constants  # noqa: F401

__all__ = [
    "OptOptions",
    "OptResult",
    "SweepPoint",
    "aoi_gradient",
    "aoi_second_derivative",
    "newton_solve",
    "sweep_w",
]

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
        _check("boundary_eps", self.boundary_eps, 0.0 < self.boundary_eps < 0.5, "in (0, 0.5)")
        _check("tol", self.tol, self.tol > 0, "> 0")
        _check_count("max_iters", self.max_iters, 1)
        _check_split(self.rho_init, "rho_init", interior=True)


class OptResult(NamedTuple):
    """Outcome of one minimization: the ratio, its objective, and how it was reached.
    A NamedTuple, so a sweep builds each at a tuple's cost; ``_replace`` copies it."""

    rho_star: float
    aoi_star: float
    iterations: int
    converged: bool
    method: str                        # "newton" or "boundary"


class SweepPoint(NamedTuple):
    w: float
    result: OptResult


def _gradient(forms: ClosedForms, rho, w):
    # squares as products, so a float and an array run the same operations; an overflow,
    # a square that underflows to 0, or an infinite theta or y (inf / inf) raises
    theta, a, y = forms.theta, forms.slot.m1, forms.y
    rho = rho if isinstance(rho, np.ndarray) else np.float64(rho)
    try:
        with np.errstate(all="raise", under="ignore"):
            r1, q, u = 1.0 - rho, 1.0 + theta - rho, rho + y
            down = 1.5 * theta / (r1 * r1) + 0.5 * theta / (q * q)
            up = -1.5 * a * y / (rho * rho) - 0.5 * a * y / (u * u)
            return (1.0 - w) * down + w * up
    except FloatingPointError:
        raise OverflowError(f"the age gradient overflows at theta {theta!r}") from None


def _curvature(forms: ClosedForms, rho: float, w: float) -> float:
    theta, a, y, rho = forms.theta, forms.slot.m1, forms.y, np.float64(rho)
    try:
        with np.errstate(all="raise", under="ignore"):
            down = 3.0 * theta / (1.0 - rho) ** 3 + theta / (1.0 + theta - rho) ** 3
            up = a * y * (3.0 / rho ** 3 + 1.0 / (rho + y) ** 3)
            return float((1.0 - w) * down + w * up)
    except FloatingPointError:
        raise OverflowError(f"the age curvature overflows at theta {theta!r}") from None


def _cleared(forms: ClosedForms, rho: float, w: float) -> tuple[float, float]:
    # h = g m / theta with m = (rho (1-rho))^2, and its derivative h':
    #   h = (1-w) [1.5 rho^2 + 0.5 m / q^2] - w a c [1.5 (1-rho)^2 + 0.5 m / u^2]
    # with q = 1 + theta - rho, u = rho + y; c = y / theta keeps h's size
    # however small theta is, and m clears g's poles at both edges
    theta, ac, y = forms.theta, forms.slot.m1 * forms.c, forms.y
    r1 = 1.0 - rho
    p = rho * r1
    m = p * p
    half_dm = p * (r1 - rho)
    iq = 1.0 / (1.0 + theta - rho)
    iu = 1.0 / (rho + y)
    down = 1.5 * rho * rho + 0.5 * m * iq * iq
    up = 1.5 * r1 * r1 + 0.5 * m * iu * iu
    dh = ((1.0 - w) * (3.0 * rho + (half_dm + m * iq) * iq * iq)
          - w * ac * ((half_dm - m * iu) * iu * iu - 3.0 * r1))
    return (1.0 - w) * down - w * ac * up, dh


def _objective(forms: ClosedForms, rho: float, w: float) -> float:
    dl, ul = forms.ages(rho)
    return weighted_sum(w, dl, ul)


def aoi_gradient(params: SystemParams, rho: float, w: float) -> float:
    """Derivative of the weighted-sum average age with respect to rho.

    Downlink part: (1-w) [3 theta / (2 (1-rho)^2) + theta / (2 (1+theta-rho)^2)].
    Uplink part:   -w a lambda theta d^alpha [3 / (2 rho^2) + 1 / (2 (rho + lambda theta d^alpha)^2)]
    with a = 1/eta + exp(-1/eta).
    """
    _check_split(rho, interior=True)
    _check_weight(w)
    return float(_gradient(ClosedForms(params), rho, w))


def aoi_second_derivative(params: SystemParams, rho: float, w: float) -> float:
    """Second derivative of the objective; strictly positive on (0, 1)."""
    _check_split(rho, interior=True)
    _check_weight(w)
    return _curvature(ClosedForms(params), rho, w)


def newton_solve(params: SystemParams, w: float, opts: OptOptions | None = None) -> OptResult:
    """Minimize the weighted-sum average age over rho for a fixed weight w."""
    return sweep_w(params, [w], opts)[0].result


def sweep_w(params: SystemParams, w_grid, opts: OptOptions | None = None) -> list[SweepPoint]:
    """Minimize over rho for each weight in a grid.

    The weights are lanes of one array iteration: each lane takes the steps
    of a lone solve of its weight (no warm starting, so results do not depend
    on the grid) and leaves once it converges or reaches ``max_iters``.
    Failures are carried per point in the OptResult rather than raised.
    """
    grid = [float(w) for w in w_grid]
    w = np.array(grid)
    _check_weight(w)
    opts = opts or OptOptions()
    forms = ClosedForms(params)   # every evaluation below reuses its constants
    lo0, hi0 = opts.boundary_eps, 1.0 - opts.boundary_eps
    # the gradient is strictly increasing (convexity): a single sign decides
    # whether the admissible-interval minimum sits at an edge, where a lane
    # stops before its first step
    at_lo = _gradient(forms, lo0, w) >= 0.0
    edge = at_lo | (_gradient(forms, hi0, w) <= 0.0)
    rho_star, iterations, converged = np.empty(w.size), np.zeros(w.size, int), np.zeros_like(edge)

    # otherwise g(lo) < 0 < g(hi), and each iterate's sign moves one end of
    # the bracket onto it, so lo < root <= hi holds throughout
    lane, wl, stop = np.arange(w.size), w, edge
    rho = np.where(at_lo, lo0, np.where(edge, hi0, min(max(opts.rho_init, lo0), hi0)))
    with np.errstate(all="ignore"):
        # max(-h(lo), h(hi)) as Python's max picks it, nan included
        neg_h_lo, h_hi = -_cleared(forms, lo0, w)[0], _cleared(forms, hi0, w)[0]
        h_tol = _GRAD_REL_TOL * np.where(h_hi > neg_h_lo, h_hi, neg_h_lo)
        lo, hi, moved = (np.full(w.size, x) for x in (lo0, hi0, math.inf))
        for it in range(opts.max_iters + 1):
            h, dh = _cleared(forms, rho, wl)
            conv = stop | (moved <= opts.tol) & (np.abs(h) <= h_tol)
            done = conv | (it == opts.max_iters)
            left = lane[done]
            rho_star[left], iterations[left], converged[left] = rho[done], it, conv[done]
            lane, wl, stop, rho, h, dh, lo, hi, h_tol = (
                x[~done] for x in (lane, wl, stop, rho, h, dh, lo, hi, h_tol))
            if not lane.size:
                break
            lo, hi = np.where(h < 0.0, rho, lo), np.where(h < 0.0, hi, rho)
            # h is not monotone (for small theta or y it dips near rho = 1 - theta
            # or rho = y), so where h' <= 0 the Newton step points out of the
            # bracket and the bracket's midpoint is taken instead
            step = np.where(dh > 0.0, -h / dh, 0.5 * (lo + hi) - rho)
            # halving stops at tol: once the bracket closes to adjacent floats no
            # step lies strictly inside it, and the clamp below ends the search
            while (out := (np.abs(step) > opts.tol)
                   & ~((lo < rho + step) & (rho + step < hi))).any():
                step = np.where(out, step * 0.5, step)
            nxt = np.minimum(np.maximum(rho + step, lo), hi)
            rho, moved = nxt, np.abs(nxt - rho)

    # aoi_star in one evaluation over the final ratios, elementwise as a lone solve's would be
    results = zip(rho_star.tolist(), _objective(forms, rho_star, w).tolist(), iterations.tolist(),
                  converged.tolist(), np.where(edge, "boundary", "newton").tolist())
    return list(map(SweepPoint._make, zip(grid, map(OptResult._make, results))))
