"""Gradient, curvature, and solver correctness against brute-force oracles."""

import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoway_aoi import optimizer
from twoway_aoi.analytic import (
    ClosedForms,
    avg_downlink_aoi,
    avg_uplink_aoi,
    data_rates,
    downlink_service_moments,
    harvest_slot_moments,
    renewal_aoi,
    uplink_service_moments,
    weighted_sum,
    weighted_sum_aoi,
)
from twoway_aoi.model import SystemParams, derive_constants
from twoway_aoi.optimizer import (
    OptOptions,
    OptResult,
    SweepPoint,
    aoi_gradient,
    aoi_second_derivative,
    newton_solve,
    sweep_w,
)

REF = SystemParams()
RHO_GRID = np.linspace(0.05, 0.95, 19)
W_GRID = np.linspace(0.0, 1.0, 9)


def objective(rho, w):
    return weighted_sum_aoi(REF, rho, w).weighted


def test_gradient_signs_at_pure_weights():
    for rho in RHO_GRID:
        assert aoi_gradient(REF, rho, 0.0) > 0.0
        assert aoi_gradient(REF, rho, 1.0) < 0.0


def test_gradient_matches_finite_differences():
    h = 1e-6
    for rho in RHO_GRID:
        for w in W_GRID:
            fd = (objective(rho + h, w) - objective(rho - h, w)) / (2 * h)
            got = aoi_gradient(REF, rho, w)
            assert got == pytest.approx(fd, rel=1e-6)


def test_gradient_rejects_boundaries():
    with pytest.raises(ValueError):
        aoi_gradient(REF, 0.0, 0.5)
    with pytest.raises(ValueError):
        aoi_second_derivative(REF, 1.0, 0.5)
    with pytest.raises(ValueError, match="w must be"):
        aoi_gradient(REF, 0.5, 1.5)


def test_second_derivative_positive_on_grid():
    for rho in np.linspace(0.02, 0.98, 50):
        for w in np.linspace(0.0, 1.0, 11):
            assert aoi_second_derivative(REF, rho, w) > 0.0


def test_second_derivative_matches_gradient_differences():
    h = 1e-6
    for rho in (0.2, 0.5, 0.8):
        for w in (0.0, 0.3, 0.7, 1.0):
            fd = (aoi_gradient(REF, rho + h, w) - aoi_gradient(REF, rho - h, w)) / (2 * h)
            assert aoi_second_derivative(REF, rho, w) == pytest.approx(fd, rel=1e-5)


def test_second_derivative_downlink_value():
    # w = 0, theta = 27, rho = 0.5: 3*27/0.125 + 27/27.5^3
    want = 3 * 27 / 0.125 + 27 / 27.5**3
    assert aoi_second_derivative(REF, 0.5, 0.0) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("fields", [{"packet_nats": 1e308}, {"packet_nats": 1e300},
                                    {"channel_rate": 1e308}])
def test_derivatives_name_theta_where_they_overflow(monkeypatch, fields):
    # theta or y infinite (inf / inf gives nan), or an intermediate that overflows
    params = SystemParams(**fields)
    theta = re.escape(repr(params.theta))
    for derivative in (aoi_gradient, aoi_second_derivative):
        with pytest.raises(OverflowError, match=rf"overflows at theta {theta}$"):
            derivative(params, 0.5, 0.5)
    # a sweep raises before its first Newton step
    steps = []
    monkeypatch.setattr(optimizer, "_cleared", lambda *args: steps.append(args))
    with pytest.raises(OverflowError, match=rf"gradient overflows at theta {theta}$"):
        sweep_w(params, [0.0, 0.5, 1.0])
    assert steps == []


def test_boundary_solutions():
    opts = OptOptions()
    r0 = newton_solve(REF, 0.0, opts)
    assert r0.method == "boundary"
    assert r0.rho_star == opts.boundary_eps
    assert r0.converged
    r1 = newton_solve(REF, 1.0, opts)
    assert r1.method == "boundary"
    assert r1.rho_star == 1.0 - opts.boundary_eps
    # theta = 0, given or underflowed: the gradient vanishes everywhere and
    # the solve returns at the lower edge without iterating
    for nats in (0.0, 1e-320):
        params = SystemParams(packet_nats=nats)
        assert params.theta == 0.0
        for w in (0.1, 0.5, 0.9):
            res = newton_solve(params, w, opts)
            assert (res.method, res.rho_star, res.iterations) == ("boundary", opts.boundary_eps, 0)


def test_interior_root_quality():
    opts = OptOptions()
    scale = max(abs(aoi_gradient(REF, opts.boundary_eps, 0.5)),
                abs(aoi_gradient(REF, 1 - opts.boundary_eps, 0.5)))
    for w in (0.1, 0.3, 0.5, 0.7, 0.9):
        res = newton_solve(REF, w, opts)
        assert res.converged
        assert res.method == "newton"
        assert res.iterations <= 30
        assert abs(aoi_gradient(REF, res.rho_star, w)) < 1e-8 * scale
        # local-minimum sandwich
        for delta in (-0.01, 0.01):
            assert res.aoi_star <= objective(res.rho_star + delta, w)


def test_newton_matches_bruteforce_grid():
    grid = np.arange(1, 2000) / 2000.0
    step = 1.0 / 2000.0
    for w in (0.2, 0.5, 0.8):
        vals = np.array([objective(r, w) for r in grid])
        best = grid[int(np.argmin(vals))]
        res = newton_solve(REF, w)
        assert abs(res.rho_star - best) <= step
        # objective gap bounded by local curvature times the grid resolution
        curvature = aoi_second_derivative(REF, res.rho_star, w)
        assert vals.min() - res.aoi_star <= curvature * step**2
        assert vals.min() >= res.aoi_star - 1e-9


def test_root_unique_sign_change():
    # gradient changes sign exactly once over a fine scan
    rhos = np.linspace(1e-4, 1 - 1e-4, 10_000)
    for w in np.linspace(0.1, 0.9, 9):
        signs = np.sign([aoi_gradient(REF, r, w) for r in rhos])
        flips = np.count_nonzero(np.diff(signs))
        assert flips == 1


def test_sweep_monotone_and_boundaries():
    grid = [i / 20 for i in range(21)]
    pts = sweep_w(REF, grid)
    assert [pt.w for pt in pts] == grid
    rhos = [pt.result.rho_star for pt in pts]
    assert all(b >= a for a, b in zip(rhos, rhos[1:]))
    assert pts[0].result.method == "boundary"
    assert pts[-1].result.method == "boundary"
    assert all(pt.result.converged for pt in pts)


def test_sweep_validates_grid():
    with pytest.raises(ValueError, match="w must be"):
        sweep_w(REF, [-0.1, 0.5])
    with pytest.raises(ValueError, match="w must be"):
        newton_solve(REF, 1.5)


def test_options_validation():
    with pytest.raises(ValueError):
        OptOptions(boundary_eps=0.0)
    with pytest.raises(ValueError):
        OptOptions(tol=0.0)
    with pytest.raises(ValueError):
        OptOptions(max_iters=0)
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        OptOptions(max_iters=3.0)
    assert OptOptions(max_iters=np.int64(3)).max_iters == 3
    with pytest.raises(ValueError):
        OptOptions(rho_init=1.5)


def _ulp_nudge(forms, rho, w):
    # takes arrays of rho and w, one element per weight, as the solver
    # evaluates its aoi_star in one call; one ulp up where rho's last mantissa
    # bit is set (a uniform scaling would keep the order of any two objective
    # values, so no comparison would see it)
    obj = weighted_sum(w, *forms.ages(rho))
    odd = np.ldexp(np.frexp(rho)[0], 53).astype(np.int64) & 1
    return np.where(odd == 1, np.nextafter(obj, np.inf), obj)


_SWEEP_GRID = [i / 1000 for i in range(1001)]


def test_rho_star_ignores_the_objectives_last_bit(monkeypatch):
    # the iteration reads only the gradient and curvature; the objective
    # fills aoi_star alone, so its last bits must not move a root
    def solved():
        return [(pt.result.rho_star, pt.result.iterations, pt.result.aoi_star)
                for pt in sweep_w(REF, _SWEEP_GRID)]

    want = solved()
    monkeypatch.setattr(optimizer, "_objective", _ulp_nudge)
    got = solved()
    assert [row[:2] for row in got] == [row[:2] for row in want]
    # the patch is read: some aoi_star moved in its last bits
    assert any(g[2] != w[2] for g, w in zip(got, want))
    assert all(g[2] == pytest.approx(w[2], rel=1e-12) for g, w in zip(got, want))


def test_a_raising_objective_propagates(monkeypatch):
    # guards the test above: a solve that never called the patched objective
    # would pass it vacuously
    class Called(Exception):
        pass

    def objective(forms, rho, w):
        raise Called

    monkeypatch.setattr(optimizer, "_objective", objective)
    for solve in (lambda: sweep_w(REF, _SWEEP_GRID), lambda: newton_solve(REF, 0.5)):
        with pytest.raises(Called):
            solve()


def _exact_root(params, w, opts):
    """The first float in (lo, hi] where the gradient's exact sign is not negative.

    Both terms of the gradient (doubled) are compared in Fractions on the
    floats the objective reads (theta, the harvest-slot mean and y), so no
    rounding decides a sign; the bisection stops at adjacent floats.
    """
    forms = ClosedForms(params)
    theta, a, y, w = map(Fraction, (forms.theta, forms.slot.m1, forms.y, w))

    def negative(rho):
        rho = Fraction(rho)
        down = 3 * theta / (1 - rho) ** 2 + theta / (1 + theta - rho) ** 2
        up = 3 / rho ** 2 + 1 / (rho + y) ** 2
        return (1 - w) * down < w * a * y * up

    lo, hi = opts.boundary_eps, 1.0 - opts.boundary_eps
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if negative(mid):
            lo = mid
        else:
            hi = mid


def test_convergence_from_varied_starts():
    # edge starts and a loose tol: the cleared gradient neither creeps out of
    # an edge nor lets tol alone decide how close the root lands
    for rho0 in (1e-4, 0.01, 0.02, 0.3, 0.97, 0.99):
        for w in (0.1, 0.5, 0.9):
            for tol in (1e-12, 0.05):
                opts = OptOptions(rho_init=rho0, tol=tol)
                res = newton_solve(REF, w, opts)
                assert res.converged
                assert abs(res.rho_star - _exact_root(REF, w, opts)) <= 1e-6
                assert res.iterations <= 12


_PARAMS = st.fixed_dictionaries({
    "harvest_eff": st.floats(0.01, 1.0),
    "distance": st.floats(0.5, 10.0),
    "packet_nats": st.one_of(st.just(0.0), st.floats(0.0, 1000.0)),
})


@settings(max_examples=300, deadline=None)
@given(fields=_PARAMS, rho=st.floats(1e-9, 1.0 - 1e-9), w=st.floats(0.0, 1.0))
def test_per_solve_constants_are_bit_identical(fields, rho, w):
    # the solver evaluates through one ClosedForms per solve; the public
    # functions build their constants per call; both must agree under ==,
    # so that a solve's aoi_star is the public value bit for bit (rho_star
    # follows the gradient sign alone)
    params = SystemParams(**fields)
    forms = ClosedForms(params)
    assert optimizer._objective(forms, rho, w) == weighted_sum_aoi(params, rho, w).weighted
    assert optimizer._gradient(forms, rho, w) == aoi_gradient(params, rho, w)
    assert optimizer._curvature(forms, rho, w) == aoi_second_derivative(params, rho, w)

    # from scratch: a fresh parameter set and the per-load public functions
    fresh = SystemParams(**fields)
    loads = derive_constants(fresh, rho)
    eta = fresh.harvest_eff
    dl, ul = avg_downlink_aoi(loads.dl_load), avg_uplink_aoi(loads.ul_load, eta)
    assert (forms.theta, forms.y) == (loads.theta, derive_constants(fresh, 1.0).ul_load)
    assert forms.slot == harvest_slot_moments(eta)
    assert forms.loads(rho) == (loads.dl_load, loads.ul_load)
    assert forms.ages(rho) == (dl, ul)
    assert ul == renewal_aoi(uplink_service_moments(loads.ul_load, eta))
    assert optimizer._objective(forms, rho, w) == weighted_sum(w, dl, ul)
    rates = (1.0 / downlink_service_moments(loads.dl_load).m1,
             1.0 / uplink_service_moments(loads.ul_load, eta).m1)
    assert forms.rates(rho) == data_rates(fresh, rho) == rates

    # the solver's aoi_star is the public objective at its rho_star
    res = newton_solve(params, w)
    assert res.aoi_star == weighted_sum_aoi(fresh, res.rho_star, w).weighted


_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
# a subnormal theta (2.7e-314), where a Newton iterate on the raw gradient
# stopped 3.3e-12 away
_SUBNORMAL_THETA = {"harvest_eff": 1.0, "distance": 1.0, "packet_nats": 2.2250738585e-313}
# theta = 0.0027: the cleared gradient dips near rho = 1 - theta, where a
# Newton step on it points out of the bracket
_DIPPING_CLEARED = {"harvest_eff": 1.0, "distance": 1.0, "packet_nats": 0.01}


def _loop_solve(params, w, opts):
    """One weight's solve as a scalar loop: the reference for the lockstep sweep.

    Returns the result and the ratios the solve iterated over, none for an edge.
    """
    forms = ClosedForms(params)
    lo, hi = opts.boundary_eps, 1.0 - opts.boundary_eps
    g_lo, g_hi = (float(optimizer._gradient(forms, edge, w)) for edge in (lo, hi))
    if g_lo >= 0.0 or g_hi <= 0.0:
        rho = lo if g_lo >= 0.0 else hi
        return OptResult(rho, optimizer._objective(forms, rho, w), 0, True, "boundary"), ()
    h_tol = optimizer._GRAD_REL_TOL * max(-optimizer._cleared(forms, lo, w)[0],
                                          optimizer._cleared(forms, hi, w)[0])
    iterates = []
    rho, moved = min(max(opts.rho_init, lo), hi), math.inf
    for iterations in range(opts.max_iters + 1):
        h, dh = optimizer._cleared(forms, rho, w)
        iterates.append(rho)
        converged = moved <= opts.tol and abs(h) <= h_tol
        if converged or iterations == opts.max_iters:
            break
        if h < 0.0:
            lo = rho
        else:
            hi = rho
        step = -h / dh if dh > 0.0 else 0.5 * (lo + hi) - rho
        while abs(step) > opts.tol and not lo < rho + step < hi:
            step *= 0.5
        nxt = min(max(rho + step, lo), hi)
        moved, rho = abs(nxt - rho), nxt
    result = OptResult(rho, optimizer._objective(forms, rho, w), iterations, converged, "newton")
    return result, tuple(iterates)


@pytest.mark.parametrize("w", [0.0, 0.3, 1.0])
def test_results_are_immutable_hashable_and_equal_by_field(w):
    opts = OptOptions()
    point = sweep_w(REF, [w], opts)[0]
    res = point.result
    for obj, name in ((res, "rho_star"), (res, "iterations"), (point, "w"), (point, "result")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0.5)
    # built positionally, as the scalar reference builds it, the result is equal
    # and hashes alike, so a point can key a dict
    again = SweepPoint(w, _loop_solve(REF, w, opts)[0])
    assert again == point and hash(again) == hash(point)
    assert {point: "solved"}[again] == "solved"
    assert res._replace(method="other") != res and res.method in ("newton", "boundary")
    # the NamedTuples' own reprs, every field shown
    assert repr(res) == (f"OptResult(rho_star={res.rho_star!r}, aoi_star={res.aoi_star!r}, "
                         f"iterations={res.iterations!r}, converged={res.converged!r}, "
                         f"method={res.method!r})")
    assert repr(point) == f"SweepPoint(w={w!r}, result={res!r})"


@settings(max_examples=150, deadline=None)
@given(fields=_PARAMS, rho_init=_OPEN_UNIT, tol=st.sampled_from([1e-12, 0.05]),
       max_iters=st.sampled_from([100, 3]),
       interior=st.lists(_OPEN_UNIT, min_size=1, max_size=6),
       edges=st.lists(st.sampled_from([0.0, 1.0]), max_size=3))
@example(fields=_SUBNORMAL_THETA, rho_init=0.5, tol=1e-12, max_iters=100,
         interior=[0.5, 0.9], edges=[0.0, 1.0])
@example(fields=_DIPPING_CLEARED, rho_init=0.99, tol=1e-12, max_iters=100,
         interior=[0.1, 0.5], edges=[1.0])
def test_sweep_lanes_share_no_state(fields, rho_init, tol, max_iters, interior, edges):
    # edge weights leave the sweep before it iterates and interior ones after
    # different numbers of steps (or at max_iters); each must come out as its
    # lone solve does, and step as the scalar loop does
    params = SystemParams(**fields)
    opts = OptOptions(rho_init=rho_init, tol=tol, max_iters=max_iters)
    grid = [*interior, *edges]   # in drawn order: the lanes need no sorting
    iterates = {w: [] for w in grid}
    cleared = optimizer._cleared

    def recorded(forms, rho, w):
        # the sweep's iterations pass an array of ratios, its set-up the edges as floats
        if isinstance(rho, np.ndarray):
            for w_n, rho_n in zip(w.tolist(), rho.tolist()):
                iterates[w_n].append(rho_n)
        return cleared(forms, rho, w)

    with mock.patch.object(optimizer, "_cleared", recorded):
        got = sweep_w(params, grid, opts)
    assert got == [SweepPoint(w, newton_solve(params, w, opts)) for w in grid]
    for w in grid:
        want, steps = _loop_solve(params, w, opts)
        assert got[grid.index(w)].result == want
        if want.method == "newton":
            # a weight drawn k times is k lanes, each at every iterate of the loop
            assert iterates[w] == [rho for rho in steps for _ in range(grid.count(w))]


@settings(max_examples=100, deadline=None)
@given(fields=_PARAMS, rhos=st.lists(st.floats(0.0, 1.0), max_size=6))
def test_closed_forms_on_an_array_equal_the_per_float_calls(fields, rhos):
    forms = ClosedForms(SystemParams(**fields))
    grid = [0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53, *rhos]
    for method in (forms.loads, forms.ages, forms.rates):
        per_float = [method(rho) for rho in grid]
        assert all(type(v) is float for pair in per_float for v in pair)
        assert [col.tolist() for col in method(np.array(grid))] == [
            list(col) for col in zip(*per_float)]


def test_weighted_sum_per_float_matches_the_array_call():
    # each (w, downlink, uplink) on Python floats gives a float with the bits of its lane in
    # the elementwise call, at infinite, huge and zero ages and subnormal weights, and never warns
    weights, ages = [0.0, 1.0, 0.5, 5e-324, 1.0 - 2.0 ** -53], [0.0, 2.0, 1e308, math.inf]
    cases = [(w, dl, ul) for w in weights for dl in ages for ul in ages]
    per_float = [weighted_sum(*case) for case in cases]
    assert all(type(v) is float for v in per_float)
    assert np.array(per_float).tobytes() == weighted_sum(*map(np.array, zip(*cases))).tobytes()


def test_closed_forms_reject_rho_outside_the_unit_interval():
    forms = ClosedForms(REF)
    for bad in (-0.1, 1.5, float("nan")):
        for rho in (bad, np.array([0.5, bad, 2.0])):
            for method in (forms.loads, forms.ages, forms.rates):
                with pytest.raises(ValueError, match=rf"rho must be in \[0, 1\], got {bad!r}$"):
                    method(rho)


@settings(max_examples=300, deadline=None)
@given(fields=_PARAMS, w=_OPEN_UNIT, rho_init=_OPEN_UNIT)
@example(fields=_SUBNORMAL_THETA, w=0.5, rho_init=0.5)
@example(fields=_DIPPING_CLEARED, w=0.5, rho_init=0.99)
def test_interior_root_is_accurate_to_the_last_bits(fields, w, rho_init):
    # 1e-13 relative: the safeguarded Newton iteration lands within a few
    # ulps (4.2e-16 worst over 3242 random interior solves), while a step
    # accepted on the objective's last bit stopped up to 3.6e-9 away
    params = SystemParams(**fields)
    opts = OptOptions(rho_init=rho_init)
    res = newton_solve(params, w, opts)
    if res.method == "boundary":
        return
    assert res.converged
    root = _exact_root(params, w, opts)
    assert abs(res.rho_star - root) <= 1e-13 * root
