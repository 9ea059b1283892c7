"""Gradient, curvature, and solver correctness against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
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


def test_boundary_solutions():
    opts = OptOptions()
    r0 = newton_solve(REF, 0.0, opts)
    assert r0.method == "boundary"
    assert r0.rho_star == opts.boundary_eps
    assert r0.converged
    r1 = newton_solve(REF, 1.0, opts)
    assert r1.method == "boundary"
    assert r1.rho_star == 1.0 - opts.boundary_eps


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
    with pytest.raises(ValueError):
        sweep_w(REF, [0.5, 0.2])
    with pytest.raises(ValueError):
        sweep_w(REF, [-0.1, 0.5])


def test_options_validation():
    with pytest.raises(ValueError):
        OptOptions(boundary_eps=0.0)
    with pytest.raises(ValueError):
        OptOptions(tol=0.0)
    with pytest.raises(ValueError):
        OptOptions(max_iters=0)
    with pytest.raises(ValueError):
        OptOptions(rho_init=1.5)


def test_trace_is_recorded():
    res = newton_solve(REF, 0.5)
    assert isinstance(res, OptResult)
    assert len(res.trace) >= 2
    rho_path = [t[0] for t in res.trace]
    assert rho_path[0] == pytest.approx(0.5)
    assert rho_path[-1] == res.rho_star
    # gradients recorded alongside
    assert all(len(t) == 3 for t in res.trace)


def test_convergence_from_varied_starts():
    for rho0 in (0.02, 0.3, 0.97):
        res = newton_solve(REF, 0.5, OptOptions(rho_init=rho0))
        assert res.converged
        assert res.rho_star == pytest.approx(0.7915141232, rel=1e-6)


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
    # since the line search accepts a step on the objective's last bit
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

    # every row the solver records holds the public objective and gradient
    for rho_n, obj_n, g_n in newton_solve(params, w).trace:
        assert obj_n == weighted_sum_aoi(fresh, rho_n, w).weighted
        assert g_n == aoi_gradient(fresh, rho_n, w)
