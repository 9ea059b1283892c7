"""Parameter validation and per-block physics primitives."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoway_aoi.analytic import harvest_slot_moments
from twoway_aoi.model import (
    SystemParams,
    derive_constants,
    harvested_energy,
    per_block_downlink_nats,
    per_block_uplink_nats,
    uplink_energy_threshold,
)

REF = SystemParams()  # reference operating point


@pytest.mark.parametrize("field,value", [
    ("total_power", 0.0),
    ("total_power", -1.0),
    ("channel_rate", 0.0),
    ("distance", -2.0),
    ("pathloss_exp", 0.0),
    ("bandwidth", 0.0),
    ("noise_density", 0.0),
    ("block_len", 0.0),
    ("packet_nats", -1.0),
    ("harvest_eff", 0.0),
    ("harvest_eff", 1.5),
    ("split_ratio", -0.1),
    ("split_ratio", 1.1),
    ("weight_uplink", 2.0),
])
def test_params_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        SystemParams(**{field: value})


def test_theta_reference_point():
    # lambda*l*N0*d^alpha / (P_t*T_B) = 3*100*4e-7*2.25 / 1e-5
    assert REF.theta == pytest.approx(27.0, rel=1e-12)


def test_derive_constants_reference():
    loads = derive_constants(REF, 0.5)
    assert loads.dl_load == pytest.approx(54.0, rel=1e-12)
    assert loads.ul_load == pytest.approx(3 * 27 * 1.5**2 / 0.5, rel=1e-12)
    a = harvest_slot_moments(REF.harvest_eff).m1
    assert a == pytest.approx(2.0 + math.exp(-2.0), rel=1e-14)


def test_derive_constants_zero_packet():
    p = SystemParams(packet_nats=0.0)
    for rho in (0.0, 0.25, 0.75):
        loads = derive_constants(p, rho)
        assert loads.theta == 0.0
        assert loads.dl_load == 0.0


def test_derive_constants_boundaries():
    assert math.isinf(derive_constants(REF, 1.0).dl_load)
    assert math.isinf(derive_constants(REF, 0.0).ul_load)
    with pytest.raises(ValueError):
        derive_constants(REF, 1.2)


def test_theta_invariant_under_power_noise_scaling():
    for factor in (10.0, 0.01, 3.7):
        scaled = SystemParams(total_power=REF.total_power * factor,
                              noise_density=REF.noise_density * factor)
        assert scaled.theta == pytest.approx(REF.theta, rel=1e-12)


def test_load_times_rhobar_is_theta():
    # exact at dyadic ratios, 1e-14 relative elsewhere
    for rho in (0.25, 0.5, 0.75):
        loads = derive_constants(REF, rho)
        assert loads.dl_load * (1.0 - rho) == loads.theta
    for rho in np.linspace(0.01, 0.99, 23):
        loads = derive_constants(REF, rho)
        assert loads.dl_load * (1.0 - rho) == pytest.approx(loads.theta, rel=1e-14)


def test_harvest_factor_limit():
    # a = 1/eta + exp(-1/eta), the mean harvest slot, -> 1 as eta grows
    a_eta1 = harvest_slot_moments(1.0).m1
    assert a_eta1 == pytest.approx(1.0 + math.exp(-1.0), rel=1e-14)
    assert a_eta1 >= 1.0
    for eta in (0.1, 0.3, 0.5, 0.9, 1.0):
        assert harvest_slot_moments(eta).m1 >= 1.0


def test_downlink_nats_examples():
    assert per_block_downlink_nats(REF, 0.5, 0.0, "exact") == 0.0
    assert per_block_downlink_nats(REF, 0.5, 0.0, "linear") == 0.0
    got = per_block_downlink_nats(REF, 0.5, 1.0, "linear")
    assert got == pytest.approx(0.5 * 0.01 * 1e-3 / (2.25 * 4e-7), rel=1e-12)


def test_uplink_nats_examples():
    assert per_block_uplink_nats(REF, 0.5, 0.0, "linear") == 0.0
    got = per_block_uplink_nats(REF, 0.5, 1.0, "linear")
    assert got == pytest.approx(0.5 * 0.01 * 1e-3 / (3 * 1.5**4 * 4e-7), rel=1e-12)


def test_linear_dominates_exact():
    gains = np.geomspace(1e-3, 1e3, 40)
    for rho in (0.1, 0.5, 0.9):
        lin = per_block_downlink_nats(REF, rho, gains, "linear")
        exa = per_block_downlink_nats(REF, rho, gains, "exact")
        assert np.all(lin >= exa)
        lin = per_block_uplink_nats(REF, rho, gains, "linear")
        exa = per_block_uplink_nats(REF, rho, gains, "exact")
        assert np.all(lin >= exa)


def test_linear_over_exact_ratio_to_one_at_low_power():
    gain = 2.0
    ratios = []
    for pt in (1e-2, 1e-4, 1e-6):
        p = SystemParams(total_power=pt)
        ratios.append(per_block_downlink_nats(p, 0.5, gain, "linear")
                      / per_block_downlink_nats(p, 0.5, gain, "exact"))
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    assert ratios[2] == pytest.approx(1.0, abs=1e-5)


def test_uplink_mean_nats_consistent_with_load():
    # E(linear nats) over gamma ~ Exp(lambda) equals l / ul_load
    rho = 0.3
    mean_nats = per_block_uplink_nats(REF, rho, 1.0 / REF.channel_rate, "linear")
    ul_load = derive_constants(REF, rho).ul_load
    assert REF.packet_nats / mean_nats == pytest.approx(ul_load, rel=1e-12)


def test_harvested_energy_example_and_threshold():
    got = harvested_energy(REF, 0.5, 1.0)
    assert got == pytest.approx(0.5 * 0.5 * 0.01 * 1e-3 / 2.25, rel=1e-12)
    threshold = uplink_energy_threshold(REF, 0.5)
    assert threshold == pytest.approx(0.5 * 0.01 * 1e-3 / (3 * 2.25), rel=1e-12)
    # mean blocks to bank one threshold = threshold / E(harvest per block) = 1/eta
    mean_harvest = harvested_energy(REF, 0.5, 1.0 / REF.channel_rate)
    assert threshold / mean_harvest == pytest.approx(1.0 / REF.harvest_eff, rel=1e-12)


def test_monotonicity_in_rho_and_gain():
    rhos = np.linspace(0.05, 0.95, 10)
    dl = [per_block_downlink_nats(REF, r, 1.0, "exact") for r in rhos]
    assert all(b < a for a, b in zip(dl, dl[1:]))          # decreasing in rho
    ev = [harvested_energy(REF, r, 1.0) for r in rhos]
    assert all(b > a for a, b in zip(ev, ev[1:]))          # increasing in rho
    gains = np.linspace(0.1, 5.0, 10)
    dn = per_block_downlink_nats(REF, 0.5, gains, "exact")
    assert np.all(np.diff(dn) > 0)                         # increasing in gain


def test_negative_gain_rejected():
    # nan fails every comparison, so a check written as "gain < 0" let it through
    for fn in (per_block_downlink_nats, per_block_uplink_nats, harvested_energy):
        for gain, shown in ((-1.0, "-1.0"), (-0.1, "-0.1"), (math.nan, "nan"),
                            (np.array([1.0, math.nan, -2.0]), "nan")):
            with pytest.raises(ValueError, match=f"gain must be >= 0, got {shown}"):
                fn(REF, 0.5, gain)


# each formula as one expression: the in-place steps must run the same float
# operations in the same order
def _nats_formula(params, power, gain, mode):
    scale = power / (params._d_alpha * params.noise_density)
    if mode == "linear":
        return params.block_len * scale * gain
    return params.block_len * params.bandwidth * np.log1p(scale * gain / params.bandwidth)


def _harvest_formula(params, rho, gain):
    return (params.harvest_eff * rho * params.total_power * params.block_len
            * gain / params._d_alpha)


# the smallest subnormal and a gain far past any Rayleigh draw
_GAIN = st.one_of(st.sampled_from([0.0, 5e-324, 1e300]), st.floats(0.0, 1e300))


@settings(max_examples=200, deadline=None)
@given(gains=st.lists(_GAIN, min_size=1, max_size=30), rho=st.floats(0.0, 1.0),
       mode=st.sampled_from(["linear", "exact"]))
@example(gains=[5e-324, 1e300, 0.0], rho=0.5, mode="linear")
@example(gains=[5e-324, 1e300, 0.0], rho=0.5, mode="exact")
def test_in_place_results_match_the_allocating_call(gains, rho, mode):
    gain = np.asarray(gains)
    p_u = rho * REF.total_power / (REF.channel_rate * REF._d_alpha)
    cases = [
        (lambda g, **kw: per_block_downlink_nats(REF, rho, g, mode, **kw),
         _nats_formula(REF, (1.0 - rho) * REF.total_power, gain, mode)),
        (lambda g, **kw: per_block_uplink_nats(REF, rho, g, mode, **kw),
         _nats_formula(REF, p_u, gain, mode)),
        (lambda g, **kw: harvested_energy(REF, rho, g, **kw), _harvest_formula(REF, rho, gain)),
    ]
    for fn, formula in cases:
        want = fn(gain)
        buf = gain.copy()
        got = fn(buf, out=buf)
        assert got is buf
        assert got.tobytes() == want.tobytes() == formula.tobytes()
        assert np.float64(fn(float(gain[0]))).tobytes() == want[:1].tobytes()
        # a negative gain is rejected before anything is written
        buf = np.append(gain, -1.0)
        with pytest.raises(ValueError, match="gain must be >= 0"):
            fn(buf, out=buf)
        assert buf[:-1].tobytes() == gain.tobytes()
