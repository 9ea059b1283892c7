"""Distributions, moments, and closed-form ages against independent oracles.

Every analytic moment is re-derived here by truncated series summation
over the pmf (mean + 12 standard deviations of tail, leaving < 1e-12
mass), and the compound uplink moments additionally against a direct
Monte Carlo of the random sum.
"""

import math

import numpy as np
import pytest

from twoway_aoi.analytic import (
    MomentPair,
    avg_downlink_aoi,
    avg_uplink_aoi,
    data_rates,
    downlink_service_moments,
    downlink_service_pmf,
    harvest_slot_moments,
    harvest_slot_pmf,
    renewal_aoi,
    ts_equivalent_rho,
    uplink_service_moments,
    weighted_sum_aoi,
)
from twoway_aoi.model import SystemParams

REF = SystemParams()
LOAD_GRID = [0.1, 1.0, 10.0, 54.0, 364.5]


def series_truncation(load: float) -> int:
    return math.ceil(load + 12.0 * math.sqrt(load + 1.0)) + 1


def series_moments(load: float) -> MomentPair:
    """Moment oracle: direct summation of j^k * pmf(j)."""
    top = series_truncation(load)
    js = np.arange(1, top + 1, dtype=float)
    pmf = np.array([downlink_service_pmf(load, int(j)) for j in js])
    return MomentPair(float((js * pmf).sum()), float((js * js * pmf).sum()))


# ---------------------------------------------------------------------------
# downlink service distribution


def test_pmf_zero_load():
    assert downlink_service_pmf(0.0, 1) == 1.0
    assert downlink_service_pmf(0.0, 2) == 0.0
    assert downlink_service_pmf(0.0, 7) == 0.0
    # an unbounded load, the downlink's at rho = 1, leaves no mass on any finite j
    for j in (1, 2, 7, 10**6):
        assert downlink_service_pmf(math.inf, j) == 0.0


def test_pmf_unit_load():
    assert downlink_service_pmf(1.0, 1) == pytest.approx(math.exp(-1), rel=1e-14)
    assert downlink_service_pmf(1.0, 2) == pytest.approx(math.exp(-1), rel=1e-14)


def test_pmf_rejects_bad_j():
    with pytest.raises(ValueError):
        downlink_service_pmf(1.0, 0)
    with pytest.raises(ValueError):
        downlink_service_pmf(1.0, -3)
    with pytest.raises(ValueError, match="dl_load"):
        downlink_service_pmf(-1.0, 1)
    with pytest.raises(ValueError, match="dl_load"):
        downlink_service_moments(-1.0)


@pytest.mark.parametrize("load", LOAD_GRID)
def test_pmf_normalization(load):
    top = series_truncation(load)
    total = sum(downlink_service_pmf(load, j) for j in range(1, top + 1))
    assert total >= 1.0 - 1e-10


@pytest.mark.parametrize("load", LOAD_GRID)
def test_moments_match_series(load):
    got = downlink_service_moments(load)
    want = series_moments(load)
    assert got.m1 == pytest.approx(want.m1, rel=1e-10)
    assert got.m2 == pytest.approx(want.m2, rel=1e-10)


def test_moments_examples():
    assert downlink_service_moments(0.0) == (1.0, 1.0)
    m = downlink_service_moments(54.0)
    assert m.m1 == 55.0
    assert m.m2 == 3079.0
    # the uplink's transmit-block count at the reference load
    m = downlink_service_moments(364.5)
    assert m.m1 == 365.5
    assert m.m2 == 133954.75


# ---------------------------------------------------------------------------
# renewal formula and downlink age


def test_renewal_aoi_examples():
    assert renewal_aoi(MomentPair(1.0, 1.0)) == 2.0
    assert renewal_aoi(MomentPair(55.0, 3079.0)) == pytest.approx(
        55.0 + 0.5 + 3079.0 / 110.0, rel=1e-14)
    for s in (1.0, 2.0, 7.0, 30.0):
        assert renewal_aoi(MomentPair(s, s * s)) == pytest.approx((3 * s + 1) / 2, rel=1e-14)
    with pytest.raises(ValueError):
        renewal_aoi(MomentPair(0.0, 1.0))


def test_avg_downlink_aoi_values():
    assert avg_downlink_aoi(0.0) == pytest.approx(2.0, rel=1e-14)
    assert avg_downlink_aoi(1.0) == pytest.approx(3.75, rel=1e-14)
    assert avg_downlink_aoi(54.0) == pytest.approx(83.49090909090909, rel=1e-12)
    assert math.isinf(avg_downlink_aoi(math.inf))


def test_downlink_identity_on_log_grid():
    # the renewal age of the shifted-Poisson moments, expanded by hand
    for x in np.geomspace(1e-6, 1e4, 100):
        expanded = 1.0 + x + (x * x + 4.0 * x + 2.0) / (2.0 * (1.0 + x))
        assert avg_downlink_aoi(x) == pytest.approx(expanded, rel=1e-12)


def test_avg_downlink_aoi_rejects_a_negative_load():
    with pytest.raises(ValueError, match="dl_load"):
        avg_downlink_aoi(-1.0)


def test_downlink_aoi_increasing_in_load():
    vals = [avg_downlink_aoi(x) for x in np.linspace(0.0, 500.0, 100)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# harvest slots


def test_harvest_slot_pmf_is_poisson():
    eta = 0.5
    mu = 1.0 / eta
    for j in range(0, 20):
        want = mu**j * math.exp(-mu) / math.factorial(j)
        assert harvest_slot_pmf(eta, j) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        harvest_slot_pmf(0.0, 1)
    with pytest.raises(ValueError):
        harvest_slot_pmf(0.5, -1)
    # a subnormal eta overflows 1/eta: every finite count has vanishing mass
    assert [harvest_slot_pmf(5e-324, j) for j in (0, 1, 7)] == [0.0, 0.0, 0.0]


def test_harvest_slot_moments_value():
    m = harvest_slot_moments(0.5)
    assert m.m1 == pytest.approx(2.0 + math.exp(-2.0), rel=1e-14)
    assert m.m2 == pytest.approx(6.0 + math.exp(-2.0), rel=1e-14)


def test_harvest_slot_moments_series_oracle():
    for eta in (0.2, 0.5, 0.9, 1.0, 3.0):
        mu = 1.0 / eta
        top = math.ceil(mu + 12 * math.sqrt(mu + 1)) + 1
        m1 = sum(max(1, j) * harvest_slot_pmf(eta, j) for j in range(top))
        m2 = sum(max(1, j) ** 2 * harvest_slot_pmf(eta, j) for j in range(top))
        got = harvest_slot_moments(eta)
        assert got.m1 == pytest.approx(m1, rel=1e-10)
        assert got.m2 == pytest.approx(m2, rel=1e-10)


def test_harvest_slot_large_eta_limit():
    m = harvest_slot_moments(1e6)
    assert m.m1 == pytest.approx(1.0, abs=1e-5)
    assert m.m2 == pytest.approx(1.0, abs=1e-5)
    # at eta = inf nothing is harvested per block and tau_H is Poisson(0):
    # the pmf is the point mass at 0 whose moments harvest_slot_moments gives
    pmf = [harvest_slot_pmf(math.inf, j) for j in range(4)]
    assert pmf == [1.0, 0.0, 0.0, 0.0]
    limit = harvest_slot_moments(math.inf)
    assert limit.m1 == sum(max(1, j) * p for j, p in enumerate(pmf)) == 1.0
    assert limit.m2 == sum(max(1, j) ** 2 * p for j, p in enumerate(pmf)) == 1.0


@pytest.mark.parametrize("call", [
    lambda: harvest_slot_moments(1e-300),
    lambda: uplink_service_moments(0.1, 1e-300),
    lambda: avg_uplink_aoi(0.1, 1e-300),
    lambda: avg_uplink_aoi(0.1, 1e-300, "literal"),
], ids=["harvest_slot_moments", "uplink_service_moments", "renewal_age", "literal_age"])
def test_harvest_slot_overflow_names_eta(call):
    # 1/eta squared overflows; the message names eta, not an errno tuple
    with pytest.raises(OverflowError, match="eta 1e-300"):
        call()


@pytest.mark.parametrize("call", [
    lambda: downlink_service_pmf(math.nan, 1),
    lambda: downlink_service_pmf(math.nan, 3),
    lambda: harvest_slot_pmf(math.nan, 0),
    lambda: harvest_slot_pmf(math.nan, 2),
    lambda: harvest_slot_moments(math.nan),
], ids=["dl_pmf_1", "dl_pmf_3", "slot_pmf_0", "slot_pmf_2", "slot_moments"])
def test_nan_input_is_rejected(call):
    # nan fails every comparison, so a check written as "x < 0" lets it through
    with pytest.raises(ValueError, match="got nan"):
        call()


def test_harvest_identity_mean_minus_mu_is_zero_prob():
    for eta in (0.25, 0.5, 0.8):
        m = harvest_slot_moments(eta)
        assert m.m1 - 1.0 / eta == pytest.approx(harvest_slot_pmf(eta, 0), rel=1e-12)


# ---------------------------------------------------------------------------
# uplink moments


def test_uplink_service_moments_trivial():
    slot = harvest_slot_moments(0.5)
    got = uplink_service_moments(0.0, 0.5)
    assert got.m1 == pytest.approx(slot.m1, rel=1e-14)
    assert got.m2 == pytest.approx(slot.m2, rel=1e-14)


def test_uplink_service_moments_reference_value():
    got = uplink_service_moments(364.5, 0.5)
    a = 2.0 + math.exp(-2.0)
    assert got.m1 == pytest.approx(365.5 * a, rel=1e-14)
    assert got.m1 == pytest.approx(780.4650460229819, rel=1e-12)
    assert got.m2 >= got.m1**2  # Jensen


def test_uplink_service_moments_monte_carlo_oracle():
    rng = np.random.default_rng(20240202)
    n = 400_000
    ul_load, eta = 20.0, 0.5
    counts = 1 + rng.poisson(ul_load, n)
    # sum of max(1, Poisson(1/eta)) per packet, computed via grouped draws
    slots = np.maximum(1, rng.poisson(1.0 / eta, counts.sum()))
    bounds = np.cumsum(counts)
    sums = np.add.reduceat(slots, np.concatenate(([0], bounds[:-1])))
    want = uplink_service_moments(ul_load, eta)
    se1 = sums.std(ddof=1) / math.sqrt(n)
    assert sums.mean() == pytest.approx(want.m1, abs=4 * se1)
    sq = sums.astype(np.float64) ** 2
    se2 = sq.std(ddof=1) / math.sqrt(n)
    assert sq.mean() == pytest.approx(want.m2, abs=4 * se2)


def test_jensen_on_grid():
    for load in LOAD_GRID:
        for eta in (0.2, 0.5, 1.0):
            m = uplink_service_moments(load, eta)
            assert m.m2 >= m.m1**2


# ---------------------------------------------------------------------------
# uplink age forms


def test_avg_uplink_aoi_reference_values():
    renew = avg_uplink_aoi(364.5, 0.5, "renewal")
    lit = avg_uplink_aoi(364.5, 0.5, "literal")
    assert renew == pytest.approx(1172.6312689808415, rel=1e-12)
    assert lit == pytest.approx(1172.1312689808415, rel=1e-12)
    assert math.isinf(avg_uplink_aoi(math.inf, 0.5))
    with pytest.raises(ValueError):
        avg_uplink_aoi(1.0, 0.5, "bogus")


def test_renewal_minus_literal_is_half_everywhere():
    for load in np.geomspace(1e-3, 1e4, 60):
        for eta in (0.1, 0.3, 0.5, 0.9, 1.0):
            diff = avg_uplink_aoi(load, eta, "renewal") - avg_uplink_aoi(load, eta, "literal")
            assert diff == pytest.approx(0.5, abs=1e-8)


def test_uplink_reduces_to_downlink_form_at_large_eta():
    for load in (0.5, 5.0, 54.0, 364.5):
        got = avg_uplink_aoi(load, 1e9, "renewal")
        assert got == pytest.approx(avg_downlink_aoi(load), rel=1e-6)


def test_uplink_trivial_limit():
    assert avg_uplink_aoi(0.0, 1e9) == pytest.approx(2.0, abs=1e-6)


def test_uplink_aoi_decreasing_in_rho():
    y = REF.channel_rate * REF.theta * REF.distance**REF.pathloss_exp
    vals = [avg_uplink_aoi(y / rho, REF.harvest_eff) for rho in np.linspace(0.05, 0.99, 40)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# weighted sum, rates, time-splitting map


def test_weighted_sum_edges_are_exact():
    br0 = weighted_sum_aoi(REF, 0.5, 0.0)
    assert br0.weighted == br0.downlink
    br1 = weighted_sum_aoi(REF, 0.5, 1.0)
    assert br1.weighted == br1.uplink
    assert br0.downlink >= 2.0 and br0.uplink >= 2.0


def test_weighted_sum_reference_point():
    br = weighted_sum_aoi(REF, 0.5, 0.5)
    assert br.weighted == pytest.approx((83.49090909090909 + 1172.6312689808415) / 2, rel=1e-12)


def test_weighted_sum_affine_in_w():
    rho = 0.4
    f0 = weighted_sum_aoi(REF, rho, 0.2).weighted
    f1 = weighted_sum_aoi(REF, rho, 0.5).weighted
    f2 = weighted_sum_aoi(REF, rho, 0.8).weighted
    assert f2 - f1 == pytest.approx(f1 - f0, rel=1e-12)


def test_weighted_sum_unbounded_cases():
    assert math.isinf(weighted_sum_aoi(REF, 1.0, 0.5).weighted)
    assert math.isinf(weighted_sum_aoi(REF, 0.0, 0.5).weighted)
    assert math.isinf(weighted_sum_aoi(REF, 1.0, 0.0).weighted)   # downlink starved
    assert math.isfinite(weighted_sum_aoi(REF, 0.0, 0.0).weighted)
    assert math.isfinite(weighted_sum_aoi(REF, 1.0, 1.0).weighted)


def test_data_rates_reference():
    dl, ul = data_rates(REF, 0.5)
    assert dl == pytest.approx(1.0 / 55.0, rel=1e-12)
    assert ul == pytest.approx(1.0 / 780.4650460229819, rel=1e-12)


def test_data_rates_trivial_and_boundary():
    dl, _ = data_rates(SystemParams(packet_nats=0.0), 0.5)
    assert dl == 1.0
    dl, ul = data_rates(REF, 0.0)
    assert ul == 0.0 and dl > 0
    dl, ul = data_rates(REF, 1.0)
    assert dl == 0.0 and ul > 0


def test_ts_equivalent_rho():
    assert ts_equivalent_rho(0.0, 27.0) == 1.0
    assert ts_equivalent_rho(1.0 / 28.0, 27.0) == pytest.approx(0.0, abs=1e-15)
    assert ts_equivalent_rho(0.01, 27.0) == pytest.approx(0.72, rel=1e-12)
    with pytest.raises(ValueError, match="stable region"):
        ts_equivalent_rho(0.05, 27.0)
    with pytest.raises(ValueError):
        ts_equivalent_rho(-0.01, 27.0)
