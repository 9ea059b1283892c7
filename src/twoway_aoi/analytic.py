"""Closed-form service-time distributions, moments, and average ages.

Downlink service is a shifted Poisson: a packet needs 1 + Poisson(load)
blocks, where the load is packet length over mean per-block nats. The
uplink service compounds the same count distribution with the number of
blocks needed to bank enough energy per transmit block. Average ages
follow the zero-wait renewal form  E(S) + 1/2 + E(S^2) / (2 E(S))  in
discrete blocks.

:class:`ClosedForms` holds what one parameter set fixes (theta, y =
lambda theta d^alpha, c = y / theta and the harvest-slot moments) and
evaluates the rest per split ratio; the functions that take ``params`` build
one per call, so both routes run the same float operations. Loads and
ratios may be floats or numpy arrays; an overflow gives inf, not a warning,
except in the harvest-slot moments, which raise OverflowError.

Two uplink forms are exposed. ``renewal`` composes the compound moments
with the renewal formula and is the default; ``literal`` reproduces the
published closed expression, which is lower by exactly 1/2 (a constant
absorbed incorrectly during its simplification) wherever the renewal
second moment is finite; where it overflows, only the renewal age is inf.
The simulator decides empirically which one the sample paths follow; see
the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import SystemParams, _check, _check_weight, _unbounded, split_loads
from .model import derive_constants  # noqa: F401  (bound for bench/tracing.py only)

__all__ = [
    "MomentPair",
    "AoiBreakdown",
    "ClosedForms",
    "downlink_service_pmf",
    "downlink_service_moments",
    "renewal_aoi",
    "avg_downlink_aoi",
    "harvest_slot_pmf",
    "harvest_slot_moments",
    "uplink_service_moments",
    "avg_uplink_aoi",
    "weighted_sum",
    "weighted_sum_aoi",
    "data_rates",
    "ts_equivalent_rho",
]

UPLINK_FORMS = ("renewal", "literal")


class MomentPair(NamedTuple):
    """First and second raw moments of a service-time distribution, in blocks."""

    m1: float
    m2: float


@dataclass(frozen=True)
class AoiBreakdown:
    """Average ages of both directions and their weighted sum, in blocks."""

    downlink: float
    uplink: float
    weighted: float
    rho: float
    w: float


def _shifted_poisson_log_pmf(load: float, j: int) -> float:
    # log of Pr{S = j} for S = 1 + Poisson(load); load > 0, j >= 1
    return (j - 1) * math.log(load) - load - math.lgamma(j)


def _check_load(dl_load) -> None:
    _check("dl_load", dl_load, dl_load >= 0, ">= 0")


def downlink_service_pmf(dl_load: float, j: int) -> float:
    """Pr{downlink service = j blocks}; shifted Poisson with mean 1 + load.

    Evaluated in log space so that large loads (hundreds of blocks) do not
    overflow the factorial.
    """
    _check("j", j, j >= 1 and int(j) == j, "a positive integer")
    _check_load(dl_load)
    if dl_load == 0.0:
        return 1.0 if j == 1 else 0.0
    if dl_load == math.inf:
        return 0.0
    return math.exp(_shifted_poisson_log_pmf(dl_load, int(j)))


@np.errstate(all="ignore")
def downlink_service_moments(dl_load) -> MomentPair:
    """Moments of the shifted-Poisson block count: (1 + x, x^2 + 3x + 1)."""
    _check_load(dl_load)
    x = dl_load
    return MomentPair(1.0 + x, x * x + 3.0 * x + 1.0)


@np.errstate(all="ignore")
def renewal_aoi(moments: MomentPair):
    """Average age of a zero-wait renewal system: m1 + 1/2 + m2/(2 m1)."""
    m1, m2 = moments
    _check("first moment", m1, m1 > 0, "positive")
    return _unbounded((abs(m1) == math.inf) | (abs(m2) == math.inf), m1 + 0.5 + m2 / (2.0 * m1))


def avg_downlink_aoi(dl_load):
    """Average downlink age in blocks; infinite when the load is unbounded."""
    return renewal_aoi(downlink_service_moments(dl_load))


def _check_eta(eta: float) -> None:
    _check("eta", eta, eta > 0, "> 0")


def harvest_slot_pmf(eta: float, j: int) -> float:
    """Pr{tau_H = j}: Poisson(1/eta) count of blocks to bank one threshold.

    ``tau_H`` can be zero when leftover energy already covers the next
    transmit block; the effective per-transmission time is max(1, tau_H).
    Values eta > 1 are accepted for limit checks.
    """
    _check_eta(eta)
    _check("j", j, j >= 0 and int(j) == j, "a nonnegative integer")
    # tau_H + 1 is shifted Poisson with load 1/eta, whose pmf takes the limits at loads 0 and inf
    return downlink_service_pmf(1.0 / eta, j + 1)


def harvest_slot_moments(eta: float) -> MomentPair:
    """Moments of s = max(1, tau_H): (1/eta + e^(-1/eta), 1/eta^2 + 1/eta + e^(-1/eta))."""
    _check_eta(eta)
    mu = 1.0 / float(eta)   # a Python float, so a float load gives float moments
    tail = math.exp(-mu)
    m2 = mu * mu + mu + tail
    if math.isinf(m2):
        raise OverflowError(f"harvest-slot moment overflows at eta {eta!r}")
    return MomentPair(mu + tail, m2)


@np.errstate(all="ignore")
def _compound_moments(ul_load, slot: MomentPair) -> MomentPair:
    # the per-load part of uplink_service_moments; ``slot`` is the per-eta part
    count = downlink_service_moments(ul_load)
    m1 = count.m1 * slot.m1
    m2 = count.m1 * slot.m2 + (count.m2 - count.m1) * slot.m1 ** 2
    return MomentPair(m1, _unbounded(abs(ul_load) == math.inf, m2))   # m1 is inf there too


def uplink_service_moments(ul_load, eta: float) -> MomentPair:
    """Moments of the compound uplink service S_U = sum of S harvest slots.

    The count S of transmit blocks per packet is the downlink's shifted
    Poisson with the uplink load. E(S_U) = E(S) E(s);
    E(S_U^2) = E(S) E(s^2) + E(S^2 - S) E(s)^2.
    """
    return _compound_moments(ul_load, harvest_slot_moments(eta))


@np.errstate(all="ignore")
def avg_uplink_aoi(ul_load, eta: float, form: str = "renewal"):
    """Average uplink age in blocks.

    ``renewal`` (default) composes the compound service moments with the
    renewal formula. ``literal`` evaluates the published closed expression,
    which equals the renewal value minus exactly 1/2 wherever the renewal
    second moment is finite (at 1e300-nat packets it overflows: renewal
    inf, literal 1.17e301).
    """
    _check("form", form, form in UPLINK_FORMS, f"one of {UPLINK_FORMS}")
    if form == "renewal":
        return renewal_aoi(uplink_service_moments(ul_load, eta))
    count_mean = 1.0 + ul_load
    a = harvest_slot_moments(eta).m1   # validates eta
    return (1.5 * count_mean * a
            + 0.5
            + 0.5 / (eta + eta * eta * math.exp(-1.0 / eta))
            - 0.5 * a / count_mean)


def weighted_sum(w, downlink, uplink):
    """The objective's rule (1 - w) * downlink + w * uplink, for ages or rates.

    At w exactly 0 or 1 the other side is left out rather than multiplied
    by zero, so a starved side's infinite age does not turn it into nan.
    Works elementwise on numpy arrays.
    """
    _check_weight(w)
    with np.errstate(all="ignore"):
        out = np.where(w == 0.0, downlink,
                       np.where(w == 1.0, uplink, (1.0 - w) * downlink + w * uplink))
    return out if out.ndim else float(out)


class ClosedForms:
    """The closed forms of one parameter set as functions of the split ratio.

    theta and y = lambda theta d^alpha, which the parameters cache, c = y / theta
    and the harvest-slot moments of eta are taken once, on construction; each method evaluates
    only the rho-dependent arithmetic, on a float or elementwise on a numpy
    array. Ages use the renewal uplink form.
    """

    def __init__(self, params: SystemParams):
        self.theta, self.y = params.theta, params._y
        # lambda d^alpha as the ratio of the rounded loads, so that a theta-free
        # form keeps the gradient's root where y is subnormal (0 if theta is 0)
        self.c = self.y / self.theta if self.theta else 0.0
        self.slot = harvest_slot_moments(params.harvest_eff)

    def loads(self, rho: float) -> tuple[float, float]:
        """(dl_load, ul_load) at split ``rho``; infinite at a boundary ratio."""
        return split_loads(self.theta, self.y, rho)

    def ages(self, rho: float) -> tuple[float, float]:
        """Average (downlink, uplink) ages in blocks at split ``rho``."""
        dl_load, ul_load = self.loads(rho)
        return avg_downlink_aoi(dl_load), renewal_aoi(_compound_moments(ul_load, self.slot))

    def rates(self, rho: float) -> tuple[float, float]:
        """Long-run (downlink, uplink) throughput in packets per block at split ``rho``."""
        dl_load, ul_load = self.loads(rho)
        return (1.0 / downlink_service_moments(dl_load).m1,
                1.0 / _compound_moments(ul_load, self.slot).m1)


def weighted_sum_aoi(params: SystemParams, rho: float, w: float) -> AoiBreakdown:
    """Weighted-sum average age of both directions at a given split.

    Unbounded loads propagate: the result is infinite when rho = 1 with
    w < 1, or rho = 0 with w > 0.
    """
    dl, ul = ClosedForms(params).ages(rho)
    return AoiBreakdown(downlink=dl, uplink=ul, weighted=weighted_sum(w, dl, ul), rho=rho, w=w)


def data_rates(params: SystemParams, rho: float) -> tuple[float, float]:
    """Long-run (downlink, uplink) throughput in packets per block.

    Under zero wait the rate is the reciprocal mean service time; a starved
    side (rho at the boundary) has rate zero.
    """
    return ClosedForms(params).rates(rho)


def ts_equivalent_rho(p: float, theta: float) -> float:
    """Energy-transfer block fraction of the time-splitting scheme, 1 - p(1 + theta).

    ``p`` is the per-block packet generation probability of the access
    point; it must lie in the stability region [0, 1/(1 + theta)].
    """
    _check("theta", theta, theta >= 0, ">= 0")
    return _check_gen_prob(p, theta)


def _check_gen_prob(p: float, theta: float = 0.0, interior: bool = False) -> float:
    # rho_ts for a p in the stable region; a time-split run needs its interior,
    # where packets arrive and rho_ts > 0, not rounded to 0. theta = 0, the
    # widest region, is for a check that knows no parameters
    rho_ts = 1.0 - p * (1.0 + theta)
    inside = (0.0 < p and rho_ts > 0.0) if interior else (0.0 <= p and rho_ts >= 0.0)
    op = "<" if interior else "<="
    _check("gen_prob", p, inside, f"in the stable region 0 {op} p {op} 1/(1+theta) = "
           f"{1.0 / (1.0 + theta):.6g}, where the downlink queue saturates")
    return rho_ts
