"""System parameters and per-block physical primitives.

The link consists of an access point with a fixed power budget and a
battery-less device. The access point splits its transmit power between
downlink information (fraction 1 - rho) and wireless energy transfer
(fraction rho); the device banks the harvested energy and spends it on
uplink transmission, one fixed-power block at a time.

All quantities are SI (watts, hertz, seconds, meters, nats). No unit
conversion happens inside any function here.

Note on the noise density default used throughout the test suite and CLI:
the reference operating point gives N0 = 4e-7 without an explicit unit;
we take it as W/Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SystemParams",
    "DerivedLoads",
    "derive_constants",
    "split_loads",
    "per_block_downlink_nats",
    "per_block_uplink_nats",
    "harvested_energy",
    "uplink_energy_threshold",
]

SNR_MODES = ("exact", "linear")


@dataclass(frozen=True)
class SystemParams:
    """Physical and system constants of the two-way link.

    Defaults are the reference operating point used by the CLI and the
    demo scripts: 1 MHz bandwidth, 10 mW access point, 100-nat packets,
    1 ms blocks, Rayleigh gain parameter 3, 50% harvester efficiency.
    ``split_ratio`` and ``weight_uplink`` are independent knobs; every
    operation that takes an explicit rho or w overrides the stored one.
    """

    total_power: float = 0.01        # P_t, watts
    split_ratio: float = 0.5         # rho, power fraction for energy transfer
    channel_rate: float = 3.0        # lambda, Exp parameter of the power gain
    distance: float = 1.5            # d, meters
    pathloss_exp: float = 2.0        # alpha
    bandwidth: float = 1e6           # W, hertz
    noise_density: float = 4e-7      # N0, W/Hz
    block_len: float = 1e-3          # T_B, seconds
    packet_nats: float = 100.0       # l, nats per packet
    harvest_eff: float = 0.5         # eta in (0, 1]
    weight_uplink: float = 0.5       # w, weight of the uplink age

    def __post_init__(self):
        positive = [
            ("total_power", self.total_power),
            ("channel_rate", self.channel_rate),
            ("distance", self.distance),
            ("pathloss_exp", self.pathloss_exp),
            ("bandwidth", self.bandwidth),
            ("noise_density", self.noise_density),
            ("block_len", self.block_len),
        ]
        for name, value in positive:
            if not (value > 0.0) or not math.isfinite(value):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        if not (self.packet_nats >= 0.0) or not math.isfinite(self.packet_nats):
            raise ValueError(f"packet_nats must be >= 0, got {self.packet_nats!r}")
        if not (0.0 < self.harvest_eff <= 1.0):
            raise ValueError(f"harvest_eff must be in (0, 1], got {self.harvest_eff!r}")
        if not (0.0 <= self.split_ratio <= 1.0):
            raise ValueError(f"split_ratio must be in [0, 1], got {self.split_ratio!r}")
        if not (0.0 <= self.weight_uplink <= 1.0):
            raise ValueError(f"weight_uplink must be in [0, 1], got {self.weight_uplink!r}")

    @cached_property
    def _d_alpha(self) -> float:
        """Path loss d**alpha, evaluated once per parameter set."""
        try:
            return self.distance ** self.pathloss_exp
        except OverflowError:
            raise OverflowError(f"d**alpha overflows at distance {self.distance!r}") from None

    @cached_property
    def theta(self) -> float:
        """Dimensionless base load: lambda * l * N0 * d**alpha / (P_t * T_B), evaluated once."""
        return (
            self.channel_rate
            * self.packet_nats
            * self.noise_density
            * self._d_alpha
            / (self.total_power * self.block_len)
        )


@dataclass(frozen=True)
class DerivedLoads:
    """Dimensionless quantities derived from the parameters and a split ratio.

    ``dl_load`` and ``ul_load`` are the mean numbers of blocks beyond the
    first needed to push one packet through the respective channel.
    Boundary ratios yield ``inf`` rather than an error: an unbounded load
    is a legitimate value downstream (the corresponding age diverges).
    """

    theta: float
    dl_load: float          # theta / (1 - rho); inf at rho = 1
    ul_load: float          # lambda * theta * d**alpha / rho; inf at rho = 0


def _all(flags) -> bool:
    return bool(flags.all()) if isinstance(flags, np.ndarray) else bool(flags)


def _unbounded(where, value):
    # value, and inf where ``where`` holds: elementwise on an array, a float otherwise
    if isinstance(value, np.ndarray):
        return np.where(where, np.inf, value)
    return math.inf if where else float(value)


@np.errstate(all="ignore")
def split_loads(theta: float, y: float, rho):
    """(dl_load, ul_load) = (theta / (1 - rho), y / rho), with y = lambda theta d**alpha.

    The rho-dependent half of :func:`derive_constants`, for callers that keep
    theta and y across many ratios. ``rho`` is a float or a numpy array.
    """
    rho = rho if isinstance(rho, np.ndarray) else np.float64(rho)
    inside = (0.0 <= rho) & (rho <= 1.0)
    if not _all(inside):
        raise ValueError(f"rho must be in [0, 1], got {rho[~inside][0].item()!r}")
    return _unbounded(rho == 1.0, theta / (1.0 - rho)), _unbounded(rho == 0.0, y / rho)


def derive_constants(params: SystemParams, rho: float) -> DerivedLoads:
    """Compute the dimensionless loads for a given power-splitting ratio."""
    theta = params.theta
    y = params.channel_rate * theta * params._d_alpha
    dl_load, ul_load = split_loads(theta, y, rho)
    return DerivedLoads(theta=theta, dl_load=dl_load, ul_load=ul_load)


def _per_block_nats(params: SystemParams, power: float, gain, mode: str):
    """Nats one block carries at transmit ``power`` over a link of power gain ``gain``.

    ``exact`` evaluates the log capacity expression; ``linear`` is its
    low-SNR first-order form (always an upper bound). Accepts scalars or
    numpy arrays of gains.
    """
    if mode not in SNR_MODES:
        raise ValueError(f"mode must be one of {SNR_MODES}, got {mode!r}")
    gain = np.asarray(gain, dtype=float)
    if np.any(gain < 0):
        raise ValueError("gain must be >= 0")
    scale = power / (params._d_alpha * params.noise_density)
    if mode == "linear":
        out = params.block_len * scale * gain
    else:
        out = params.block_len * params.bandwidth * np.log1p(
            scale * gain / params.bandwidth)
    return out if out.ndim else float(out)


def per_block_downlink_nats(params: SystemParams, rho: float, gain, mode: str = "linear"):
    """Nats deliverable over the downlink in one block with power gain ``gain``."""
    return _per_block_nats(params, (1.0 - rho) * params.total_power, gain, mode)


def per_block_uplink_nats(params: SystemParams, rho: float, gain, mode: str = "linear"):
    """Nats deliverable over the uplink in one transmit block.

    The device transmit power equals the mean received power of the energy
    transfer, rho * P_t / (lambda * d**alpha), and the signal crosses the
    path loss once more on the way back.
    """
    p_u = rho * params.total_power / (params.channel_rate * params._d_alpha)
    return _per_block_nats(params, p_u, gain, mode)


def harvested_energy(params: SystemParams, rho: float, gain):
    """Joules banked by the device in one block with power gain ``gain``."""
    gain = np.asarray(gain, dtype=float)
    if np.any(gain < 0):
        raise ValueError("gain must be >= 0")
    out = (params.harvest_eff * rho * params.total_power * params.block_len
           * gain / params._d_alpha)
    return out if out.ndim else float(out)


def uplink_energy_threshold(params: SystemParams, rho: float) -> float:
    """Energy the device must bank per uplink transmit block: P_u * T_B.

    Multiplied out rather than taken as the uplink's P_u times T_B: that
    rounding order shifts the printed banked-energy digits.
    """
    return rho * params.total_power * params.block_len / (params.channel_rate * params._d_alpha)
