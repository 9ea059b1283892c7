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
        for name in ("total_power", "channel_rate", "distance", "pathloss_exp", "bandwidth",
                     "noise_density", "block_len"):
            value = getattr(self, name)
            _check(name, value, 0.0 < value < math.inf, "a positive finite number")
        _check("packet_nats", self.packet_nats, 0.0 <= self.packet_nats < math.inf, "in [0, inf)")
        _check("harvest_eff", self.harvest_eff, 0.0 < self.harvest_eff <= 1.0, "in (0, 1]")
        _check_split(self.split_ratio, "split_ratio")
        _check_weight(self.weight_uplink, "weight_uplink")

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

    @cached_property
    def _y(self) -> float:
        """The uplink load at rho = 1, lambda * theta * d**alpha, evaluated once."""
        return self.channel_rate * self.theta * self._d_alpha


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


def _check(name: str, x, inside, rule: str) -> None:
    """Raise ValueError "<name> must be <rule>" unless ``inside`` holds for ``x``,
    a float or an array, naming its first value outside. ``inside`` is written so
    that nan fails it (``x > 0``, not ``not x <= 0``). A quantity that several
    functions take has its rule stated once, in the check named after it.
    """
    if not (inside.all() if isinstance(inside, np.ndarray) else inside):
        raise ValueError(f"{name} must be {rule}, got "
                         f"{np.asarray(x)[~np.asarray(inside)][0].item()!r}")


def _check_weight(w, name: str = "w") -> None:
    _check(name, w, (0.0 <= w) & (w <= 1.0), "in [0, 1]")


def _check_split(rho, name: str = "rho", interior: bool = False) -> None:
    # an edge's unbounded load is inf in a closed form; the solver and a
    # simulated power split need power in both directions
    inside = (0.0 < rho) & (rho < 1.0) if interior else (0.0 <= rho) & (rho <= 1.0)
    _check(name, rho, inside, "in (0, 1)" if interior else "in [0, 1]")


def _check_count(name: str, n, low: int) -> None:
    # a count or a seed is a Python or numpy integer: a float would be truncated downstream
    _check(name, n, isinstance(n, (int, np.integer)) and n >= low, f"an integer >= {low}")


def _check_snr_mode(mode: str, name: str = "mode") -> None:
    _check(name, mode, mode in SNR_MODES, f"one of {SNR_MODES}")


def _unbounded(where, value):
    # value, and inf where ``where`` holds: elementwise on an array, a float otherwise
    if isinstance(value, np.ndarray):
        return np.where(where, np.inf, value)
    return math.inf if where else float(value)


def split_loads(theta: float, y: float, rho):
    """(dl_load, ul_load) = (theta / (1 - rho), y / rho), with y = lambda theta d**alpha.

    The rho-dependent half of :func:`derive_constants`, for callers that keep
    theta and y across many ratios. ``rho`` is a float or a numpy array.
    """
    rho = rho if isinstance(rho, np.ndarray) else np.float64(rho)
    with np.errstate(all="ignore"):
        _check_split(rho)
        return _unbounded(rho == 1.0, theta / (1.0 - rho)), _unbounded(rho == 0.0, y / rho)


def derive_constants(params: SystemParams, rho: float) -> DerivedLoads:
    """Compute the dimensionless loads for a given power-splitting ratio."""
    return DerivedLoads(params.theta, *split_loads(params.theta, params._y, rho))


def _gains(gain, out):
    """``gain`` as a checked float array, and the array its result goes to.

    ``out``, when given, takes the result in place; it may be ``gain`` itself.
    """
    gain = np.asarray(gain, dtype=float)
    _check("gain", gain, gain >= 0, ">= 0")
    return gain, np.empty_like(gain) if out is None else out


def _per_block_nats(params: SystemParams, power: float, gain, mode: str, out=None):
    """Nats one block carries at transmit ``power`` over a link of power gain ``gain``.

    ``exact`` evaluates the log capacity expression; ``linear`` is its
    low-SNR first-order form (always an upper bound). Accepts scalars or
    numpy arrays of gains; ``out`` is as in :func:`_gains`.
    """
    _check_snr_mode(mode)
    gain, out = _gains(gain, out)
    scale = power / (params._d_alpha * params.noise_density)
    if mode == "linear":
        np.multiply(params.block_len * scale, gain, out=out)
    else:
        # block_len * bandwidth * log1p(scale * gain / bandwidth), one step at a time
        np.multiply(scale, gain, out=out)
        np.divide(out, params.bandwidth, out=out)
        np.log1p(out, out=out)
        np.multiply(params.block_len * params.bandwidth, out, out=out)
    return out if out.ndim else float(out)


def per_block_downlink_nats(params: SystemParams, rho: float, gain, mode: str = "linear",
                            out=None):
    """Nats deliverable over the downlink in one block with power gain ``gain``."""
    return _per_block_nats(params, (1.0 - rho) * params.total_power, gain, mode, out)


def per_block_uplink_nats(params: SystemParams, rho: float, gain, mode: str = "linear",
                          out=None):
    """Nats deliverable over the uplink in one transmit block.

    The device transmit power equals the mean received power of the energy
    transfer, rho * P_t / (lambda * d**alpha), and the signal crosses the
    path loss once more on the way back.
    """
    p_u = rho * params.total_power / (params.channel_rate * params._d_alpha)
    return _per_block_nats(params, p_u, gain, mode, out)


def harvested_energy(params: SystemParams, rho: float, gain, out=None):
    """Joules banked by the device in one block with power gain ``gain``.

    ``out`` is as in :func:`_gains`.
    """
    gain, out = _gains(gain, out)
    np.multiply(params.harvest_eff * rho * params.total_power * params.block_len, gain, out=out)
    np.divide(out, params._d_alpha, out=out)
    return out if out.ndim else float(out)


def uplink_energy_threshold(params: SystemParams, rho: float) -> float:
    """Energy the device must bank per uplink transmit block: P_u * T_B.

    Multiplied out rather than taken as the uplink's P_u times T_B: that
    rounding order shifts the printed banked-energy digits.
    """
    return rho * params.total_power * params.block_len / (params.channel_rate * params._d_alpha)
