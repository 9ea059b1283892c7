"""Block-level Monte Carlo engine for both exchange schemes.

One run draws per-block Rayleigh power gains, pushes packets through the
downlink and the energy-constrained uplink, and reports time-averaged
ages, rates, and service/harvest histograms. The engine is the empirical
oracle for every closed form in :mod:`twoway_aoi.analytic`.

Discrete-time age convention (the one that reproduces the renewal formula
E(S) + 1/2 + E(S^2)/(2 E(S)) exactly): a packet completing in the block
that ends at epoch c is registered at the receiver at epoch c + 1, where
the age resets to (c + 1) - generation_epoch; between resets the age grows
by one per epoch. With one-block deterministic service the sampled age is
the constant 2.

Uplink energy accounting: the device banks the energy harvested in every
block (transmit blocks included) and needs a fixed threshold per transmit
block. Transmit times are spaced by max(1, W_k) blocks, where W_k counts
the blocks between consecutive threshold crossings of the cumulative
harvested energy. Anchoring the count on the crossing rather than on the
instantaneous buffer level is what makes the harvest-slot counts exactly
independent Poisson(1/eta) draws; the buffer never goes negative under
this rule (checked every run).

Each replication streams its horizon in chunks of ``_CHUNK_BLOCKS``
blocks. Every random stream is drawn chunk by chunk, and the running sums,
packet anchors, threshold crossings, FCFS queue and age paths carry across
chunk boundaries, so the report does not depend on the chunk size and a
replication's memory does not grow with the horizon. The exception is the
transmit backlog, about one byte per block not yet stretched to its
transmissions (see ``_transmit_schedule``).

Replications are seeded independently from (seed, replication, stream
tag) and aggregated in index order, so a report is a pure function of its
SimConfig. Several replications run in parallel worker processes, one per
CPU in the process's affinity mask; the report is the same byte for byte.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .analytic import ts_equivalent_rho, weighted_sum
from .model import (
    SNR_MODES,
    SystemParams,
    harvested_energy,
    per_block_downlink_nats,
    per_block_uplink_nats,
    uplink_energy_threshold,
)

__all__ = [
    "STREAM_TAGS",
    "SimConfig",
    "SimReport",
    "ReplicationStats",
    "make_stream",
    "sample_gain",
    "run_power_splitting",
    "run_time_splitting",
    "aoi_from_path",
    "aoi_via_qk",
]

SCHEMES = ("power_split", "time_split")

# independent substreams per replication
STREAM_TAGS = {"dl_gain": 0, "ul_gain": 1, "harvest_gain": 2, "packet_gen": 3}


def make_stream(seed: int, replication: int, tag: str) -> np.random.Generator:
    """Deterministic generator for one (seed, replication, subsystem) triple."""
    if tag not in STREAM_TAGS:
        raise ValueError(f"unknown stream tag {tag!r}, expected one of {sorted(STREAM_TAGS)}")
    entropy = (int(seed), int(replication), STREAM_TAGS[tag])
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def sample_gain(stream: np.random.Generator, lam: float, size=None):
    """Draw Rayleigh power gains gamma = -ln(U)/lam, U uniform in (0, 1]."""
    if lam <= 0:
        raise ValueError(f"lam must be > 0, got {lam!r}")
    u = stream.random(size)
    gamma = -np.log1p(-u) / lam   # 1 - random() lies in (0, 1]
    return gamma if size is not None else float(gamma)


@dataclass(frozen=True)
class SimConfig:
    """One simulation request.

    ``warmup_blocks=None`` discards the default 1% of the horizon before
    any statistic is collected (the uplink buffer starts empty). The
    optional ``trace_path`` writes a per-epoch CSV for replication 0 only,
    meant for debugging at small horizons.
    """

    num_blocks: int
    seed: int = 0
    warmup_blocks: int | None = None
    snr_mode: str = "linear"
    replications: int = 1
    scheme: str = "power_split"
    gen_prob: float | None = None
    trace_path: str | None = None

    def __post_init__(self):
        if self.num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {self.num_blocks!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications!r}")
        if self.snr_mode not in SNR_MODES:
            raise ValueError(f"snr_mode must be one of {SNR_MODES}, got {self.snr_mode!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        w = self.resolved_warmup()
        if not (0 <= w < self.num_blocks):
            raise ValueError(
                f"warmup_blocks must satisfy 0 <= warmup < num_blocks, got {w!r}")
        if self.scheme == "time_split" and self.gen_prob is None:
            raise ValueError("gen_prob is required when scheme = 'time_split'")
        if self.scheme == "power_split" and self.gen_prob is not None:
            raise ValueError("gen_prob is only meaningful when scheme = 'time_split'")
        if self.gen_prob is not None and not (0.0 < self.gen_prob < 1.0):
            raise ValueError(f"gen_prob must be in (0, 1), got {self.gen_prob!r}")

    def resolved_warmup(self) -> int:
        return self.num_blocks // 100 if self.warmup_blocks is None else self.warmup_blocks


@dataclass(frozen=True)
class ReplicationStats:
    """Per-replication summary used for cross-replication standard errors."""

    mean_dl_aoi: float
    mean_ul_aoi: float
    dl_rate: float
    ul_rate: float
    dl_packets: int
    ul_packets: int
    final_buffer_joules: float
    energy_block_fraction: float


@dataclass(frozen=True)
class SimReport:
    """Aggregated empirical statistics of one simulation run."""

    mean_dl_aoi: float
    mean_ul_aoi: float
    weighted_aoi: float
    dl_rate: float
    ul_rate: float
    dl_service_hist: dict[int, int]
    ul_service_hist: dict[int, int]
    harvest_slot_hist: dict[int, int]
    std_error_dl_aoi: float
    std_error_ul_aoi: float
    blocks_simulated: int
    energy_block_fraction: float
    per_replication: tuple[ReplicationStats, ...] = field(repr=False)


# ---------------------------------------------------------------------------
# path machinery


def _walk_packets(cum_nats: np.ndarray, packet_nats: float, *, anchor: float = 0.0) -> np.ndarray:
    """Zero-wait packet completions over per-slot nats.

    Returns the 0-based slot indices at which successive packets finish.
    Each packet starts at the slot after its predecessor's completion with
    a fresh accumulator (residual capacity in the completing slot is
    discarded), which is what makes the slot counts shifted-Poisson.
    ``anchor`` is the cumulative nats at the latest completion before
    ``cum_nats[0]``, for a path walked in pieces.
    """
    # bisect over a memoryview compares Python floats, which round like
    # searchsorted(side="left") on the float64 array at a fraction of the
    # per-call cost; lo=j+1 skips completed slots (cum_nats is nondecreasing)
    view = memoryview(cum_nats)
    n = len(view)
    completions = []
    j = bisect_left(view, anchor + packet_nats)
    while j < n:
        completions.append(j)
        j = bisect_left(view, view[j] + packet_nats, j + 1)
    return np.asarray(completions, dtype=np.int64)


class _Walk:
    """The packet walk over a stream of per-slot nats that arrives in pieces.

    Cumulative nats carry across pieces as one sequential sum, so the
    completions equal those of one walk over the whole stream.
    """

    def __init__(self, packet_nats: float):
        self.packet_nats = packet_nats
        self.total = 0.0    # cumulative nats through the last slot fed
        self.anchor = 0.0   # cumulative nats at the latest completion
        self.fed = 0        # slots fed so far
        self.last = 0       # block of the latest completion; the first packet is generated at 0

    def completions(self, nats, blocks=None):
        """Walk the next slots' nats: (completion blocks, services in blocks).

        ``blocks`` numbers this call's slots; by default stream slot i is block i + 1.
        """
        # cumsum over [carry, chunk] rounds like one long cumsum; carry + cumsum(chunk) does not
        cum = np.cumsum(np.concatenate(([self.total], nats)))[1:]
        done = _walk_packets(cum, self.packet_nats, anchor=self.anchor)
        at = done + (self.fed + 1) if blocks is None else blocks[done]
        services = np.diff(at, prepend=self.last)
        if len(done):
            self.anchor = float(cum[done[-1]])
            self.last = int(at[-1])
        if len(cum):
            self.total = float(cum[-1])
        self.fed += len(cum)
        return at, services


def _resets(reset_epochs, reset_values, horizon: int, last):
    """Reset epochs and ages through ``horizon``, led by the earlier reset ``last``."""
    d = np.asarray(np.concatenate(([last[0]], reset_epochs)), dtype=np.int64)
    v = np.asarray(np.concatenate(([last[1]], reset_values)), dtype=np.int64)
    keep = d <= horizon
    return d[keep], v[keep]


def _age_sum(reset_epochs, reset_values, warmup: int, horizon: int,
             last=(0, 0)) -> int:
    """Exact integer sum of the age path over epochs warmup+1 .. horizon.

    The age grows by one per epoch; at reset epoch d_k it drops to v_k and
    resumes growing. ``last`` is the latest (epoch, age) reset at or before
    epoch warmup+1; the default (0, 0) is a path that starts at age 0.
    """
    d, v = _resets(reset_epochs, reset_values, horizon, last)
    # one arithmetic series per segment between consecutive resets
    seg_hi = np.append(d[1:] - 1, horizon)
    lo = np.maximum(d, warmup + 1)
    m = seg_hi >= lo
    cnt = (seg_hi - lo + 1)[m]
    first = (v + (lo - d))[m]
    return int((cnt * first).sum() + (cnt * (cnt - 1) // 2).sum())


def _age_path(reset_epochs, reset_values, horizon: int, start: int = 0,
              last=(0, 0)) -> np.ndarray:
    """Materialized age at epochs start+1..horizon (trace/debug use only).

    ``last`` is as in :func:`_age_sum`, at or before epoch start+1.
    """
    epochs = np.arange(start + 1, horizon + 1, dtype=np.int64)
    d, v = _resets(reset_epochs, reset_values, horizon, last)
    # offset from the most recent reset
    idx = np.searchsorted(d, epochs, side="right") - 1
    return v[idx] + (epochs - d[idx])


def aoi_from_path(deliveries) -> float:
    """Average age of a zero-wait delivery path, summed epoch by epoch.

    ``deliveries`` is a sorted sequence of (delivery_epoch, service_time)
    with integer epochs and services >= 1; the average runs over the span
    between the first and last delivery.
    """
    d, s = _check_deliveries(deliveries)
    # the age over epochs d_0 .. d_last - 1, reset to s_0 + 1 at the first delivery
    total = _age_sum(d[1:], s[1:] + 1, int(d[0]) - 1, int(d[-1]) - 1, (int(d[0]), int(s[0]) + 1))
    return total / int(d[-1] - d[0])


def aoi_via_qk(deliveries) -> float:
    """Average age via the triangle-difference areas between deliveries.

    Uses Q_k = (S_{k-1}+S_k)(S_{k-1}+S_k+1)/2 - S_k(S_k+1)/2 over
    consecutive pairs, normalized by the same span as
    :func:`aoi_from_path`; the two differ only by window-edge triangles.
    """
    d, s = _check_deliveries(deliveries)
    span = int(d[-1] - d[0])
    prev, cur = s[:-1], s[1:]
    q = (prev + cur) * (prev + cur + 1) // 2 - cur * (cur + 1) // 2
    return float(q.sum() / span)


def _check_deliveries(deliveries):
    arr = np.asarray(list(deliveries), dtype=np.int64)
    if arr.size == 0:
        raise ValueError("delivery list is empty")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("deliveries must be (delivery_epoch, service_time) pairs")
    if len(arr) < 2:
        raise ValueError("need at least two deliveries to form a span")
    d, s = arr[:, 0], arr[:, 1]
    if np.any(np.diff(d) <= 0):
        raise ValueError("delivery epochs must be strictly increasing")
    if np.any(s < 1):
        raise ValueError("service times must be >= 1 block")
    return d, s


# ---------------------------------------------------------------------------
# uplink energy/transmit schedule


class _Schedule:
    """What the transmit schedule carries from one chunk of blocks to the next."""

    def __init__(self, horizon: int):
        self.horizon = horizon   # the run's last block
        self.offset = 0          # blocks fed so far
        self.energy = 0.0        # cumulative harvest through block ``offset``
        self.banked = 0.0        # threshold multiples banked through block ``offset``
        self.last_tx = 1         # latest transmit block returned (a virtual one at first)
        self.sent = 0            # transmissions returned so far
        # the count of each block not yet stretched past block ``offset``, one narrow array
        # per chunk; the oldest one's run starts at block offset + 1. Block 0 counts none
        # and takes block 1, the virtual transmission.
        self.backlog = deque([np.zeros(1, dtype=np.int8)])


def _narrow(counts: np.ndarray) -> np.ndarray:
    # signed: uint64 mixed with int64 promotes to float64
    return counts.astype(np.min_scalar_type(min(int(counts.min()), -1 - int(counts.max()))))


def _transmit_schedule(harvest: np.ndarray, threshold: float, state: _Schedule):
    """Transmit blocks and harvest-slot gaps from the energy harvested per block.

    Crossing block m_k is the block in which the k-th multiple of the
    threshold is banked; transmissions are spaced max(1, m_k - m_{k-1})
    blocks apart, starting one block after the first crossing. So block b,
    stretched to max(1, c) blocks where c counts the multiples it banks,
    becomes c transmit blocks in a row, or one idle block if c = 0.
    Returns (tx_blocks 1-based, gaps aligned with tx_blocks[1:], cumulative harvest).

    The harvests are fed chunk by chunk with the same ``state``: ``harvest``
    covers the blocks after ``state.offset``, and the call returns the
    transmissions in those blocks, with the gaps of those that have a
    predecessor.
    """
    lo = state.offset
    hi = lo + len(harvest)
    # cumsum over [carry, chunk] rounds like one long cumsum; path[0] is the carried sum
    path = np.cumsum(np.concatenate(([state.energy], harvest)))
    energy_cum = path[1:]
    state.offset, state.energy = hi, float(path[-1])
    # multiples banked through each block, corrected by the products the crossings compare
    q = energy_cum / threshold
    np.floor(q, out=q)
    q += threshold * (q + 1) <= energy_cum
    q -= threshold * q > energy_cum
    # no block sends more than the horizon has blocks. Not clipped below: a block where
    # the path falls counts < 0 and still sends once, so the causality check fires.
    banks = np.diff(q, prepend=state.banked)
    state.backlog.append(_narrow(np.minimum(banks, state.horizon, out=banks)))
    state.banked = float(q[-1])
    # ends: the last block of each run. Every block takes at least one block, so
    # block hi's run ends past hi and the loop ends before the backlog does.
    counts, ends = [], [np.array([lo])]
    while ends[-1][-1] <= hi:
        counts.append(state.backlog.popleft())
        ends.append(ends[-1][-1] + np.cumsum(np.maximum(counts[-1], 1, dtype=np.int64)))
    counts, ends = np.concatenate(counts), np.concatenate(ends[1:])
    k = int(np.searchsorted(ends, hi, side="right"))
    keep = np.ones(hi - lo, dtype=bool)     # all but the idle blocks
    keep[ends[np.flatnonzero(counts[:k] == 0)] - (lo + 1)] = False
    tx = np.flatnonzero(keep) + (lo + 1)
    # the first run past hi keeps the count of its blocks after hi
    rest = _narrow(counts[k:])
    rest[0] = min(rest[0], ends[k] - hi)
    state.backlog.appendleft(rest)
    m = len(tx)
    gaps = np.diff(tx, prepend=state.last_tx)
    if m:
        # the banked energy must cover every scheduled transmission
        spent = threshold * np.arange(state.sent + 1, state.sent + m + 1)
        # buffer at block start, harvests through tx-1
        avail = path[tx - 1 - lo]
        if not np.all(avail - spent >= -1e-9 * threshold):
            raise ArithmeticError("uplink transmit schedule violates energy causality")
        state.last_tx = int(tx[-1])
    if state.sent == 0:
        gaps = gaps[1:]      # the first transmission has no predecessor
    state.sent += m
    return tx, gaps, energy_cum


# ---------------------------------------------------------------------------
# per-replication engines

# Every per-block, per-packet and per-transmission array lives for one chunk
# of this many blocks, so a replication's memory does not grow with its
# horizon; 2**14 to 2**16 blocks measured fastest (the chunk stays in cache).
_CHUNK_BLOCKS = 1 << 16


def _chunks(n: int):
    """(lo, hi) of each chunk of blocks lo+1..hi of an n-block horizon."""
    step = _CHUNK_BLOCKS
    for lo in range(0, n, step):
        yield lo, min(lo + step, n)


def _count(counts: np.ndarray, values) -> np.ndarray:
    """``counts`` plus the occurrences of each integer value in ``values``."""
    total = np.bincount(values, minlength=len(counts))
    total[: len(counts)] += counts
    return total


def _hist(counts: np.ndarray) -> dict[int, int]:
    values = np.flatnonzero(counts)
    return dict(zip(values.tolist(), counts[values].tolist()))


class _Deliveries:
    """One direction's deliveries inside the window, tallied chunk by chunk."""

    def __init__(self, warmup: int):
        self.warmup = warmup
        self.age_sum = 0
        self.counts = np.zeros(0, dtype=np.int64)     # window deliveries by service time
        self.last = (0, 0)      # latest reset (epoch, age); the age starts at 0

    def add(self, blocks, system, services, lo: int, hi: int):
        """Deliveries at ``blocks`` within lo+1..hi; sums the age over epochs lo+1..hi.

        ``system`` is each packet's time from generation to delivery (the
        age right after the reset); under zero wait it equals the service
        time.
        """
        resets, values = blocks + 1, system + 1
        self.age_sum += _age_sum(resets, values, max(self.warmup, lo), hi, self.last)
        self.counts = _count(self.counts, services[blocks > self.warmup])
        if len(resets):
            self.last = (int(resets[-1]), int(values[-1]))


def _ps_downlink(params: SystemParams, rho: float, cfg: SimConfig, rep: int):
    """Per chunk: zero-wait downlink deliveries; no block is a data block."""
    dl_stream = make_stream(cfg.seed, rep, "dl_gain")
    walk = _Walk(params.packet_nats)
    for lo, hi in _chunks(cfg.num_blocks):
        gain = sample_gain(dl_stream, params.channel_rate, hi - lo)
        done, services = walk.completions(per_block_downlink_nats(params, rho, gain, cfg.snr_mode))
        yield lo, hi, (done, services, services), np.zeros(hi - lo, dtype=bool)


def _ts_downlink(params: SystemParams, cfg: SimConfig, rep: int):
    """Per chunk: FCFS downlink deliveries at ``cfg.gen_prob`` and the data blocks.

    The access point serves queued packets in arrival order at full power,
    one data block per block, and transfers energy while the queue is
    empty. Downlink gains are indexed by data block, and the draws stay one
    chunk ahead of the data blocks served, the most a chunk can use: every
    packet that completes by the end of a chunk has a known service. A
    packet's service depends only on the gains of the data blocks, not on
    its arrival, so the walk may finish services of packets that have not
    arrived yet.
    """
    gen = make_stream(cfg.seed, rep, "packet_gen")
    dl_stream = make_stream(cfg.seed, rep, "dl_gain")
    walk = _Walk(params.packet_nats)            # over data blocks
    arrivals = np.empty(0, dtype=np.int64)      # arrival blocks of the undelivered packets
    services = np.empty(0, dtype=np.int64)      # data blocks of those packets and the next ones
    free = 0            # completion block of the latest delivered packet
    used = 0            # data blocks served so far
    for lo, hi in _chunks(cfg.num_blocks):
        u = gen.random(hi - lo)
        arrivals = np.concatenate((arrivals, np.flatnonzero(u < cfg.gen_prob) + (lo + 1)))
        gain = sample_gain(dl_stream, params.channel_rate, max(used + hi - lo - walk.fed, 0))
        _, new = walk.completions(per_block_downlink_nats(params, 0.0, gain, cfg.snr_mode))
        services = np.concatenate((services, new))
        m = min(len(arrivals), len(services))
        done = _fcfs(arrivals[:m], services[:m], free)
        # busy in block b while more packets have arrived by b than completed by
        # b - 1: an arrival in block a counts from index a - lo - 1 (a packet
        # queued from an earlier chunk from index 0), and a completion in block d
        # frees block d + 1, index d - lo. Every completion here exceeds lo: one
        # by lo was delivered in its chunk, and a packet without a known service
        # cannot complete within this chunk, so it counts as busy through hi.
        c = hi - lo
        busy = np.cumsum(np.bincount(np.maximum(arrivals - lo - 1, 0), minlength=c)
                         - np.bincount(done[done < hi] - lo, minlength=c)) > 0
        used += int(busy.sum())
        k = int(np.searchsorted(done, hi, side="right"))
        dl = (done[:k], done[:k] - (arrivals[:k] - 1), services[:k])
        free = int(done[k - 1]) if k else free
        arrivals, services = arrivals[k:], services[k:]
        yield lo, hi, dl, busy


def _fcfs(arrivals, services, free: int):
    """FCFS completion blocks behind a server busy through block ``free``.

    done_k = max(arr_k - 1, done_{k-1}) + S_k, with done_0 = free.
    """
    cum_s = np.cumsum(services)
    slack = np.maximum.accumulate(np.maximum(arrivals - 1 - (cum_s - services), free))
    return slack + cum_s


def _replication(params: SystemParams, rho: float, cfg: SimConfig, rep: int):
    """One replication: the scheme's downlink, the device's uplink, the summary.

    The downlink of ``cfg.scheme`` yields, per chunk of blocks lo+1..hi,
    ``(lo, hi, dl, busy)``: (delivery blocks, system times, service times)
    and the mask of time-split data blocks. The device harvests at power
    fraction ``rho`` (power split) or 1 (time split), and nothing in a data
    block; ``rho`` also fixes its transmit power and so the energy threshold.
    Returns the summary and the window's counts of downlink services, uplink
    services and harvest slots by length. Replication 0 writes any trace asked for.
    """
    n = cfg.num_blocks
    warmup = cfg.resolved_warmup()
    lam = params.channel_rate
    if cfg.scheme == "power_split":
        downlink, power = _ps_downlink(params, rho, cfg, rep), rho
    else:
        downlink, power = _ts_downlink(params, cfg, rep), 1.0
    threshold = uplink_energy_threshold(params, rho)
    hv_stream = make_stream(cfg.seed, rep, "harvest_gain")
    ul_stream = make_stream(cfg.seed, rep, "ul_gain")
    schedule = _Schedule(n)
    walk = _Walk(params.packet_nats)        # over transmit blocks
    dl, ul = _Deliveries(warmup), _Deliveries(warmup)
    slot_counts = np.zeros(0, dtype=np.int64)
    energy_blocks = 0
    tracing = cfg.trace_path is not None and rep == 0
    with open(cfg.trace_path, "w", encoding="utf-8") if tracing else nullcontext() as trace:
        if trace is not None:
            trace.write(_TRACE_HEADER)
        for lo, hi, dl_chunk, busy in downlink:
            harvest = harvested_energy(params, power, sample_gain(hv_stream, lam, hi - lo))
            harvest[busy] = 0.0
            tx, gaps, energy_cum = _transmit_schedule(harvest, threshold, schedule)
            gain = sample_gain(ul_stream, lam, len(tx))
            ul_blocks, ul_services = walk.completions(
                per_block_uplink_nats(params, rho, gain, cfg.snr_mode), tx)
            if trace is not None:   # before the tallies move past this chunk
                _write_trace(trace, _trace_frame(lo, hi, (dl, dl_chunk[:2]),
                                                 (ul, (ul_blocks, ul_services)), tx, energy_cum,
                                                 schedule.sent - len(tx), threshold, busy))
            dl.add(*dl_chunk, lo, hi)
            ul.add(ul_blocks, ul_services, ul_services, lo, hi)
            gap_tx = tx[len(tx) - len(gaps):]
            slot_counts = _count(slot_counts, gaps[gap_tx > warmup])
            energy_blocks += int((~busy[max(warmup - lo, 0):]).sum())

    span = n - warmup
    dl_packets, ul_packets = int(dl.counts.sum()), int(ul.counts.sum())
    stats = ReplicationStats(
        mean_dl_aoi=dl.age_sum / span,
        mean_ul_aoi=ul.age_sum / span,
        dl_rate=dl_packets / span,
        ul_rate=ul_packets / span,
        dl_packets=dl_packets,
        ul_packets=ul_packets,
        final_buffer_joules=schedule.energy - threshold * schedule.sent,
        energy_block_fraction=energy_blocks / span,
    )
    return stats, dl.counts, ul.counts, slot_counts


# ---------------------------------------------------------------------------
# aggregation


def _mean_se(values) -> tuple[float, float]:
    """Cross-replication mean and standard error (nan for one replication)."""
    v = np.asarray(values)
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(len(v))) if len(v) > 1 else math.nan


def _summed_hist(counts) -> dict[int, int]:
    """The histogram of count arrays of different lengths, summed."""
    total = np.zeros(max(map(len, counts)), dtype=np.int64)
    for c in counts:
        total[: len(c)] += c
    return _hist(total)


def _aggregate(params, cfg, rep_outputs) -> SimReport:
    stats = [out[0] for out in rep_outputs]
    mean_dl, se_dl = _mean_se([s.mean_dl_aoi for s in stats])
    mean_ul, se_ul = _mean_se([s.mean_ul_aoi for s in stats])
    dl_counts, ul_counts, slot_counts = zip(*(out[1:] for out in rep_outputs))
    return SimReport(
        mean_dl_aoi=mean_dl,
        mean_ul_aoi=mean_ul,
        weighted_aoi=weighted_sum(params.weight_uplink, mean_dl, mean_ul),
        dl_rate=float(np.mean([s.dl_rate for s in stats])),
        ul_rate=float(np.mean([s.ul_rate for s in stats])),
        dl_service_hist=_summed_hist(dl_counts),
        ul_service_hist=_summed_hist(ul_counts),
        harvest_slot_hist=_summed_hist(slot_counts),
        std_error_dl_aoi=se_dl,
        std_error_ul_aoi=se_ul,
        blocks_simulated=len(stats) * cfg.num_blocks,
        energy_block_fraction=float(np.mean([s.energy_block_fraction for s in stats])),
        per_replication=tuple(stats),
    )


def run_power_splitting(params: SystemParams, rho: float, config: SimConfig) -> SimReport:
    """Simulate the power-splitting scheme at split ratio ``rho``."""
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must be in (0, 1) for a simulation run, got {rho!r}")
    if config.scheme != "power_split":
        raise ValueError("config.scheme must be 'power_split' for run_power_splitting")
    return _run(params, rho, config)


def run_time_splitting(params: SystemParams, gen_prob: float, config: SimConfig) -> SimReport:
    """Simulate the time-splitting baseline at packet generation probability ``gen_prob``."""
    rho_ts = ts_equivalent_rho(gen_prob, params.theta)    # also validates stability
    if rho_ts <= 0.0:
        raise ValueError(
            f"gen_prob {gen_prob!r} saturates the downlink queue: no energy is "
            f"ever transferred and the uplink starves")
    if config.scheme != "time_split":
        raise ValueError("config.scheme must be 'time_split' for run_time_splitting")
    if config.gen_prob != gen_prob:
        raise ValueError(f"gen_prob {gen_prob!r} differs from config.gen_prob {config.gen_prob!r}")
    return _run(params, rho_ts, config)


def _run(params: SystemParams, rho: float, config: SimConfig) -> SimReport:
    """Aggregate the replications; ``rho`` fixes the device power (see :func:`_replication`)."""
    outputs = _map_ordered(partial(_replication, params, rho, config), range(config.replications))
    return _aggregate(params, config, outputs)


def _map_ordered(fn, reps) -> list:
    """``[fn(rep) for rep in reps]``, over one worker process per available CPU."""
    workers = min(len(reps), len(os.sched_getaffinity(0)))
    if workers > 1:
        # imported here: a one-replication run should not pay for them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # a daemon process (a multiprocessing.Pool worker) may not start children
        if not multiprocessing.current_process().daemon:
            # fork, not spawn: workers inherit the imported modules instead of
            # importing numpy again, and the engine itself starts no threads
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                return list(pool.map(fn, reps))
    return [fn(rep) for rep in reps]


# ---------------------------------------------------------------------------
# trace dump

_TRACE_HEADER = "epoch,dl_aoi,ul_aoi,buffer_joules,dl_delivery,ul_delivery,ul_tx,energy_block\n"


def _trace_frame(lo, hi, dl, ul, tx, energy_cum, sent, threshold, busy):
    """Trace columns of epochs lo+1..hi, one row per epoch.

    ``dl`` and ``ul`` pair a direction's tally, not yet past this chunk,
    with the chunk's (delivery blocks, system times); ``sent`` counts the
    transmissions before the chunk's ``tx``.
    """
    epochs = np.arange(lo + 1, hi + 1, dtype=np.int64)
    ages, delivered = [], []
    for tally, (blocks, system) in (dl, ul):
        ages.append(_age_path(blocks + 1, system + 1, hi, lo, tally.last))
        delivered.append(np.isin(epochs, np.append(blocks + 1, tally.last[0])))
    buffer = energy_cum - (sent + np.searchsorted(tx, epochs, side="right")) * threshold
    return epochs, *ages, buffer, *delivered, np.isin(epochs, tx), ~busy


def _write_trace(fh, frame):
    for epoch, dl_age, ul_age, buffer, dl_flag, ul_flag, tx_flag, energy in zip(*frame):
        fh.write(f"{epoch},{dl_age},{ul_age},{buffer:.12g},"
                 f"{int(dl_flag)},{int(ul_flag)},{int(tx_flag)},{int(energy)}\n")
