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

Replications are seeded independently from (seed, replication, stream
tag) and aggregated in index order, so a report is a pure function of its
SimConfig. Several replications run in parallel worker processes, one per
CPU in the process's affinity mask; the report is the same byte for byte.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .analytic import ts_equivalent_rho
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


def _walk_packets(cum_nats: np.ndarray, packet_nats: float, limit: int) -> np.ndarray:
    """Zero-wait completions of at most ``limit`` packets over per-slot nats.

    Returns the 0-based slot indices at which successive packets finish.
    Each packet starts at the slot after its predecessor's completion with
    a fresh accumulator (residual capacity in the completing slot is
    discarded), which is what makes the slot counts shifted-Poisson.
    """
    # bisect over a memoryview compares Python floats, which round like
    # searchsorted(side="left") on the float64 array at a fraction of the
    # per-call cost; lo=start skips completed slots (cum_nats is nondecreasing)
    view = memoryview(cum_nats)
    n = len(view)
    completions = []
    start = 0
    anchor = 0.0
    for _ in range(limit):
        j = bisect_left(view, anchor + packet_nats, start)
        if j >= n:
            break
        completions.append(j)
        anchor = view[j]
        start = j + 1
    return np.asarray(completions, dtype=np.int64)


def _age_sum(reset_epochs: np.ndarray, reset_values: np.ndarray,
             warmup: int, horizon: int) -> int:
    """Exact integer sum of the age path over epochs warmup+1 .. horizon.

    The age is 0 at epoch 0 and grows by one per epoch until the first
    reset; at reset epoch d_k it drops to v_k and resumes growing.
    """
    total = 0
    d = np.asarray(reset_epochs, dtype=np.int64)
    v = np.asarray(reset_values, dtype=np.int64)
    keep = d <= horizon
    d, v = d[keep], v[keep]
    # head segment: epochs [1, first_reset - 1] with age = epoch
    head_end = int(d[0]) - 1 if len(d) else horizon
    lo, hi = max(1, warmup + 1), min(head_end, horizon)
    if hi >= lo:
        cnt = hi - lo + 1
        total += cnt * lo + cnt * (cnt - 1) // 2
    if not len(d):
        return total
    # interior + tail segments, vectorized arithmetic series
    seg_lo = d
    seg_hi = np.empty_like(d)
    seg_hi[:-1] = d[1:] - 1
    seg_hi[-1] = horizon
    lo_c = np.maximum(seg_lo, warmup + 1)
    hi_c = np.minimum(seg_hi, horizon)
    m = hi_c >= lo_c
    cnt = (hi_c - lo_c + 1)[m]
    first = (v + (lo_c - seg_lo))[m]
    total += int((cnt * first).sum() + (cnt * (cnt - 1) // 2).sum())
    return total


def _age_path(reset_epochs, reset_values, horizon: int) -> np.ndarray:
    """Materialized age at epochs 1..horizon (trace/debug use only)."""
    ages = np.arange(1, horizon + 1, dtype=np.int64)
    d = np.asarray(reset_epochs, dtype=np.int64)
    v = np.asarray(reset_values, dtype=np.int64)
    keep = d <= horizon
    d, v = d[keep], v[keep]
    if len(d):
        # offset from the most recent reset
        idx = np.searchsorted(d, ages, side="right") - 1
        has = idx >= 0
        ages[has] = v[idx[has]] + (ages[has] - d[idx[has]])
    return ages


def aoi_from_path(deliveries) -> float:
    """Average age of a zero-wait delivery path, summed epoch by epoch.

    ``deliveries`` is a sorted sequence of (delivery_epoch, service_time)
    with integer epochs and services >= 1; the average runs over the span
    between the first and last delivery.
    """
    d, s = _check_deliveries(deliveries)
    if len(d) < 2:
        raise ValueError("need at least two deliveries to form a span")
    span = int(d[-1] - d[0])
    gaps = np.diff(d)
    first = s[:-1] + 1
    total = (gaps * first).sum() + (gaps * (gaps - 1) // 2).sum()
    return float(total / span)


def aoi_via_qk(deliveries) -> float:
    """Average age via the triangle-difference areas between deliveries.

    Uses Q_k = (S_{k-1}+S_k)(S_{k-1}+S_k+1)/2 - S_k(S_k+1)/2 over
    consecutive pairs, normalized by the same span as
    :func:`aoi_from_path`; the two differ only by window-edge triangles.
    """
    d, s = _check_deliveries(deliveries)
    if len(d) < 2:
        raise ValueError("need at least two deliveries to form a span")
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
    d, s = arr[:, 0], arr[:, 1]
    if np.any(np.diff(d) <= 0):
        raise ValueError("delivery epochs must be strictly increasing")
    if np.any(s < 1):
        raise ValueError("service times must be >= 1 block")
    return d, s


# ---------------------------------------------------------------------------
# uplink energy/transmit schedule


def _transmit_schedule(energy_cum: np.ndarray, threshold: float):
    """Transmit blocks and harvest-slot gaps from a cumulative energy path.

    Crossing block m_k is the block in which the k-th multiple of the
    threshold is banked; transmissions are spaced max(1, m_k - m_{k-1})
    blocks apart, starting one block after the first crossing. Returns
    (tx_blocks 1-based, gaps aligned with tx_blocks[1:]).
    """
    n = len(energy_cum)
    total = float(energy_cum[-1]) if n else 0.0
    k_max = int(total / threshold)
    if k_max < 1:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    targets = threshold * np.arange(1, k_max + 1)
    cross = np.searchsorted(energy_cum, targets, side="left").astype(np.int64) + 1
    gaps = np.maximum(1, np.diff(cross))
    tx = np.empty(k_max, dtype=np.int64)
    tx[0] = cross[0] + 1
    tx[1:] = tx[0] + np.cumsum(gaps)
    keep = tx <= n
    tx = tx[keep]
    gaps = gaps[: max(len(tx) - 1, 0)]
    if len(tx):
        # the banked energy must cover every scheduled transmission
        spent = threshold * np.arange(1, len(tx) + 1)
        avail = energy_cum[tx - 2]  # buffer at block start, harvests through tx-1
        if not np.all(avail - spent >= -1e-9 * threshold):
            raise ArithmeticError("uplink transmit schedule violates energy causality")
    return tx, gaps


# ---------------------------------------------------------------------------
# per-replication engines


def _deliveries(blocks):
    """(completion blocks, service times) of zero-wait packets completing at ``blocks``."""
    return blocks, np.diff(blocks, prepend=0)


def _hist(values, lo=1) -> dict[int, int]:
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return {}
    counts = np.bincount(values)
    return {int(j): int(counts[j]) for j in range(lo, len(counts)) if counts[j]}


def _window_stats(blocks, system, services, warmup, horizon):
    """Deliveries, age sum and service histogram inside the window.

    ``system`` is each packet's time from generation to delivery (the age
    right after the reset); under zero wait it equals the service time.
    """
    in_win = (blocks > warmup) & (blocks <= horizon)
    count = int(in_win.sum())
    age_sum = _age_sum(blocks + 1, system + 1, warmup, horizon)
    return count, age_sum, _hist(services[in_win])


def _ps_replication(params: SystemParams, rho: float, cfg: SimConfig, rep: int):
    n = cfg.num_blocks
    lam = params.channel_rate

    dl_gain = sample_gain(make_stream(cfg.seed, rep, "dl_gain"), lam, n)
    dl_cum = np.cumsum(per_block_downlink_nats(params, rho, dl_gain, cfg.snr_mode))
    del dl_gain
    dl_blocks, dl_services = _deliveries(_walk_packets(dl_cum, params.packet_nats, n) + 1)
    del dl_cum

    hv_gain = sample_gain(make_stream(cfg.seed, rep, "harvest_gain"), lam, n)
    energy_cum = np.cumsum(harvested_energy(params, rho, hv_gain))
    del hv_gain
    return _uplink_and_summary(params, rho, cfg, rep, energy_cum,
                               (dl_blocks, dl_services, dl_services), None)


def _ts_replication(params: SystemParams, gen_prob: float, cfg: SimConfig, rep: int):
    n = cfg.num_blocks
    lam = params.channel_rate

    u = make_stream(cfg.seed, rep, "packet_gen").random(n)
    arrivals = np.flatnonzero(u < gen_prob).astype(np.int64) + 1  # block index
    del u

    dl_gain = sample_gain(make_stream(cfg.seed, rep, "dl_gain"), lam, n)
    # full transmit power on data blocks: zero energy fraction
    data_cum = np.cumsum(per_block_downlink_nats(params, 0.0, dl_gain, cfg.snr_mode))
    del dl_gain
    # data blocks each packet occupies, in FCFS slot order
    services = np.diff(_walk_packets(data_cum, params.packet_nats, len(arrivals)), prepend=-1)
    del data_cum
    if len(services) < len(arrivals) and services.sum() < n:
        # data slots are left but the next packet cannot finish within them: keep
        # the access point busy to the end but never deliver (sentinel longer
        # than any window)
        services = np.append(services, n)
    arrivals = arrivals[: len(services)]

    # FCFS queue recursion: done_k = max(arr_k - 1, done_{k-1}) + S_k
    cum_s = np.cumsum(services)
    slack = np.maximum.accumulate(arrivals - 1 - (cum_s - services))
    done = slack + cum_s
    starts = done - services + 1
    busy = _mark_busy(starts, np.minimum(done, n), n)

    hv_gain = sample_gain(make_stream(cfg.seed, rep, "harvest_gain"), lam, n)
    harvest = harvested_energy(params, 1.0, hv_gain)  # full power while idle
    del hv_gain
    harvest[busy] = 0.0
    energy_cum = np.cumsum(harvest)
    del harvest

    delivered = done <= n
    dl_blocks = done[delivered]
    dl = (dl_blocks, dl_blocks - (arrivals[delivered] - 1), services[delivered])
    return _uplink_and_summary(params, ts_equivalent_rho(gen_prob, params.theta), cfg, rep,
                               energy_cum, dl, busy)


def _mark_busy(starts, ends, n):
    delta = np.zeros(n + 2, dtype=np.int32)
    valid = starts <= n
    np.add.at(delta, starts[valid], 1)
    np.add.at(delta, ends[valid] + 1, -1)
    return np.cumsum(delta[1 : n + 1]) > 0


def _uplink_and_summary(params: SystemParams, rho: float, cfg: SimConfig, rep: int,
                        energy_cum, dl, busy):
    """The device's uplink from its banked energy, then the replication summary.

    Both schemes share this half. ``rho`` fixes the device transmit power
    and so the energy threshold; ``dl`` is the downlink's (delivery blocks,
    system times, service times); ``busy`` marks the time-split data
    blocks, in which nothing is harvested (None under power splitting).
    """
    n = cfg.num_blocks
    warmup = cfg.resolved_warmup()
    threshold = uplink_energy_threshold(params, rho)
    tx, slot_gaps = _transmit_schedule(energy_cum, threshold)
    final_buffer = float(energy_cum[-1]) - threshold * len(tx)

    ul_gain = sample_gain(make_stream(cfg.seed, rep, "ul_gain"), params.channel_rate, len(tx))
    ul_cum = np.cumsum(per_block_uplink_nats(params, rho, ul_gain, cfg.snr_mode))
    del ul_gain
    ul_blocks, ul_services = _deliveries(tx[_walk_packets(ul_cum, params.packet_nats, len(tx))])
    del ul_cum

    dl_count, dl_age_sum, dl_hist = _window_stats(*dl, warmup, n)
    ul_count, ul_age_sum, ul_hist = _window_stats(ul_blocks, ul_services, ul_services, warmup, n)
    slot_hist = _hist(slot_gaps[(tx[1:] > warmup) & (tx[1:] <= n)]) if len(tx) > 1 else {}

    span = n - warmup
    energy_blocks = span if busy is None else (~busy[warmup:]).sum()
    stats = ReplicationStats(
        mean_dl_aoi=dl_age_sum / span,
        mean_ul_aoi=ul_age_sum / span,
        dl_rate=dl_count / span,
        ul_rate=ul_count / span,
        dl_packets=dl_count,
        ul_packets=ul_count,
        final_buffer_joules=final_buffer,
        energy_block_fraction=float(energy_blocks / span),
    )
    trace = None
    if cfg.trace_path is not None and rep == 0:
        trace = _trace_frame(n, dl[0], dl[1], ul_blocks, ul_services,
                             tx, energy_cum, threshold, busy)
    return stats, dl_hist, ul_hist, slot_hist, trace


# ---------------------------------------------------------------------------
# aggregation


def _merge_hists(hists) -> dict[int, int]:
    merged: dict[int, int] = {}
    for h in hists:
        for j, c in h.items():
            merged[j] = merged.get(j, 0) + c
    return dict(sorted(merged.items()))


def _aggregate(params, cfg, rep_outputs) -> SimReport:
    stats = [out[0] for out in rep_outputs]
    r = len(stats)
    dl_means = np.array([s.mean_dl_aoi for s in stats])
    ul_means = np.array([s.mean_ul_aoi for s in stats])
    mean_dl = float(dl_means.mean())
    mean_ul = float(ul_means.mean())
    w = params.weight_uplink
    if r > 1:
        se_dl = float(dl_means.std(ddof=1) / math.sqrt(r))
        se_ul = float(ul_means.std(ddof=1) / math.sqrt(r))
    else:
        se_dl = se_ul = math.nan
    return SimReport(
        mean_dl_aoi=mean_dl,
        mean_ul_aoi=mean_ul,
        weighted_aoi=(1.0 - w) * mean_dl + w * mean_ul,
        dl_rate=float(np.mean([s.dl_rate for s in stats])),
        ul_rate=float(np.mean([s.ul_rate for s in stats])),
        dl_service_hist=_merge_hists(out[1] for out in rep_outputs),
        ul_service_hist=_merge_hists(out[2] for out in rep_outputs),
        harvest_slot_hist=_merge_hists(out[3] for out in rep_outputs),
        std_error_dl_aoi=se_dl,
        std_error_ul_aoi=se_ul,
        blocks_simulated=r * cfg.num_blocks,
        energy_block_fraction=float(np.mean([s.energy_block_fraction for s in stats])),
        per_replication=tuple(stats),
    )


def run_power_splitting(params: SystemParams, rho: float, config: SimConfig) -> SimReport:
    """Simulate the power-splitting scheme at split ratio ``rho``."""
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must be in (0, 1) for a simulation run, got {rho!r}")
    if config.scheme != "power_split":
        raise ValueError("config.scheme must be 'power_split' for run_power_splitting")
    return _run(_ps_replication, params, rho, config)


def run_time_splitting(params: SystemParams, gen_prob: float, config: SimConfig) -> SimReport:
    """Simulate the time-splitting baseline at packet generation probability ``gen_prob``."""
    if ts_equivalent_rho(gen_prob, params.theta) <= 0.0:  # also validates stability
        raise ValueError(
            f"gen_prob {gen_prob!r} saturates the downlink queue: no energy is "
            f"ever transferred and the uplink starves")
    if config.scheme != "time_split":
        raise ValueError("config.scheme must be 'time_split' for run_time_splitting")
    return _run(_ts_replication, params, gen_prob, config)


def _run(replication, params: SystemParams, x: float, config: SimConfig) -> SimReport:
    outputs = _map_ordered(partial(replication, params, x, config), range(config.replications))
    if config.trace_path is not None:
        _write_trace(config.trace_path, outputs[0][4])
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


def _trace_frame(n, dl_blocks, dl_system, ul_blocks, ul_services,
                 tx, energy_cum, threshold, busy):
    dl_age = _age_path(dl_blocks + 1, dl_system + 1, n)
    ul_age = _age_path(ul_blocks + 1, ul_services + 1, n)
    spent = np.zeros(n, dtype=np.float64)
    if len(tx):
        counts = np.searchsorted(tx, np.arange(1, n + 1), side="right")
        spent = counts * threshold
    buffer = energy_cum - spent
    flags = {
        "dl_delivery": np.isin(np.arange(1, n + 1), dl_blocks + 1),
        "ul_delivery": np.isin(np.arange(1, n + 1), ul_blocks + 1),
        "ul_tx": np.isin(np.arange(1, n + 1), tx),
    }
    energy_block = ~busy if busy is not None else np.ones(n, dtype=bool)
    return dl_age, ul_age, buffer, flags, energy_block


def _write_trace(path: str, trace):
    dl_age, ul_age, buffer, flags, energy_block = trace
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,dl_aoi,ul_aoi,buffer_joules,dl_delivery,ul_delivery,ul_tx,energy_block\n")
        for i in range(len(dl_age)):
            fh.write(
                f"{i + 1},{dl_age[i]},{ul_age[i]},{buffer[i]:.12g},"
                f"{int(flags['dl_delivery'][i])},{int(flags['ul_delivery'][i])},"
                f"{int(flags['ul_tx'][i])},{int(energy_block[i])}\n"
            )
