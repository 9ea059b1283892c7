"""Block-level Monte Carlo engine for both exchange schemes.

One run draws per-block Rayleigh power gains, pushes packets through the
downlink and the energy-constrained uplink, and reports time-averaged
ages, rates, and service/harvest histograms. The engine is the empirical
oracle for every closed form in :mod:`twoway_aoi.analytic`.

Discrete-time age convention (the one that reproduces the renewal formula
E(S) + 1/2 + E(S^2)/(2 E(S)) exactly): the age at epoch e is e - g, where
g is the generation epoch of the latest packet delivered by epoch e, and a
packet completed in block c is delivered at epoch c + 1. With one-block
deterministic service the sampled age is the constant 2.

Uplink energy accounting: the device banks the energy harvested in every
block (transmit blocks included) and needs a fixed threshold per transmit
block. Transmit times are spaced by max(1, W_k) blocks, where W_k counts
the blocks between consecutive threshold crossings of the cumulative
harvested energy. Anchoring the count on the crossing rather than on the
instantaneous buffer level is what makes the harvest-slot counts exactly
independent Poisson(1/eta) draws; the buffer never goes negative under
this rule (checked every run).

Each replication streams its horizon in chunks of up to ``_CHUNK_BLOCKS``
blocks, the warmup's and then the window's, so each chunk is tallied whole
or not at all. Every random stream is drawn chunk by chunk, and the running
sums, packet anchors, threshold crossings, FCFS queue and age paths carry
across chunk boundaries, so the report does not depend on where chunks end.
A replication allocates its per-block work arrays once, a few chunk-sized
float arrays, and every chunk's draws, scalings and cumulative sums write
into them, so its memory does not grow with the horizon. The exception is
the transmit backlog, about one byte per block not yet stretched to its
transmissions (see ``_transmit_schedule``).

Replications are seeded independently from (seed, replication, stream
tag) and aggregated in index order, so a report is a pure function of its
SimConfig. Replications run in one pool of worker processes, one per CPU
in the process's affinity mask: a run's own, or in a :func:`started` block
those of every run the block names (``compare`` names all its runs), each
run collecting its own. The report is the same byte for byte.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from .analytic import _check_gen_prob, ts_equivalent_rho, weighted_sum
from .model import (
    SystemParams,
    _check,
    _check_count,
    _check_snr_mode,
    _check_split,
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
    _check("stream tag", tag, tag in STREAM_TAGS, f"one of {sorted(STREAM_TAGS)}")
    entropy = (int(seed), int(replication), STREAM_TAGS[tag])
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def sample_gain(stream: np.random.Generator, lam: float, size=None, out=None):
    """Draw Rayleigh power gains gamma = -ln(U)/lam, U uniform in (0, 1].

    ``out``, a float64 array, takes the draws in place of a new array.
    """
    _check("lam", lam, lam > 0, "> 0")
    u = np.asarray(stream.random(size, out=out))
    # log1p(-u) / -lam in place, one step at a time; 1 - random() lies in (0, 1]
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.divide(u, -lam, out=u)
    return u if size is not None or out is not None else float(u)


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
        _check_count("num_blocks", self.num_blocks, 1)
        _check_count("seed", self.seed, 0)
        _check_count("replications", self.replications, 1)
        _check_snr_mode(self.snr_mode, "snr_mode")
        _check("scheme", self.scheme, self.scheme in SCHEMES, f"one of {SCHEMES}")
        w = self.resolved_warmup()
        _check_count("warmup_blocks", w, 0)
        _check("warmup_blocks", w, w < self.num_blocks, "< num_blocks")
        if (self.scheme == "time_split") != (self.gen_prob is not None):
            raise ValueError("gen_prob goes with scheme = 'time_split', and only with it")
        if self.gen_prob is not None:     # a run checks it against theta
            _check_gen_prob(self.gen_prob, interior=True)

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

    def completions(self, path, blocks=None):
        """Walk the next slots' nats, ``path[1:]``: (completion blocks, services in blocks).

        The walk writes its carried sum into ``path[0]`` and cumsums ``path``
        in place. ``blocks`` numbers this call's slots; by default stream slot
        i is block i + 1.
        """
        # cumsum over [carry, chunk] rounds like one long cumsum; carry + cumsum(chunk) does not
        path[0] = self.total
        cum = np.cumsum(path, out=path)[1:]
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


def _stretches(epochs, gens, start: int, hi: int, last):
    """The stretches of epochs start+1..hi between deliveries: (first epoch, g, length).

    From a delivery until the next, the age at epoch e is e - g, g being the
    delivered packet's generation epoch. ``epochs`` and ``gens`` are the
    delivery and generation epochs of the packets delivered after ``last``,
    the latest (delivery epoch, generation epoch) at or before epoch start+1.
    """
    edges = np.concatenate(([last[0]], epochs, [hi + 1]))
    np.minimum(np.maximum(edges, start + 1, out=edges), hi + 1, out=edges)   # into the window
    return edges[:-1], np.concatenate(([last[1]], gens)), edges[1:] - edges[:-1]


def _age_sum(first, g, n) -> int:
    """Exact integer sum of the age over the stretches of :func:`_stretches`."""
    return int(n @ (first - g) + n @ (n - 1) // 2)      # each n (n - 1) is even


def aoi_from_path(deliveries) -> float:
    """Average age of a zero-wait delivery path, summed epoch by epoch.

    ``deliveries`` is a sorted sequence of (delivery_epoch, service_time)
    with integer epochs and services >= 1; the average runs over the span
    between the first and last delivery.
    """
    d, s = _check_deliveries(deliveries)
    g = d - 1 - s       # completed in block d - 1 after s blocks of service
    # the age over epochs d_0 .. d_last - 1
    total = _age_sum(*_stretches(d[1:], g[1:], d[0] - 1, d[-1] - 1, (d[0], g[0])))
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
    arr = np.asarray(list(deliveries))
    if arr.size == 0:
        raise ValueError("delivery list is empty")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("deliveries must be (delivery_epoch, service_time) pairs")
    if arr.dtype.kind not in "iu":
        raise ValueError("delivery epochs and service times must be integers within int64")
    if len(arr) < 2:
        raise ValueError("need at least two deliveries to form a span")
    d, s = arr.astype(np.int64).T
    if np.any(np.diff(d) <= 0):
        raise ValueError("delivery epochs must be strictly increasing")
    if np.any(s < 1):
        raise ValueError("service times must be >= 1 block")
    return d, s


# ---------------------------------------------------------------------------
# uplink energy/transmit schedule


class _Schedule:
    """What the transmit schedule carries from one chunk of blocks to the next,
    and its work arrays for chunks of up to ``size`` blocks."""

    def __init__(self, horizon: int, size: int):
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
        self.multiples = np.empty(size + 1)   # slot 0 for ``banked``, then one per block
        self.product = np.empty(size)
        self.flags = np.empty(size, dtype=bool)
        self.ends = np.empty(size + 1, dtype=np.int64)


def _narrow(counts: np.ndarray) -> np.ndarray:
    # signed: uint64 mixed with int64 promotes to float64
    return counts.astype(np.min_scalar_type(min(int(counts.min()), -1 - int(counts.max()))))


def _transmit_schedule(path: np.ndarray, threshold: float, state: _Schedule):
    """Transmit blocks and harvest-slot gaps from the energy harvested per block.

    Crossing block m_k is the block in which the k-th multiple of the
    threshold is banked; transmissions are spaced max(1, m_k - m_{k-1})
    blocks apart, starting one block after the first crossing. So block b,
    stretched to max(1, c) blocks where c counts the multiples it banks,
    becomes c transmit blocks in a row, or one idle block if c = 0.
    Returns (tx_blocks 1-based, gaps aligned with tx_blocks[1:], cumulative harvest).

    The harvests are fed chunk by chunk with the same ``state``: ``path[1:]``
    holds those of the blocks after ``state.offset``, and the call returns the
    transmissions in those blocks, with the gaps of those that have a
    predecessor. The cumulative harvest replaces ``path`` in place, led by the
    carried sum in ``path[0]``.
    """
    c = len(path) - 1
    lo = state.offset
    hi = lo + c
    # cumsum over [carry, chunk] rounds like one long cumsum
    path[0] = state.energy
    energy_cum = np.cumsum(path, out=path)[1:]
    state.offset, state.energy = hi, float(path[-1])
    if not math.isfinite(state.energy):
        raise OverflowError(f"the harvested energy overflows by block {hi}")
    # multiples banked through each block, corrected by the products the crossings
    # compare; each step writes into the state's work arrays
    multiples, product, flags = state.multiples[:c + 1], state.product[:c], state.flags[:c]
    multiples[0] = state.banked
    q = multiples[1:]
    np.divide(energy_cum, threshold, out=q)
    np.floor(q, out=q)
    np.multiply(threshold, np.add(q, 1, out=product), out=product)
    q += np.less_equal(product, energy_cum, out=flags)
    np.multiply(threshold, q, out=product)
    q -= np.greater(product, energy_cum, out=flags)
    # no block sends more than the horizon has blocks. Not clipped below: a block where
    # the path falls counts < 0 and still sends once, so the causality check fires.
    banks = np.subtract(q, multiples[:-1], out=product)
    state.backlog.append(_narrow(np.minimum(banks, state.horizon, out=banks)))
    state.banked = float(q[-1])
    # Every block takes at least one block, so the runs of the backlog's first
    # c + 1 blocks, which end with block hi's, cover lo+1..hi; the rest waits
    counts, need = [], c + 1
    while need:
        counts.append(state.backlog.popleft())
        if len(counts[-1]) > need:
            state.backlog.appendleft(counts[-1][need:])
            counts[-1] = counts[-1][:need]
        need -= len(counts[-1])
    counts = np.concatenate(counts)
    # ends: the index of each run's last block, block lo + 1 + index
    ends = state.ends[:c + 1]
    np.maximum(counts, 1, out=ends)
    ends[0] -= 1
    np.cumsum(ends, out=ends)
    k = int(np.searchsorted(ends, c - 1, side="right"))
    keep = flags        # all but the idle blocks, the runs of the blocks that bank none
    keep.fill(True)
    keep[ends[:k]] = counts[:k] != 0
    # the first run past hi keeps the count of its blocks after hi
    rest = _narrow(counts[k:])
    rest[0] = min(rest[0], ends[k] - (c - 1))
    state.backlog.appendleft(rest)
    tx = np.flatnonzero(keep)
    m = len(tx)
    # the banked energy must cover every scheduled transmission: the buffer at
    # the start of block lo + 1 + i holds the harvests through block lo + i
    avail = path[tx]
    avail -= threshold * np.arange(state.sent + 1, state.sent + m + 1)
    if not np.all(avail >= -1e-9 * threshold):
        raise ArithmeticError("uplink transmit schedule violates energy causality")
    tx += lo + 1
    gaps = np.diff(tx, prepend=state.last_tx)
    if m:
        state.last_tx = int(tx[-1])
    if state.sent == 0:
        gaps = gaps[1:]      # the first transmission has no predecessor
    state.sent += m
    return tx, gaps, energy_cum


# ---------------------------------------------------------------------------
# per-replication engines

# Every per-block, per-packet and per-transmission array lives for one chunk
# of at most this many blocks (the warmup's end also ends one, so a run has at
# most one chunk more), and a replication's memory does not grow with its
# horizon. With the work arrays reused, one reference-point replication
# (power split, 4e6 blocks) took 0.312, 0.272, 0.260 and 0.255 s at 2**14,
# 2**15, 2**16 and 2**17 blocks, and one time-split replication (p = 0.008,
# 1e6 blocks) 0.072, 0.070, 0.067 and 0.072 s (medians of ten interleaved
# runs in one process, 2-core VM): 2**17 gains on one scheme only.
_CHUNK_BLOCKS = 1 << 16


def _chunks(cfg: SimConfig):
    """(lo, hi, window) of each chunk of blocks lo+1..hi: the warmup's, then the window's."""
    step, warmup = _CHUNK_BLOCKS, cfg.resolved_warmup()
    for start, stop, window in ((0, warmup, False), (warmup, cfg.num_blocks, True)):
        for lo in range(start, stop, step):
            yield lo, min(lo + step, stop), window


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

    def __init__(self):
        self.age_sum = 0
        self.counts = np.zeros(0, dtype=np.int64)     # window deliveries by service time
        self.last = (0, 0)      # latest (delivery epoch, generation epoch); the age starts at 0

    def add(self, blocks, gens, services, lo: int, hi: int, window: bool):
        """Packets generated at epochs ``gens``, completed in ``blocks`` within lo+1..hi and
        so delivered at ``blocks + 1``; a window chunk adds its age and services."""
        epochs = blocks + 1
        if window:
            self.age_sum += _age_sum(*_stretches(epochs, gens, lo, hi, self.last))
            self.counts = _count(self.counts, services)
        if len(epochs):
            self.last = (int(epochs[-1]), int(gens[-1]))


def _ps_downlink(params: SystemParams, rho: float, cfg: SimConfig, rep: int, path):
    """Per chunk: zero-wait downlink deliveries; no block is a data block.

    Each chunk's nats fill ``path`` in place (see :meth:`_Walk.completions`).
    """
    dl_stream = make_stream(cfg.seed, rep, "dl_gain")
    walk = _Walk(params.packet_nats)
    for lo, hi, window in _chunks(cfg):
        nats = path[1:hi - lo + 1]
        gain = sample_gain(dl_stream, params.channel_rate, out=nats)
        per_block_downlink_nats(params, rho, gain, cfg.snr_mode, out=nats)
        done, services = walk.completions(path[:hi - lo + 1])
        yield lo, hi, window, (done, done - services, services), None


def _ts_downlink(params: SystemParams, cfg: SimConfig, rep: int, path):
    """Per chunk: FCFS downlink deliveries at ``cfg.gen_prob`` and the data blocks.

    The access point serves queued packets in arrival order at full power,
    one data block per block, and transfers energy while the queue is
    empty. Downlink gains are indexed by data block, and the draws stay one
    chunk ahead of the data blocks served, the most a chunk can use: every
    packet that completes by the end of a chunk has a known service. A
    packet's service depends only on the gains of the data blocks, not on
    its arrival, so the walk may finish services of packets that have not
    arrived yet. The arrival draws and the nats fill ``path`` in place, one
    after the other (see :meth:`_Walk.completions`).
    """
    gen = make_stream(cfg.seed, rep, "packet_gen")
    dl_stream = make_stream(cfg.seed, rep, "dl_gain")
    walk = _Walk(params.packet_nats)            # over data blocks
    gens = np.empty(0, dtype=np.int64)          # generation epochs of the undelivered packets
    services = np.empty(0, dtype=np.int64)      # data blocks of those packets and the next ones
    free = 0            # completion block of the latest delivered packet
    used = 0            # data blocks served so far
    for lo, hi, window in _chunks(cfg):
        c = hi - lo
        u = gen.random(out=path[1:c + 1])
        # a packet generated at epoch g arrives in block g + 1
        gens = np.concatenate((gens, np.flatnonzero(u < cfg.gen_prob) + lo))
        nats = path[1:max(used + c - walk.fed, 0) + 1]
        gain = sample_gain(dl_stream, params.channel_rate, out=nats)
        per_block_downlink_nats(params, 0.0, gain, cfg.snr_mode, out=nats)
        _, new = walk.completions(path[:len(nats) + 1])
        services = np.concatenate((services, new))
        m = min(len(gens), len(services))
        done = _fcfs(gens[:m], services[:m], free)
        # busy in block b while more packets have arrived by b than completed by
        # b - 1: a packet generated at epoch g counts from index g - lo (one
        # queued from an earlier chunk from index 0), and a completion in block d
        # frees block d + 1, index d - lo. Every completion here exceeds lo: one
        # by lo was delivered in its chunk, and a packet without a known service
        # cannot complete within this chunk, so it counts as busy through hi.
        queued = np.bincount(np.maximum(gens - lo, 0), minlength=c)
        queued -= np.bincount(done[done < hi] - lo, minlength=c)
        busy = np.cumsum(queued, out=queued) > 0
        used += int(busy.sum())
        k = int(np.searchsorted(done, hi, side="right"))
        dl = (done[:k], gens[:k], services[:k])
        free = int(done[k - 1]) if k else free
        gens, services = gens[k:], services[k:]
        yield lo, hi, window, dl, busy


def _fcfs(gens, services, free: int):
    """FCFS completion blocks behind a server busy through block ``free``.

    done_k = max(g_k, done_{k-1}) + S_k, with done_0 = free.
    """
    cum_s = np.cumsum(services)
    slack = np.maximum.accumulate(np.maximum(gens - (cum_s - services), free))
    return slack + cum_s


def _replication(params: SystemParams, rho: float, cfg: SimConfig, rep: int):
    """One replication: the scheme's downlink, the device's uplink, the summary.

    The downlink of ``cfg.scheme`` yields, per chunk of :func:`_chunks`,
    ``(lo, hi, window, dl, busy)``: (completion blocks, generation epochs, service
    times) and the mask of time-split data blocks (None under power split, which
    has none). The device harvests at power fraction ``rho`` (power split) or 1
    (time split), and nothing in a data block; ``rho`` also fixes its transmit
    power and so the energy threshold. Returns the summary and the window's
    counts of downlink services, uplink services and harvest slots by length.
    Replication 0 writes any trace asked for.

    Every per-block stage of a chunk writes into arrays allocated here once
    per replication: ``nats`` holds a walk's per-slot nats (downlink, then
    uplink) and ``energy`` the harvests, each behind a slot for its carried sum.
    """
    n = cfg.num_blocks
    lam = params.channel_rate
    size = min(n, _CHUNK_BLOCKS)
    nats, energy = np.empty(size + 1), np.empty(size + 1)
    if cfg.scheme == "power_split":
        downlink, power = _ps_downlink(params, rho, cfg, rep, nats), rho
    else:
        downlink, power = _ts_downlink(params, cfg, rep, nats), 1.0
    threshold = uplink_energy_threshold(params, rho)
    hv_stream = make_stream(cfg.seed, rep, "harvest_gain")
    ul_stream = make_stream(cfg.seed, rep, "ul_gain")
    schedule = _Schedule(n, size)
    walk = _Walk(params.packet_nats)        # over transmit blocks
    dl, ul = _Deliveries(), _Deliveries()
    slot_counts = np.zeros(0, dtype=np.int64)
    energy_blocks = 0
    tracing = cfg.trace_path is not None and rep == 0
    # as in the closed forms, an overflow gives inf, not a warning; an infinite harvest
    # stops the run in _transmit_schedule
    trace_file = open(cfg.trace_path, "w", encoding="utf-8") if tracing else nullcontext()
    with trace_file as trace, np.errstate(over="ignore"):
        if trace is not None:
            trace.write(_TRACE_HEADER)
        for lo, hi, window, dl_chunk, busy in downlink:
            harvest = energy[1:hi - lo + 1]
            harvested_energy(params, power, sample_gain(hv_stream, lam, out=harvest), out=harvest)
            if busy is not None:
                harvest[busy] = 0.0
            tx, gaps, energy_cum = _transmit_schedule(energy[:hi - lo + 1], threshold, schedule)
            ul_nats = nats[1:len(tx) + 1]
            gain = sample_gain(ul_stream, lam, out=ul_nats)
            per_block_uplink_nats(params, rho, gain, cfg.snr_mode, out=ul_nats)
            ul_blocks, ul_services = walk.completions(nats[:len(tx) + 1], tx)
            ul_chunk = (ul_blocks, ul_blocks - ul_services, ul_services)
            if trace is not None:   # before the tallies move past this chunk
                trace.writelines(_trace_lines(lo, hi, (dl, dl_chunk[:2]), (ul, ul_chunk[:2]),
                                              tx, energy_cum, schedule.sent - len(tx),
                                              threshold, busy))
            dl.add(*dl_chunk, lo, hi, window)
            ul.add(*ul_chunk, lo, hi, window)
            if window:
                slot_counts = _count(slot_counts, gaps)
                energy_blocks += hi - lo - (0 if busy is None else int(busy.sum()))

    span = n - cfg.resolved_warmup()
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
    _check("config.scheme", config.scheme, config.scheme == "power_split",
           "'power_split' for run_power_splitting")
    return _run(params, rho, config)


def run_time_splitting(params: SystemParams, gen_prob: float, config: SimConfig) -> SimReport:
    """Simulate the time-splitting baseline at packet generation probability ``gen_prob``."""
    _check("config.scheme", config.scheme, config.scheme == "time_split",
           "'time_split' for run_time_splitting")
    _check("gen_prob", gen_prob, gen_prob == config.gen_prob,
           f"config.gen_prob = {config.gen_prob!r}")
    return _run(params, gen_prob, config)


def _split(params: SystemParams, x: float, config: SimConfig) -> float:
    """The device's split rho in ``config``'s run at ``x``, checked: a power split's own,
    which needs power both ways, or a time split's rho_ts at p = ``x``, which may be 1
    (its downlink sends at full power) but needs p inside its stable region."""
    rho = x if config.scheme == "power_split" else ts_equivalent_rho(x, params.theta)
    if config.scheme == "power_split":
        _check_split(rho, "power-split rho", interior=True)
    else:
        _check_gen_prob(x, params.theta, interior=True)
    # nats, harvests and the threshold divide by lambda d**alpha or N0 d**alpha (monotone rounding)
    if min(params.channel_rate, params.noise_density) * params._d_alpha == 0.0:
        raise ArithmeticError(f"the path loss underflows to 0 at distance {params.distance!r}")
    if uplink_energy_threshold(params, rho) == 0.0:   # each block would bank unboundedly many
        raise ArithmeticError(f"the uplink energy threshold underflows to 0 at rho = {rho!r}")
    return rho


def _run(params: SystemParams, x: float, config: SimConfig) -> SimReport:
    """Aggregate the replications of ``config``'s run at ``x`` (see :func:`_split`)."""
    with started([(params, x, config)]) as jobs:
        # a job no open pool holds is computed here
        outputs = [_pending[job].pop().result() if _pending.get(job) else _replication(*job)
                   for job in jobs]
    return _aggregate(params, config, outputs)


# replication job -> its futures not yet collected, while a started() block
# holds a pool; identical jobs give identical outputs, so any of them serves
_pending: dict = {}


@contextmanager
def started(runs):
    """Submit every replication of ``runs``, (params, x, config) triples as the
    runners take them, to one pool of forked workers; the block gets their jobs.

    Each run is checked (:func:`_split`) before any replication starts. A
    run inside the block collects its replications from the pool. No pool starts
    for a lone job, on one CPU, in a daemon process (a multiprocessing.Pool worker
    may not start children) or inside an open block. On exit the pool cancels
    what no run collected.
    """
    runs = [(params, _split(params, x, config), config) for params, x, config in runs]
    jobs = [(*run, rep) for run in runs for rep in range(run[2].replications)]
    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    if workers < 2 or _pending:
        yield jobs
        return
    # imported here: a command that needs no pool should not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    if multiprocessing.current_process().daemon:
        yield jobs
        return
    # fork, not spawn: workers inherit the imported modules instead of
    # importing numpy again; the pool forks every worker before it starts
    # its own thread, and the engine starts none
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        for job in jobs:
            _pending.setdefault(job, []).append(pool.submit(_replication, *job))
        yield jobs
    finally:
        pool.shutdown(cancel_futures=True)
        _pending.clear()


# ---------------------------------------------------------------------------
# trace dump

_TRACE_HEADER = "epoch,dl_aoi,ul_aoi,buffer_joules,dl_delivery,ul_delivery,ul_tx,energy_block\n"
# the buffer prints as the CLI prints a float, each flag as 0 or 1
_TRACE_ROW = "%d,%d,%d,%.12g,%d,%d,%d,%d\n"


def _trace_lines(lo, hi, dl, ul, tx, energy_cum, sent, threshold, busy) -> list[str]:
    """Trace rows of epochs lo+1..hi, one line per epoch.

    ``dl`` and ``ul`` pair a direction's tally, not yet past this chunk,
    with the chunk's (completion blocks, generation epochs); ``sent`` counts
    the transmissions before the chunk's ``tx``.
    """
    epochs = np.arange(lo + 1, hi + 1, dtype=np.int64)
    energy = np.ones(hi - lo, dtype=bool) if busy is None else ~busy
    ages, delivered = [], []
    for tally, (blocks, gens) in (dl, ul):
        _, g, n = _stretches(blocks + 1, gens, lo, hi, tally.last)
        ages.append(epochs - np.repeat(g, n))
        delivered.append(np.isin(epochs, np.append(blocks + 1, tally.last[0])))
    buffer = energy_cum - (sent + np.searchsorted(tx, epochs, side="right")) * threshold
    columns = (epochs, *ages, buffer, *delivered, np.isin(epochs, tx), energy)
    return [_TRACE_ROW % row for row in zip(*(column.tolist() for column in columns))]
