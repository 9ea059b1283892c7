"""Monte Carlo engine against closed forms and a literal per-block reference.

The reference implementations below re-derive every delivery and every
per-epoch age with plain Python loops from the same random streams; the
vectorized engine must agree exactly. Statistical checks then pin the
engine to the closed forms at scale.
"""

import concurrent.futures
import math
import multiprocessing
import os
import tempfile
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twoway_aoi import simulator
from twoway_aoi.analytic import (
    avg_downlink_aoi,
    avg_uplink_aoi,
    downlink_service_pmf,
    harvest_slot_pmf,
    ts_equivalent_rho,
)
from twoway_aoi.cli import main
from twoway_aoi.model import (
    SystemParams,
    derive_constants,
    harvested_energy,
    per_block_downlink_nats,
    per_block_uplink_nats,
    uplink_energy_threshold,
)
from twoway_aoi.simulator import (
    SimConfig,
    _transmit_schedule,
    _walk_packets,
    aoi_from_path,
    aoi_via_qk,
    make_stream,
    run_power_splitting,
    run_time_splitting,
    sample_gain,
)

REF = SystemParams()


# ---------------------------------------------------------------------------
# reference implementations (loops only)


def _mean_age_by_epoch(resets: dict, n: int, warmup: int) -> float:
    age = 0
    total = 0
    for epoch in range(1, n + 1):
        age = resets[epoch] if epoch in resets else age + 1
        if epoch > warmup:
            total += age
    return total / (n - warmup)


def _crossings(cum_energy, threshold):
    cross = []
    k = 1
    cum = 0.0
    for blk, e in enumerate(cum_energy, start=1):
        cum += e
        while cum >= k * threshold:
            cross.append(blk)
            k += 1
    return cross


def _tx_schedule(cross, n):
    tx = []
    for i, m in enumerate(cross):
        t = m + 1 if i == 0 else tx[-1] + max(1, m - cross[i - 1])
        if t > n:
            break
        tx.append(t)
    return tx


def _drain(blocks_nats, packet_nats):
    """Completion slot indices for zero-wait packets over per-slot nats."""
    completions = []
    acc = 0.0
    for i, nats in enumerate(blocks_nats):
        acc += nats
        if acc >= packet_nats:
            completions.append(i)
            acc = 0.0
    return completions


def _walk_reference(cum_nats, packet_nats, limit):
    """The walk as one searchsorted call per packet, over the cumulative nats."""
    n = len(cum_nats)
    completions = []
    start = 0
    anchor = 0.0
    for _ in range(limit):
        j = max(int(np.searchsorted(cum_nats, anchor + packet_nats, side="left")), start)
        if j >= n:
            break
        completions.append(j)
        anchor = float(cum_nats[j])
        start = j + 1
    return completions


def reference_power_split(params, rho, n, seed, warmup, snr_mode="linear"):
    lam = params.channel_rate
    threshold = uplink_energy_threshold(params, rho)

    dl_gain = sample_gain(make_stream(seed, 0, "dl_gain"), lam, n)
    dl_nats = [float(per_block_downlink_nats(params, rho, g, snr_mode)) for g in dl_gain]
    dl_resets = {}
    dl_blocks, dl_services = [], []
    gen = 0
    for i in _drain(dl_nats, params.packet_nats):
        blk = i + 1
        dl_blocks.append(blk)
        dl_services.append(blk - gen)
        dl_resets[blk + 1] = blk + 1 - gen
        gen = blk

    hv_gain = sample_gain(make_stream(seed, 0, "harvest_gain"), lam, n)
    energy = [float(harvested_energy(params, rho, g)) for g in hv_gain]
    cross = _crossings(energy, threshold)
    tx = _tx_schedule(cross, n)

    ul_gain = sample_gain(make_stream(seed, 0, "ul_gain"), lam, len(tx))
    ul_nats = [float(per_block_uplink_nats(params, rho, g, snr_mode)) for g in ul_gain]
    ul_resets = {}
    ul_blocks, ul_services = [], []
    gen = 0
    for i in _drain(ul_nats, params.packet_nats):
        blk = tx[i]
        ul_blocks.append(blk)
        ul_services.append(blk - gen)
        ul_resets[blk + 1] = blk + 1 - gen
        gen = blk

    return {
        "mean_dl_aoi": _mean_age_by_epoch(dl_resets, n, warmup),
        "mean_ul_aoi": _mean_age_by_epoch(ul_resets, n, warmup),
        "dl_rate": sum(warmup < b <= n for b in dl_blocks) / (n - warmup),
        "ul_rate": sum(warmup < b <= n for b in ul_blocks) / (n - warmup),
        "dl_services": [s for b, s in zip(dl_blocks, dl_services) if warmup < b <= n],
        "ul_services": [s for b, s in zip(ul_blocks, ul_services) if warmup < b <= n],
        "slots": [b - a for a, b in zip(tx, tx[1:]) if warmup < b <= n],
        "tx": tx,
        "final_buffer": sum(energy) - threshold * len(tx),
    }


def reference_time_split(params, p, n, seed, warmup, snr_mode="linear"):
    lam = params.channel_rate
    rho_ts = ts_equivalent_rho(p, params.theta)
    threshold = uplink_energy_threshold(params, rho_ts)

    u = make_stream(seed, 0, "packet_gen").random(n)
    dl_gain = sample_gain(make_stream(seed, 0, "dl_gain"), lam, n)
    hv_gain = sample_gain(make_stream(seed, 0, "harvest_gain"), lam, n)

    queue = []
    dl_resets = {}
    dl_blocks, dl_services = [], []
    acc = 0.0
    in_service = 0
    data_idx = 0
    energy = [0.0] * n
    energy_blocks = 0
    for blk in range(1, n + 1):
        if u[blk - 1] < p:
            queue.append(blk - 1)  # generation epoch: start of this block
        if queue:
            acc += float(per_block_downlink_nats(params, 0.0, dl_gain[data_idx], snr_mode))
            data_idx += 1
            in_service += 1
            if acc >= params.packet_nats:
                g = queue.pop(0)
                dl_blocks.append(blk)
                dl_services.append(in_service)
                dl_resets[blk + 1] = blk + 1 - g
                acc = 0.0
                in_service = 0
        else:
            energy[blk - 1] = float(harvested_energy(params, 1.0, hv_gain[blk - 1]))
            if blk > warmup:
                energy_blocks += 1

    cross = _crossings(energy, threshold)
    tx = _tx_schedule(cross, n)
    ul_gain = sample_gain(make_stream(seed, 0, "ul_gain"), lam, len(tx))
    ul_nats = [float(per_block_uplink_nats(params, rho_ts, g, snr_mode)) for g in ul_gain]
    ul_resets = {}
    ul_blocks, ul_services = [], []
    gen = 0
    for i in _drain(ul_nats, params.packet_nats):
        blk = tx[i]
        ul_blocks.append(blk)
        ul_services.append(blk - gen)
        ul_resets[blk + 1] = blk + 1 - gen
        gen = blk

    return {
        "mean_dl_aoi": _mean_age_by_epoch(dl_resets, n, warmup),
        "mean_ul_aoi": _mean_age_by_epoch(ul_resets, n, warmup),
        "dl_rate": sum(warmup < b <= n for b in dl_blocks) / (n - warmup),
        "ul_rate": sum(warmup < b <= n for b in ul_blocks) / (n - warmup),
        "dl_services": [s for b, s in zip(dl_blocks, dl_services) if warmup < b <= n],
        "ul_services": [s for b, s in zip(ul_blocks, ul_services) if warmup < b <= n],
        "slots": [b - a for a, b in zip(tx, tx[1:]) if warmup < b <= n],
        "energy_block_fraction": energy_blocks / (n - warmup),
        "tx": tx,
        "final_buffer": sum(energy) - threshold * len(tx),
    }


# ---------------------------------------------------------------------------
# randomness contracts


def test_sample_gain_reproducible():
    a = sample_gain(make_stream(1, 0, "dl_gain"), 3.0)
    b = sample_gain(make_stream(1, 0, "dl_gain"), 3.0)
    assert a == b
    arr1 = sample_gain(make_stream(1, 0, "dl_gain"), 3.0, 10)
    arr2 = sample_gain(make_stream(1, 0, "dl_gain"), 3.0, 10)
    assert np.array_equal(arr1, arr2)
    assert arr1[0] == a  # chunked and scalar draws share the stream


def test_streams_differ_by_tag_and_replication():
    base = sample_gain(make_stream(1, 0, "dl_gain"), 3.0, 5)
    assert not np.array_equal(base, sample_gain(make_stream(1, 0, "ul_gain"), 3.0, 5))
    assert not np.array_equal(base, sample_gain(make_stream(1, 1, "dl_gain"), 3.0, 5))
    assert not np.array_equal(base, sample_gain(make_stream(2, 0, "dl_gain"), 3.0, 5))
    with pytest.raises(ValueError):
        make_stream(1, 0, "nonsense")


def test_sample_gain_statistics():
    lam = 3.0
    g = sample_gain(make_stream(7, 0, "dl_gain"), lam, 1_000_000)
    se = (1 / lam) / 1000.0
    assert g.mean() == pytest.approx(1 / lam, abs=4 * se)
    assert (g > 1 / lam).mean() == pytest.approx(math.exp(-1), abs=0.002)
    assert g.min() > 0


@settings(max_examples=200, deadline=None)
@given(lam=st.one_of(st.sampled_from([5e-324, 1e300, np.finfo(float).max, math.inf]),
                     st.floats(1e-300, 1e300)),
       size=st.integers(0, 50), seed=st.integers(0, 2**16))
@example(lam=5e-324, size=50, seed=1)
@example(lam=1e300, size=50, seed=1)
@example(lam=np.finfo(float).max, size=50, seed=1)
@example(lam=math.inf, size=50, seed=1)
def test_sample_gain_in_place_matches_allocating_call(lam, size, seed):
    buf = np.full(size + 1, np.nan)
    with np.errstate(over="ignore"):    # -log1p(-u) / 5e-324 overflows for most draws
        want = sample_gain(make_stream(seed, 0, "dl_gain"), lam, size)
        got = sample_gain(make_stream(seed, 0, "dl_gain"), lam, out=buf[1:])
        lone = sample_gain(make_stream(seed, 0, "dl_gain"), lam)
        # the draw as one expression
        formula = -np.log1p(-make_stream(seed, 0, "dl_gain").random(size)) / lam
    assert got.base is buf and np.isnan(buf[0])
    assert got.tobytes() == want.tobytes() == formula.tobytes()
    if size:
        assert np.float64(lone).tobytes() == want[:1].tobytes()
    with pytest.raises(ValueError, match="lam must be > 0"):
        sample_gain(make_stream(seed, 0, "dl_gain"), -lam, out=buf[1:])
    assert buf[1:].tobytes() == want.tobytes()


@pytest.mark.parametrize("lam", [math.nan, 0.0, -math.inf])
def test_sample_gain_rejects_a_bad_rate_before_it_draws(lam):
    buf = np.full(3, 7.0)
    for size, out in ((None, None), (3, None), (None, buf)):
        with pytest.raises(ValueError, match="lam must be > 0"):
            sample_gain(make_stream(0, 0, "dl_gain"), lam, size, out=out)
    assert (buf == 7.0).all()


# ---------------------------------------------------------------------------
# engine vs reference (exact agreement)


def _assert_matches_reference(rep, ref):
    assert rep.mean_dl_aoi == ref["mean_dl_aoi"]
    assert rep.mean_ul_aoi == ref["mean_ul_aoi"]
    assert rep.dl_rate == ref["dl_rate"]
    assert rep.ul_rate == ref["ul_rate"]
    assert rep.dl_service_hist == _as_hist(ref["dl_services"])
    assert rep.ul_service_hist == _as_hist(ref["ul_services"])
    assert rep.harvest_slot_hist == _as_hist(ref["slots"])
    if "energy_block_fraction" in ref:
        assert rep.energy_block_fraction == pytest.approx(ref["energy_block_fraction"], abs=0)
    assert rep.per_replication[0].final_buffer_joules == pytest.approx(
        ref["final_buffer"], rel=1e-9)
    assert rep.per_replication[0].dl_packets == len(ref["dl_services"])
    assert rep.per_replication[0].ul_packets == len(ref["ul_services"])


@pytest.mark.parametrize("rho,seed", [(0.5, 11), (0.2, 12), (0.8, 13)])
def test_power_split_matches_reference(rho, seed):
    n, warmup = 4000, 40
    cfg = SimConfig(num_blocks=n, seed=seed, warmup_blocks=warmup)
    rep = run_power_splitting(REF, rho, cfg)
    _assert_matches_reference(rep, reference_power_split(REF, rho, n, seed, warmup))


# 0.033 loads the queue to p(1 + theta) = 0.92: packets wait behind one another
@pytest.mark.parametrize("p,seed", [(0.01, 21), (0.003, 22), (0.02, 23), (0.033, 24)])
def test_time_split_matches_reference(p, seed):
    n, warmup = 4000, 40
    cfg = SimConfig(num_blocks=n, seed=seed, warmup_blocks=warmup,
                    scheme="time_split", gen_prob=p)
    rep = run_time_splitting(REF, p, cfg)
    _assert_matches_reference(rep, reference_time_split(REF, p, n, seed, warmup))


@settings(max_examples=200, deadline=None)
@given(scheme=st.sampled_from(["power_split", "time_split"]),
       snr_mode=st.sampled_from(["linear", "exact"]),
       packet_nats=st.floats(0.5, 200.0), harvest_eff=st.floats(0.05, 1.0),
       distance=st.floats(0.5, 3.0),
       load=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       num_blocks=st.integers(1, 2500), warmup=st.floats(0.0, 1.0, exclude_max=True),
       seed=st.integers(0, 2**16))
def test_engine_matches_reference_across_parameters(scheme, snr_mode, packet_nats, harvest_eff,
                                                     distance, load, num_blocks, warmup, seed):
    # the power split runs at rho = load; the time split at up to 0.97 of its stable
    # region p < 1/(1 + theta)
    params = SystemParams(packet_nats=packet_nats, harvest_eff=harvest_eff, distance=distance)
    w = int(warmup * num_blocks)
    if scheme == "power_split":
        if uplink_energy_threshold(params, load) == 0.0:    # a subnormal rho
            with pytest.raises(ArithmeticError, match="threshold underflows"):
                run_power_splitting(params, load, SimConfig(num_blocks=num_blocks))
            return
        cfg = SimConfig(num_blocks=num_blocks, seed=seed, warmup_blocks=w, snr_mode=snr_mode)
        rep = run_power_splitting(params, load, cfg)
        ref = reference_power_split(params, load, num_blocks, seed, w, snr_mode)
    else:
        p = 0.97 * load / (1.0 + params.theta)
        assume(p > 0.0)     # a subnormal load rounds to p = 0
        cfg = SimConfig(num_blocks=num_blocks, seed=seed, warmup_blocks=w, snr_mode=snr_mode,
                        scheme=scheme, gen_prob=p)
        rep = run_time_splitting(params, p, cfg)
        ref = reference_time_split(params, p, num_blocks, seed, w, snr_mode)
    _assert_matches_reference(rep, ref)


def test_time_split_first_packet_unfinished_at_horizon_matches_reference():
    # at this seed the first packet arrives in block 1 and cannot finish in 10 blocks
    n, seed, p = 10, 12, 0.03
    cfg = SimConfig(num_blocks=n, seed=seed, warmup_blocks=0, scheme="time_split", gen_prob=p)
    rep = run_time_splitting(REF, p, cfg)
    ref = reference_time_split(REF, p, n, seed, 0)
    assert make_stream(seed, 0, "packet_gen").random(1)[0] < p
    assert rep.dl_rate == ref["dl_rate"] == 0.0
    assert rep.dl_service_hist == {}
    assert rep.mean_dl_aoi == ref["mean_dl_aoi"]
    assert rep.energy_block_fraction == ref["energy_block_fraction"] == 0.0


# zero-nat blocks tie in the cumulative path; tenths round when summed
_NATS = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3]), st.floats(0.0, 5.0))


@settings(max_examples=300, deadline=None)
@given(nats=st.lists(_NATS, max_size=60),
       packet_nats=st.one_of(st.sampled_from([0.0, 0.3, 1.0]), st.floats(0.0, 12.0)))
def test_walk_matches_searchsorted_reference(nats, packet_nats):
    cum = np.cumsum(np.asarray(nats, dtype=np.float64))
    got = _walk_packets(cum, packet_nats)
    assert got.dtype == np.int64
    # a limit above any possible number of completions
    assert got.tolist() == _walk_reference(cum, packet_nats, len(nats) + 1)


@settings(max_examples=200, deadline=None)
@given(nats=st.lists(_NATS, max_size=200),
       packet_nats=st.one_of(st.sampled_from([0.0, 0.3, 1.0]), st.floats(0.0, 12.0)),
       cuts=st.lists(st.integers(0, 200), max_size=8),
       steps=st.lists(st.integers(1, 4), min_size=200, max_size=200))
def test_walk_fed_in_pieces_matches_one_walk(nats, packet_nats, cuts, steps):
    nats = np.asarray(nats, dtype=np.float64)
    # a strictly increasing block for each slot, as transmit blocks number uplink slots
    block_map = np.cumsum(np.asarray(steps[: len(nats)], dtype=np.int64))
    walk, mapped = simulator._Walk(packet_nats), simulator._Walk(packet_nats)
    got, services, got_mapped, services_mapped = [], [], [], []
    at = sorted(min(c, len(nats)) for c in cuts)
    for piece, piece_blocks in zip(np.split(nats, at), np.split(block_map, at)):
        # each walk cumsums its own copy in place, behind a slot for its carry
        blocks, served = walk.completions(np.append(np.nan, piece))
        got += blocks.tolist()
        services += served.tolist()
        blocks, served = mapped.completions(np.append(np.nan, piece), piece_blocks)
        got_mapped += blocks.tolist()
        services_mapped += served.tolist()
    cum = np.cumsum(nats)
    whole = _walk_packets(cum, packet_nats)
    assert [b - 1 for b in got] == whole.tolist()
    assert services == np.diff(whole, prepend=-1).tolist()
    assert got_mapped == block_map[whole].tolist()
    assert services_mapped == np.diff(block_map[whole], prepend=0).tolist()
    assert walk.fed == mapped.fed == len(nats)
    assert walk.total == (float(cum[-1]) if len(cum) else 0.0)   # one sequential sum


def _age_by_loop(resets: dict, start: int, horizon: int, last) -> list:
    """Age at epochs start+1..horizon, one epoch at a time from the reset ``last``."""
    resets = {last[0]: last[1], **resets}
    age, ages = 0, []
    for epoch in range(last[0], horizon + 1):
        age = resets[epoch] if epoch in resets else age + 1
        if epoch > start:
            ages.append(age)
    return ages


@settings(max_examples=300, deadline=None)
@given(epochs=st.lists(st.integers(1, 120), unique=True, max_size=25),
       values=st.lists(st.integers(1, 60), min_size=25, max_size=25),
       warmup=st.integers(0, 130), horizon=st.integers(0, 130),
       last=st.tuples(st.integers(0, 131), st.integers(0, 60)))
def test_stretches_match_age_by_loop(epochs, values, warmup, horizon, last):
    # deliveries at epochs d with ages v right after them: generation epochs d - v
    d = np.array(sorted(epochs), dtype=np.int64)
    v = np.array(values[: len(d)], dtype=np.int64)

    def check(start, last):
        # the ages at epochs start+1..horizon after the (epoch, age) delivery ``last``
        want = _age_by_loop(dict(zip(d.tolist(), v.tolist())), start, horizon, last)
        stretches = simulator._stretches(d, d - v, start, horizon, (last[0], last[0] - last[1]))
        _, g, n = stretches
        assert (np.arange(start + 1, horizon + 1) - np.repeat(g, n)).tolist() == want
        assert simulator._age_sum(*stretches) == sum(want)

    # the path from age 0 at epoch 0, over the whole horizon and over a window
    check(0, (0, 0))
    check(warmup, (0, 0))
    # the carried form: deliveries after a latest one at or before epoch warmup+1
    last = (min(last[0], warmup + 1), last[1])
    after = d > last[0]
    d, v = d[after], v[after]
    check(warmup, last)


def _as_hist(values):
    out = {}
    for v in values:
        out[int(v)] = out.get(int(v), 0) + 1
    return dict(sorted(out.items()))


def test_exact_mode_never_faster_than_linear():
    n = 200_000
    cfg_lin = SimConfig(num_blocks=n, seed=5, snr_mode="linear")
    cfg_exa = SimConfig(num_blocks=n, seed=5, snr_mode="exact")
    lin = run_power_splitting(REF, 0.5, cfg_lin)
    exa = run_power_splitting(REF, 0.5, cfg_exa)
    # same gains, pointwise smaller per-block nats: services can only lengthen
    assert exa.mean_dl_aoi >= lin.mean_dl_aoi
    assert exa.mean_ul_aoi >= lin.mean_ul_aoi
    assert exa.dl_rate <= lin.dl_rate


# ---------------------------------------------------------------------------
# determinism and validation


def test_report_deterministic():
    cfg = SimConfig(num_blocks=30_000, seed=99, replications=2)
    a = run_power_splitting(REF, 0.5, cfg)
    b = run_power_splitting(REF, 0.5, cfg)
    assert a == b


# ---------------------------------------------------------------------------
# parallel replications


@pytest.fixture
def pools(monkeypatch):
    """Worker counts of the process pools created while the test runs."""
    made = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            made.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return made


def _cpus(monkeypatch, count):
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.mark.parametrize("run,x,scheme,gen_prob", [
    (run_power_splitting, 0.5, "power_split", None),
    (run_time_splitting, 0.02, "time_split", 0.02),
])
def test_pool_matches_sequential(monkeypatch, pools, run, x, scheme, gen_prob):
    cfg = SimConfig(num_blocks=20_000, seed=8, replications=3, scheme=scheme,
                    gen_prob=gen_prob)
    _cpus(monkeypatch, 1)
    sequential = run(REF, x, cfg)
    _cpus(monkeypatch, 2)
    pooled = run(REF, x, cfg)
    assert pools == [2]
    assert pooled.per_replication == sequential.per_replication
    assert pooled == sequential


def test_worker_arithmetic_error_is_numerical_failure(monkeypatch, pools, capsys):
    parent = os.getpid()

    def broken(*args):
        raise ArithmeticError("in a worker" if os.getpid() != parent else "in the parent")

    monkeypatch.setattr(simulator, "_transmit_schedule", broken)   # inherited by fork
    _cpus(monkeypatch, 2)
    assert main(["simulate", "--num-blocks", "2000", "--replications", "3"]) == 2
    assert pools == [2]
    assert "numerical failure: in a worker" in capsys.readouterr().err


def test_threshold_underflow_is_refused_before_any_pool(monkeypatch, pools):
    # a subnormal rho rounds the energy per transmit block to 0
    _cpus(monkeypatch, 2)
    with pytest.raises(ArithmeticError, match="threshold underflows to 0 at rho = 1e-320"):
        run_power_splitting(REF, 1e-320, SimConfig(num_blocks=2000, replications=2))
    assert pools == []


def test_one_replication_starts_no_pool(monkeypatch, pools):
    _cpus(monkeypatch, 2)
    run_power_splitting(REF, 0.5, SimConfig(num_blocks=2000))
    assert pools == []


def _power_split_reference_point(cfg):
    return run_power_splitting(REF, 0.5, cfg)


def test_daemon_process_runs_replications_in_process(monkeypatch):
    # a multiprocessing.Pool worker is a daemon, which may not start processes
    cfg = SimConfig(num_blocks=2000, seed=5, replications=2)
    _cpus(monkeypatch, 2)
    with multiprocessing.get_context("fork").Pool(1) as outer:
        nested = outer.apply_async(_power_split_reference_point, (cfg,)).get(timeout=60)
    assert nested == run_power_splitting(REF, 0.5, cfg)


_COMPARE = ["compare", "--num-blocks", "1000", "--p-grid", "0.005,0.02", "--seed", "4"]
_POOLED_COMMANDS = {
    "compare": _COMPARE,
    "compare-3-replications": _COMPARE + ["--replications", "3"],
    "simulate-3-replications": ["simulate", "--num-blocks", "1000", "--seed", "4",
                                "--replications", "3"],
}


@pytest.mark.parametrize("argv", _POOLED_COMMANDS.values(), ids=_POOLED_COMMANDS)
def test_pool_changes_no_output_byte(monkeypatch, pools, capsys, argv):
    # stdout and the censoring warnings on stderr, inline (one CPU) and pooled
    captured = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        assert main(argv) == 0
        captured.append(capsys.readouterr())
    assert pools == [2]
    assert "warning: " in captured[0].err
    assert captured[1] == captured[0]


@pytest.mark.parametrize("replications", [1, 3])
def test_compare_collects_every_replication_from_the_pool(monkeypatch, replications):
    # a job key that differs from the runner's by one bit (a recomputed rho,
    # say) would run in the parent, and only a slower benchmark would show it
    parent, inline, submitted, uncollected, fork_threads = os.getpid(), [], [], [], []
    schedule, fork = simulator._transmit_schedule, os.fork

    def recording_schedule(*args):
        if os.getpid() == parent:
            inline.append(args)
        return schedule(*args)

    def recording_fork():
        fork_threads.append(threading.active_count())
        return fork()

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def submit(self, fn, *args):
            submitted.append(args)
            return super().submit(fn, *args)

        def shutdown(self, *args, **kwargs):
            uncollected.append(sum(map(len, simulator._pending.values())))
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(simulator, "_transmit_schedule", recording_schedule)
    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    _cpus(monkeypatch, 2)
    threads = threading.active_count()
    assert main(_COMPARE + ["--replications", str(replications)]) == 0
    assert len(submitted) == 2 * 2 * replications
    assert inline == []
    assert uncollected == [0]
    assert not simulator._pending
    # every worker forks before the pool starts its own thread
    assert fork_threads == [threads] * 2


def test_compare_worker_failure_exits_2_and_leaves_no_process(monkeypatch, pools, capsys):
    parent = os.getpid()

    def broken(*args):
        raise ArithmeticError("in a worker" if os.getpid() != parent else "in the parent")

    monkeypatch.setattr(simulator, "_transmit_schedule", broken)   # inherited by fork
    _cpus(monkeypatch, 2)
    argv = ["compare", "--num-blocks", "2000", "--p-grid", "0.005,0.01,0.02",
            "--replications", "2"]
    assert main(argv) == 2
    assert pools == [2]
    assert capsys.readouterr().err == "numerical failure: in a worker\n"
    assert multiprocessing.active_children() == []
    assert not simulator._pending


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(num_blocks=0)
    with pytest.raises(ValueError):
        SimConfig(num_blocks=100, warmup_blocks=100)
    with pytest.raises(ValueError):
        SimConfig(num_blocks=100, replications=0)
    with pytest.raises(ValueError):
        SimConfig(num_blocks=100, snr_mode="approx")
    with pytest.raises(ValueError):
        SimConfig(num_blocks=100, scheme="time_split")        # gen_prob missing
    with pytest.raises(ValueError):
        SimConfig(num_blocks=100, gen_prob=0.1)               # not time_split
    with pytest.raises(ValueError, match="seed"):
        SimConfig(num_blocks=100, seed=-1)
    # counts and seeds are integers: a float is refused, not truncated
    for key, value in [("num_blocks", 1000.5), ("seed", 1.5), ("replications", 2.0),
                       ("warmup_blocks", 10.5), ("num_blocks", "1000")]:
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            SimConfig(**{"num_blocks": 1000, key: value})
    for integer in (np.int64(1000), np.uint16(1000)):
        assert SimConfig(num_blocks=integer, seed=np.int32(3), warmup_blocks=np.int8(10),
                         replications=np.uint8(2)).resolved_warmup() == 10
    with pytest.raises(ValueError):
        run_power_splitting(REF, 1.0, SimConfig(num_blocks=100))
    with pytest.raises(ValueError, match="config.scheme"):
        run_power_splitting(REF, 0.5, SimConfig(num_blocks=100, scheme="time_split",
                                                gen_prob=0.01))
    with pytest.raises(ValueError, match="config.scheme"):
        run_time_splitting(REF, 0.01, SimConfig(num_blocks=100))
    # p = 1/(1 + theta) leaves no block for energy transfer
    limit = 1.0 / (1.0 + REF.theta)
    assert ts_equivalent_rho(limit, REF.theta) == 0.0
    with pytest.raises(ValueError, match="saturates"):
        run_time_splitting(REF, limit, SimConfig(num_blocks=100, scheme="time_split",
                                                 gen_prob=limit))
    with pytest.raises(ValueError, match="stable"):
        run_time_splitting(REF, 0.2, SimConfig(num_blocks=100, scheme="time_split",
                                               gen_prob=0.2))
    with pytest.raises(ValueError, match="config.gen_prob"):
        run_time_splitting(REF, 0.01, SimConfig(num_blocks=100, scheme="time_split",
                                                gen_prob=0.02))


def test_energy_causality_violation_is_numerical_failure():
    # harvests whose cumulative path falls back below a crossing it already made
    harvest = np.diff([0.3, 3.9, 2.6, 3.8, 1.4, 3.0], prepend=0.0)
    with pytest.raises(ArithmeticError, match="energy causality"):
        _transmit_schedule(np.append(np.nan, harvest), 1.0, simulator._Schedule(6, 6))


def test_schedule_clips_counts_to_the_horizon():
    # 5e300 multiples per block, past the int64 range: the reference loops
    # cannot enumerate them, and only the horizon's 4 blocks can send
    tx, gaps, _ = _transmit_schedule(np.array([np.nan, 0.0, 5.0, 5.0, 0.0]), 1e-300,
                                     simulator._Schedule(4, 4))
    assert tx.tolist() == [3, 4]
    assert gaps.tolist() == [1]


# runs of zero harvest, tenths that round when summed, and sizes up to many thresholds
_HARVEST = st.one_of(st.just(0.0), st.sampled_from([0.1, 0.2, 0.3]), st.floats(0.0, 5.0))


@settings(max_examples=300, deadline=None)
@given(harvest=st.lists(_HARVEST, min_size=1, max_size=120),
       threshold=st.one_of(st.sampled_from([0.01, 0.1, 0.3, 1.0]), st.floats(0.005, 8.0)),
       short=st.integers(0, 120),
       cuts=st.lists(st.integers(1, 119), max_size=8))
@example(harvest=[0.0, 0.0, 5.0, 0.0, 5.0, 0.3], threshold=0.01, short=3, cuts=[3])
# floor(e / threshold) is one multiple too many at 1.7 / 0.1 and one too few at 4.3 / 0.1
@example(harvest=[1.7] + [0.0] * 20, threshold=0.1, short=0, cuts=[9])
@example(harvest=[4.3] + [0.0] * 45, threshold=0.1, short=0, cuts=[])
def test_schedule_matches_reference_loops(harvest, threshold, short, cuts):
    # a horizon shorter than the path lets the horizon clip bind on a block
    # that banks more multiples than the horizon has blocks
    n = len(harvest)
    horizon = max(1, n - short)
    state = simulator._Schedule(horizon, n)
    got_tx, got_gaps = [], []
    for piece in np.split(np.asarray(harvest), sorted({c for c in cuts if c < n})):
        tx, gaps, _ = _transmit_schedule(np.append(np.nan, piece), threshold, state)
        got_tx += tx.tolist()
        got_gaps += gaps.tolist()
    assert [t for t in got_tx if t <= horizon] == _tx_schedule(_crossings(harvest, threshold),
                                                               horizon)
    assert got_gaps == np.diff(got_tx).tolist()
    assert state.offset == n and state.sent == len(got_tx)


def test_warmup_default_is_one_percent():
    assert SimConfig(num_blocks=1_000_000).resolved_warmup() == 10_000
    assert SimConfig(num_blocks=500, warmup_blocks=7).resolved_warmup() == 7


# ---------------------------------------------------------------------------
# closed-form agreement at scale


def test_zero_load_downlink_age_is_two():
    p0 = SystemParams(packet_nats=0.0)
    rep = run_power_splitting(p0, 0.5, SimConfig(num_blocks=1_000_000, seed=3))
    assert abs(rep.mean_dl_aoi - 2.0) <= 0.01
    assert rep.dl_rate == pytest.approx(1.0, abs=1e-6)


def test_downlink_service_distribution_fit():
    # >= 1e5 packets against the shifted-Poisson pmf, total variation < 0.01
    rep = run_power_splitting(REF, 0.5, SimConfig(num_blocks=6_000_000, seed=17))
    hist = rep.dl_service_hist
    total = sum(hist.values())
    assert total >= 100_000
    top = max(hist) + 10
    tv = 0.5 * sum(abs(hist.get(j, 0) / total - downlink_service_pmf(54.0, j))
                   for j in range(1, top))
    assert tv < 0.01


def test_harvest_slot_distribution_fit():
    rep = run_power_splitting(REF, 0.5, SimConfig(num_blocks=2_200_000, seed=19))
    hist = rep.harvest_slot_hist
    total = sum(hist.values())
    assert total >= 1_000_000
    eta = REF.harvest_eff

    def slot_pmf(j):
        return harvest_slot_pmf(eta, j) + (harvest_slot_pmf(eta, 0) if j == 1 else 0.0)

    top = max(hist) + 10
    tv = 0.5 * sum(abs(hist.get(j, 0) / total - slot_pmf(j)) for j in range(1, top))
    assert tv < 0.01


@pytest.mark.parametrize("rho", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("eta", [0.3, 0.5, 0.9])
def test_oracle_matrix(rho, eta):
    """Empirical ages against the closed forms across the operating range."""
    params = SystemParams(harvest_eff=eta)
    loads = derive_constants(params, rho)
    rep = run_power_splitting(params, rho,
                              SimConfig(num_blocks=2_000_000, seed=101, replications=5))
    want_dl = avg_downlink_aoi(loads.dl_load)
    want_ul = avg_uplink_aoi(loads.ul_load, eta, "renewal")
    assert abs(rep.mean_dl_aoi - want_dl) <= 3 * rep.std_error_dl_aoi
    assert abs(rep.mean_ul_aoi - want_ul) <= 3 * rep.std_error_ul_aoi
    # renewal is at least as close as the literal closed form
    lit = avg_uplink_aoi(loads.ul_load, eta, "literal")
    assert abs(rep.mean_ul_aoi - want_ul) <= abs(rep.mean_ul_aoi - lit) + 6 * rep.std_error_ul_aoi


def test_rate_consistency():
    rep = run_power_splitting(REF, 0.5, SimConfig(num_blocks=1_000_000, seed=23))
    mean_service = sum(j * c for j, c in rep.dl_service_hist.items()) / sum(
        rep.dl_service_hist.values())
    assert 0.99 <= rep.dl_rate * mean_service <= 1.01
    mean_ul = sum(j * c for j, c in rep.ul_service_hist.items()) / sum(
        rep.ul_service_hist.values())
    assert 0.99 <= rep.ul_rate * mean_ul <= 1.01


def test_energy_conservation():
    n, seed, rho = 300_000, 31, 0.4
    rep = run_power_splitting(REF, rho, SimConfig(num_blocks=n, seed=seed))
    harvested = harvested_energy(
        REF, rho, sample_gain(make_stream(seed, 0, "harvest_gain"), REF.channel_rate, n)).sum()
    threshold = uplink_energy_threshold(REF, rho)
    slots = sum(rep.harvest_slot_hist.values())
    stats = rep.per_replication[0]
    spent = harvested - stats.final_buffer_joules
    assert spent / threshold == pytest.approx(round(spent / threshold), abs=1e-6)
    assert stats.final_buffer_joules >= 0.0
    assert round(spent / threshold) >= slots  # all counted transmissions were funded


# ---------------------------------------------------------------------------
# time splitting at scale


def test_ts_energy_fraction_tracks_rho_ts():
    for p in (0.005, 0.015):
        cfg = SimConfig(num_blocks=2_000_000, seed=41, scheme="time_split", gen_prob=p)
        rep = run_time_splitting(REF, p, cfg)
        assert rep.energy_block_fraction == pytest.approx(
            ts_equivalent_rho(p, REF.theta), abs=0.01)
        assert rep.dl_rate == pytest.approx(p, rel=0.05)


def test_ts_small_p_mostly_energy():
    cfg = SimConfig(num_blocks=1_000_000, seed=43, scheme="time_split", gen_prob=0.001)
    rep = run_time_splitting(REF, 0.001, cfg)
    assert rep.energy_block_fraction == pytest.approx(1.0 - 0.001 * 28, abs=0.01)
    assert rep.energy_block_fraction > 0.95


def test_ts_downlink_service_distribution():
    # full-power services follow the shifted Poisson with the base load theta
    cfg = SimConfig(num_blocks=3_000_000, seed=47, scheme="time_split", gen_prob=0.01)
    rep = run_time_splitting(REF, 0.01, cfg)
    hist = rep.dl_service_hist
    total = sum(hist.values())
    assert total > 20_000
    top = max(hist) + 10
    tv = 0.5 * sum(abs(hist.get(j, 0) / total - downlink_service_pmf(27.0, j))
                   for j in range(1, top))
    assert tv < 0.02


# ---------------------------------------------------------------------------
# path helpers


def test_aoi_path_deterministic_services():
    ones = [(k, 1) for k in range(1, 101)]
    assert aoi_from_path(ones) == 2.0
    assert aoi_via_qk(ones) == 2.0
    twos = [(2 * k, 2) for k in range(1, 101)]
    assert aoi_from_path(twos) == 3.5
    assert aoi_via_qk(twos) == 3.5


def test_aoi_path_methods_agree_up_to_edges():
    rng = np.random.default_rng(6)
    services = 1 + rng.poisson(8.0, 10_000)
    epochs = np.cumsum(services)
    deliveries = list(zip(epochs.tolist(), services.tolist()))
    direct = aoi_from_path(deliveries)
    via_qk = aoi_via_qk(deliveries)
    span = epochs[-1] - epochs[0]
    assert abs(direct - via_qk) <= services.max() ** 2 / span


def test_aoi_path_matches_renewal_formula():
    rng = np.random.default_rng(8)
    services = 1 + rng.poisson(5.0, 200_000)
    epochs = np.cumsum(services)
    deliveries = list(zip(epochs.tolist(), services.tolist()))
    want = avg_downlink_aoi(5.0)
    assert aoi_from_path(deliveries) == pytest.approx(want, rel=5e-3)


def test_aoi_path_validation():
    with pytest.raises(ValueError):
        aoi_from_path([])
    with pytest.raises(ValueError):
        aoi_from_path([(1, 1)])
    with pytest.raises(ValueError):
        aoi_from_path([(2, 1), (2, 1)])
    with pytest.raises(ValueError):
        aoi_via_qk([(1, 1), (3, 0)])
    with pytest.raises(ValueError, match="two deliveries"):
        aoi_via_qk([(1, 1)])
    with pytest.raises(ValueError, match="pairs"):
        aoi_via_qk([(1, 1, 1), (3, 2, 1)])
    # a fractional epoch or service is refused, not truncated to [(1, 1), (3, 2)]
    for deliveries in ([(1.5, 1), (3, 2)], [(1, 1.9), (3, 2)]):
        for aoi in (aoi_from_path, aoi_via_qk):
            with pytest.raises(ValueError, match="integers"):
                aoi(deliveries)


# ---------------------------------------------------------------------------
# trace dump


def test_trace_dump(tmp_path):
    path = tmp_path / "trace.csv"
    cfg = SimConfig(num_blocks=500, seed=1, warmup_blocks=0, trace_path=str(path))
    rep = run_power_splitting(REF, 0.5, cfg)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,dl_aoi,ul_aoi,buffer_joules,dl_delivery,ul_delivery,ul_tx,energy_block"
    assert len(lines) == 501
    rows = [line.split(",") for line in lines[1:]]
    buffers = [float(r[3]) for r in rows]
    assert min(buffers) >= 0.0                      # energy never overdrawn
    ages = [int(r[1]) for r in rows]
    mean_from_trace = sum(ages) / len(ages)
    assert mean_from_trace == pytest.approx(rep.mean_dl_aoi, rel=1e-12)
    n_tx = sum(int(r[6]) for r in rows)
    assert n_tx == sum(rep.harvest_slot_hist.values()) + 1  # first tx has no gap


# ---------------------------------------------------------------------------
# chunked streaming


def _outputs(run, params, x, cfg):
    """A run's report, per-replication stats and trace bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        report = run(params, x, replace(cfg, trace_path=str(path)))
        return report, report.per_replication, path.read_bytes()


@settings(max_examples=40, deadline=None)
@given(scheme=st.sampled_from(["power_split", "time_split"]),
       snr_mode=st.sampled_from(["linear", "exact"]),
       packet_nats=st.one_of(st.just(0.0), st.floats(1.0, 40.0)),
       load=st.floats(0.05, 0.95),
       num_blocks=st.integers(2, 400),
       warmup=st.floats(0.0, 0.99),
       seed=st.integers(0, 2**16))
@example(scheme="power_split", snr_mode="linear", packet_nats=0.0, load=0.5,
         num_blocks=300, warmup=0.0, seed=3)
@example(scheme="time_split", snr_mode="linear", packet_nats=0.0, load=0.5,
         num_blocks=300, warmup=0.0, seed=3)
# the last arrival cannot finish within the horizon (the unfinished-packet sentinel)
@example(scheme="time_split", snr_mode="linear", packet_nats=100.0, load=0.03 * 28,
         num_blocks=300, warmup=0.0, seed=11)
# warmups of 70 (a multiple of 7), 64 and num_blocks - 1 = 63 blocks
@example(scheme="power_split", snr_mode="linear", packet_nats=5.0, load=0.5,
         num_blocks=280, warmup=0.25, seed=5)
@example(scheme="time_split", snr_mode="linear", packet_nats=5.0, load=0.5,
         num_blocks=280, warmup=0.25, seed=5)
@example(scheme="power_split", snr_mode="exact", packet_nats=5.0, load=0.5,
         num_blocks=256, warmup=0.25, seed=6)
@example(scheme="time_split", snr_mode="exact", packet_nats=5.0, load=0.5,
         num_blocks=256, warmup=0.25, seed=6)
@example(scheme="power_split", snr_mode="linear", packet_nats=5.0, load=0.5,
         num_blocks=64, warmup=63 / 64, seed=7)
@example(scheme="time_split", snr_mode="linear", packet_nats=5.0, load=0.5,
         num_blocks=64, warmup=63 / 64, seed=7)
def test_chunk_size_does_not_change_results(scheme, snr_mode, packet_nats, load,
                                            num_blocks, warmup, seed):
    params = SystemParams(packet_nats=packet_nats)
    if scheme == "power_split":
        run, x, gen_prob = run_power_splitting, load, None
    else:
        # a fraction of the stable region p <= 1/(1 + theta)
        run, x = run_time_splitting, load / (1.0 + params.theta)
        gen_prob = x
    cfg = SimConfig(num_blocks=num_blocks, seed=seed, warmup_blocks=int(warmup * num_blocks),
                    snr_mode=snr_mode, scheme=scheme, gen_prob=gen_prob)
    assert simulator._CHUNK_BLOCKS >= num_blocks
    whole = _outputs(run, params, x, cfg)
    for chunk in (1, 2, 7, 64, num_blocks):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_CHUNK_BLOCKS", chunk)
            assert _outputs(run, params, x, cfg) == whole, chunk


@pytest.mark.parametrize("size", [1, 7, 64, None], ids=["1", "7", "64", "n"])
def test_chunks_tile_the_horizon_and_end_one_at_the_warmup(monkeypatch, size):
    for n in range(1, 201):
        monkeypatch.setattr(simulator, "_CHUNK_BLOCKS", size or n)
        for warmup in range(n):
            chunks = list(simulator._chunks(SimConfig(num_blocks=n, warmup_blocks=warmup)))
            bounds = [(lo, hi) for lo, hi, _ in chunks]
            assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
            assert bounds[-1][1] == n
            assert all(1 <= hi - lo <= (size or n) for lo, hi in bounds)
            assert not any(lo < warmup < hi for lo, hi in bounds)
            assert [window for *_, window in chunks] == [lo >= warmup for lo, _ in bounds]


def _peak_bytes(run, x, cfg):
    tracemalloc.start()
    try:
        run(REF, x, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("run,x,scheme,gen_prob", [
    (run_power_splitting, 0.5, "power_split", None),
    (run_time_splitting, 0.01, "time_split", 0.01),
])
def test_replication_memory_does_not_grow_with_horizon(run, x, scheme, gen_prob):
    peaks = [_peak_bytes(run, x, SimConfig(num_blocks=n, seed=1, scheme=scheme,
                                           gen_prob=gen_prob))
             for n in (250_000, 2_000_000)]
    # whole-horizon arrays took about 35 bytes per block: 70 MB at 2e6 blocks
    assert peaks[1] < 12e6
    assert peaks[1] < peaks[0] + 2e6


def test_schedule_banks_no_crossing_the_horizon_cannot_send():
    # at rho_ts = 1e-6 an idle block banks about eta / rho_ts = 5e5 threshold
    # multiples; a schedule that placed them all was killed for lack of memory
    # at 20,000 blocks. Peaks measured 12.03-12.79 MB over 8 seeds at rho_ts
    # 5e-7 to 1e-4 (the search stops at the horizon's blocks, so the peak
    # grows with the horizon: 2.3 MB at 20,000 blocks)
    p = (1.0 - 1e-6) / (1.0 + REF.theta)
    cfg = SimConfig(num_blocks=200_000, seed=1, scheme="time_split", gen_prob=p)
    assert _peak_bytes(run_time_splitting, p, cfg) < 16e6


def test_schedule_memory_near_saturation_grows_by_a_byte_per_block():
    # at rho_ts = 3.3e-16 the first idle blocks bank more multiples than the
    # horizon can send, so every later block waits in the backlog. The peak
    # grew by 1.8-3.4 MB from 2e5 to 2e6 blocks over seeds 1-8, against
    # +69-70 MB (seeds 1-3) when the backlog held one spacing per crossing
    p = 0.0357142857142857
    peaks = [_peak_bytes(run_time_splitting, p, SimConfig(num_blocks=n, seed=1,
                                                          scheme="time_split", gen_prob=p))
             for n in (200_000, 2_000_000)]
    assert peaks[1] < peaks[0] + 6e6


def test_time_split_draws_downlink_gains_only_for_served_blocks(monkeypatch):
    n, p = 1_000_000, 0.002
    dl_streams, draws = [], []

    def stream(seed, rep, tag):
        gen = make_stream(seed, rep, tag)
        if tag == "dl_gain":
            dl_streams.append(gen)
        return gen

    def gain(gen, lam, size=None, out=None):
        if any(gen is s for s in dl_streams):
            draws.append(size if out is None else len(out))
        return sample_gain(gen, lam, size, out)

    monkeypatch.setattr(simulator, "make_stream", stream)
    monkeypatch.setattr(simulator, "sample_gain", gain)
    cfg = SimConfig(num_blocks=n, seed=1, warmup_blocks=0, scheme="time_split", gen_prob=p)
    rep = run_time_splitting(REF, p, cfg)
    served = n - round(rep.energy_block_fraction * n)     # data blocks
    assert 0 < served < 0.1 * n
    assert served <= sum(draws) <= served + simulator._CHUNK_BLOCKS
