"""Command-line surface: merging, CSV format, reproducibility, exit codes."""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twoway_aoi import cli, simulator
from twoway_aoi.analytic import ClosedForms, avg_uplink_aoi, weighted_sum
from twoway_aoi.cli import main
from twoway_aoi.model import SystemParams


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def header_lines(text):
    return [ln for ln in text.splitlines() if ln.startswith("#")]


# ---------------------------------------------------------------------------
# analytic


def test_analytic_reference_row(capsys):
    code, out, _ = run_cli(["analytic", "--rho-grid", "0.5", "--w-grid", "0.5"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["rho", "w", "dl_aoi", "ul_aoi_renewal", "ul_aoi_literal",
                      "weighted", "dl_rate", "ul_rate"]
    row = dict(zip(header, rows[0]))
    assert float(row["dl_aoi"]) == pytest.approx(83.49090909, rel=1e-8)
    assert float(row["ul_aoi_renewal"]) == pytest.approx(1172.63126898, rel=1e-8)
    assert float(row["ul_aoi_literal"]) == pytest.approx(1172.13126898, rel=1e-8)
    assert float(row["weighted"]) == pytest.approx(628.06108904, rel=1e-8)


def test_analytic_boundary_rows_serialize_inf(capsys):
    code, out, _ = run_cli(["analytic", "--rho-grid", "0,1", "--w-grid", "0.5"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][3] == "inf"       # uplink age at rho = 0
    assert rows[0][5] == "inf"
    assert rows[1][2] == "inf"       # downlink age at rho = 1
    assert rows[1][7] != "inf"


def test_analytic_grid_cartesian(capsys):
    code, out, _ = run_cli(
        ["analytic", "--rho-grid", "0.3,0.6", "--w-grid", "0.2,0.5,0.8"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 6
    assert [r[0] for r in rows] == ["0.3"] * 3 + ["0.6"] * 3


def test_round_trip_from_header(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    code = main(["analytic", "--rho-grid", "0.1,0.9", "--w-grid", "0.25",
                 "--harvest-eff", "0.3", "--output", str(out1)])
    assert code == 0
    text = out1.read_text()
    cfg = tmp_path / "replay.cfg"
    # the documented replay recipe: drop the leading "# " from each header
    # line; "## ..." meta lines keep a leading "#" and stay comments
    stripped = [ln[2:] if ln.startswith("# ") else ln for ln in header_lines(text)]
    cfg.write_text("\n".join(stripped) + "\n")
    out2 = tmp_path / "b.csv"
    assert main(["analytic", "--config", str(cfg), "--output", str(out2)]) == 0
    assert out2.read_text() == text


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _grid(lo, hi):
    return st.lists(_floats(lo, hi), min_size=1, max_size=4).map(
        lambda vs: ",".join(repr(v) for v in vs))


_SPEC_FLAGS = st.fixed_dictionaries({
    "--total-power": _floats(1e-3, 1.0),
    "--split-ratio": _floats(0.0, 1.0),
    "--channel-rate": _floats(0.5, 5.0),
    "--distance": _floats(0.5, 3.0),
    "--pathloss-exp": _floats(1.5, 4.0),
    "--noise-density": _floats(1e-8, 1e-6),
    "--packet-nats": _floats(0.0, 200.0),
    "--harvest-eff": _floats(0.05, 1.0),
    "--weight-uplink": _floats(0.0, 1.0),
    "--rho-grid": _grid(0.0, 1.0),
    "--w-grid": _grid(0.0, 1.0),
    "--p-grid": _grid(1e-4, 0.03),
    "--num-blocks": st.integers(1, 10**7),
    "--seed": st.integers(0, 2**32),
    "--snr-mode": st.sampled_from(["exact", "linear"]),
    "--rho-init": _floats(0.01, 0.99),
    "--max-iters": st.integers(1, 100),
    "--tol": _floats(1e-12, 1e-3),
    "--boundary-eps": _floats(1e-6, 0.1),
}).map(lambda flags: [str(tok) for kv in flags.items() for tok in kv])

# a gen_prob goes with the time-split scheme only; SimConfig rejects any other pairing
_SCHEME_FLAGS = st.one_of(
    st.just(["--scheme", "power_split"]),
    _floats(1e-4, 0.03).map(lambda p: ["--scheme", "time_split", "--gen-prob", str(p)]))


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["analytic", "optimize"]), flags=_SPEC_FLAGS,
       scheme_flags=_SCHEME_FLAGS)
def test_header_round_trip_random_specs(tmp_path, command, flags, scheme_flags):
    out1, cfg, out2 = tmp_path / "a.csv", tmp_path / "replay.cfg", tmp_path / "b.csv"
    code = main([command, *flags, *scheme_flags, "--output", str(out1)])
    assert code in (0, 2)              # 2: the optimizer may stop short at small max_iters
    text = out1.read_text()
    stripped = [ln[2:] if ln.startswith("# ") else ln for ln in header_lines(text)]
    cfg.write_text("\n".join(stripped) + "\n")
    assert main([command, "--config", str(cfg), "--output", str(out2)]) == code
    assert out2.read_bytes() == out1.read_bytes()


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment line\nharvest_eff = 0.3\nw_grid = 0.5\n")
    code, out, _ = run_cli(
        ["analytic", "--config", str(cfg), "--harvest-eff", "0.9",
         "--rho-grid", "0.5"], capsys)
    assert code == 0
    assert "# harvest_eff = 0.9" in out
    # and the config value is used when no flag is present
    code, out, _ = run_cli(["analytic", "--config", str(cfg), "--rho-grid", "0.5"], capsys)
    assert "# harvest_eff = 0.3" in out


# ---------------------------------------------------------------------------
# optimize


def test_optimize_monotone_and_boundary(capsys):
    grid = ",".join(str(i / 100) for i in range(0, 101))
    code, out, _ = run_cli(["optimize", "--w-grid", grid], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["w", "rho_star", "aoi_star", "method", "iterations"]
    assert len(rows) == 101
    rho = [float(r[1]) for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(rho, rho[1:]))
    assert rows[0][3] == "boundary"
    assert rows[-1][3] == "boundary"
    assert all(r[3] == "newton" for r in rows[1:-1])
    assert all(int(r[4]) <= 30 for r in rows)


def test_optimize_repeatable(tmp_path):
    args = ["optimize", "--w-grid", "0.2,0.5,0.8"]
    f1, f2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
    assert main(args + ["--output", str(f1)]) == 0
    assert main(args + ["--output", str(f2)]) == 0
    assert f1.read_text() == f2.read_text()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_rows_and_determinism(tmp_path):
    args = ["simulate", "--num-blocks", "40000", "--seed", "11",
            "--replications", "3"]
    f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(args + ["--output", str(f1)]) == 0
    assert main(args + ["--output", str(f2)]) == 0
    assert f1.read_text() == f2.read_text()
    header, rows = parse_csv(f1.read_text())
    assert rows[-1][0] == "aggregate"
    assert len(rows) == 4
    agg = dict(zip(header, rows[-1]))
    assert float(agg["mean_dl_aoi"]) == pytest.approx(83.5, rel=0.05)
    assert int(agg["blocks_simulated"]) == 120_000
    assert agg["dl_service_hist"]
    # per-replication rows carry their own statistics
    rep0 = dict(zip(header, rows[0]))
    assert float(rep0["final_buffer_joules"]) >= 0.0


def test_simulate_time_split(capsys):
    code, out, _ = run_cli(
        ["simulate", "--scheme", "time_split", "--gen-prob", "0.01",
         "--num-blocks", "200000", "--seed", "2"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    agg = dict(zip(header, rows[-1]))
    assert float(agg["energy_block_fraction"]) == pytest.approx(0.72, abs=0.02)


def test_simulate_unstable_gen_prob(capsys):
    code, _, err = run_cli(
        ["simulate", "--scheme", "time_split", "--gen-prob", "0.2",
         "--num-blocks", "1000"], capsys)
    assert code == 1
    assert "1/(1+theta)" in err


def test_simulate_round_trip_from_header(tmp_path):
    out1 = tmp_path / "s.csv"
    assert main(["simulate", "--scheme", "time_split", "--gen-prob", "0.02",
                 "--num-blocks", "25000", "--seed", "13", "--output", str(out1)]) == 0
    text = out1.read_text()
    cfg = tmp_path / "replay.cfg"
    stripped = [ln[2:] if ln.startswith("# ") else ln for ln in header_lines(text)]
    cfg.write_text("\n".join(stripped) + "\n")
    out2 = tmp_path / "s2.csv"
    assert main(["simulate", "--config", str(cfg), "--output", str(out2)]) == 0
    assert out2.read_text() == text


def test_censored_window_warns_once_per_direction(capsys):
    # the golden time-split case delivers no uplink packet; at 1000 blocks the
    # power-split uplink delivers only its first packet, so its age is the ramp
    golden = (Path(__file__).parent / "golden" / "simulate_time_split.csv").read_text()
    time_split = ["simulate", "--scheme", "time_split", "--gen-prob", "0.0355",
                  "--num-blocks", "20000", "--seed", "2"]
    for argv, stdout in ((time_split, golden), (["simulate", "--num-blocks", "1000"], None)):
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert stdout is None or out == stdout
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("warning:")
        assert "fewer than two uplink packets" in lines[0]
        assert "mean_ul_aoi" in lines[0]
    code, _, err = run_cli(["simulate", "--num-blocks", "30000", "--seed", "3"], capsys)
    assert code == 0
    assert err == ""


def _run_cli_process(argv):
    # a separate interpreter, so that stderr holds whatever numpy would print
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-m", "twoway_aoi.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ["analytic", "--distance", "1e200"],            # d**alpha
    ["optimize", "--distance", "1e200"],
    ["analytic", "--harvest-eff", "1e-300"],        # the harvest-slot mean squared
    ["optimize", "--harvest-eff", "1e-300"],
    ["optimize", "--w-grid", "0.5", "--packet-nats", "1e300"],   # the gradient
    ["optimize", "--w-grid", "0,0.5,1", "--packet-nats", "1e308"],   # theta = inf
    ["optimize", "--w-grid", "0,0.5,1", "--channel-rate", "1e308"],
])
def test_closed_form_overflow_is_numerical_failure(argv):
    result = _run_cli_process(argv)
    assert result.returncode == 2
    assert result.stderr.startswith("numerical failure: ")
    assert "overflows" in result.stderr
    assert "RuntimeWarning" not in result.stderr


@pytest.mark.parametrize("argv", [
    ["simulate", "--total-power", "1e308", "--num-blocks", "100000"],   # the cumulative harvest
    ["simulate", "--channel-rate", "1e-310", "--num-blocks", "1000"],   # each gain draw
    ["compare", "--channel-rate", "1e-310", "--num-blocks", "1000", "--p-grid", "0.001"],
    ["simulate", "--split-ratio", "5e-324", "--num-blocks", "1000"],    # the energy threshold
    ["simulate", "--distance", "1e-200", "--num-blocks", "1000"],       # d**alpha itself
    ["simulate", "--distance", "1e-170", "--num-blocks", "1000"],
    ["compare", "--distance", "1e-200", "--num-blocks", "1000"],
])
def test_simulated_energy_overflow_is_numerical_failure(argv):
    result = _run_cli_process(argv)
    assert result.returncode == 2
    assert result.stderr.startswith("numerical failure: ")
    assert "RuntimeWarning" not in result.stderr
    # an underflowing path loss names its input
    assert ("distance" in result.stderr) == ("--distance" in argv)


def test_infinite_nats_deliver_a_packet_per_block_without_a_warning():
    # 1e-320 Hz of bandwidth makes every block's nats overflow to inf
    result = _run_cli_process(["simulate", "--bandwidth", "1e-320", "--snr-mode", "exact",
                               "--num-blocks", "1000"])
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout.splitlines()[-1].startswith("aggregate,2,")


# a renewal second moment that overflows prints inf; the published literal
# form has no second moment, so it stays finite
_OVERFLOWING_ROWS = {
    ("--rho-grid", "0.5", "--packet-nats", "1e300"): [
        "0.5,0.5,inf,inf,1.16749456611e+301,inf,1.85185185185e-300,1.28480255373e-301"],
    ("--rho-grid", "5e-324,0.9999999999999999"): [
        "4.94065645841e-324,0.5,42.9821428571,inf,inf,inf,0.0357142857143,0",
        "1,0.5,3.64791569817e+17,588.881080751,588.381080751,1.82395784909e+17,"
        "4.11193712824e-18,0.00255558270578"],
}


@pytest.mark.parametrize("flags", list(_OVERFLOWING_ROWS))
def test_analytic_overflow_to_inf_is_not_a_failure(flags):
    result = _run_cli_process(["analytic", *flags])
    assert result.returncode == 0
    assert result.stderr == ""
    rows = [ln for ln in result.stdout.splitlines() if not ln.startswith("#")]
    assert rows[1:] == _OVERFLOWING_ROWS[flags]


def test_optimize_nonconvergence_is_numerical_failure(capsys):
    # one Newton step cannot reach tol 1e-12 from the default start
    code, out, err = run_cli(["optimize", "--w-grid", "0.5", "--max-iters", "1"], capsys)
    assert code == 2
    assert "converge" in err


@pytest.mark.parametrize("command", ["analytic", "optimize"])
def test_closed_form_commands_warn_that_they_ignore_the_exact_snr_mode(capsys, command):
    # the closed forms take the linear rate: the exact mode changes only the header's echo
    argv = [command, "--total-power", "100", "--packet-nats", "1e6", "--w-grid", "0,0.5,1"]
    runs = {mode: run_cli([*argv, "--snr-mode", mode], capsys) for mode in ("exact", "linear")}
    (code, out, err), (linear_code, linear_out, linear_err) = runs["exact"], runs["linear"]
    assert code == linear_code == 0
    assert out.replace("# snr_mode = exact\n", "# snr_mode = linear\n") == linear_out
    assert "# snr_mode = exact\n" in out
    assert err.count("\n") == 1 and err.startswith(f"warning: {command} ")
    assert "linear (low-SNR) rate" in err and "simulate and compare only" in err
    assert linear_err == ""


def test_a_config_with_the_exact_snr_mode_serves_every_command(tmp_path, capsys):
    cfg = tmp_path / "exact.cfg"
    cfg.write_text("snr_mode = exact\nnum_blocks = 20000\n")
    for command in ("analytic", "optimize", "simulate", "compare"):
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 0 and "# snr_mode = exact\n" in out
        assert err.startswith(f"warning: {command} ") if command in ("analytic", "optimize") \
            else err == ""


# ---------------------------------------------------------------------------
# compare


def test_compare_columns_and_determinism(tmp_path):
    args = ["compare", "--p-grid", "0.005,0.015", "--num-blocks", "60000",
            "--seed", "31"]
    f1, f2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    assert main(args + ["--output", str(f1)]) == 0
    assert main(args + ["--output", str(f2)]) == 0
    assert f1.read_text() == f2.read_text()
    header, rows = parse_csv(f1.read_text())
    assert header == ["p", "rho_ts", "R_ps", "R_ts", "aoi_ps", "aoi_ts"]
    assert float(rows[0][1]) == pytest.approx(0.86, rel=1e-12)
    assert float(rows[1][1]) == pytest.approx(0.58, rel=1e-12)


# the last p cannot run: it lies outside the stable region, on its edge, where no
# energy is transferred, or so close to 0 that rho_ts rounds to 1, where the
# power-split arm would leave the downlink no power
@pytest.mark.parametrize("grid,named", [
    ("0.01,0.9", "0.9"),
    (f"0.01,{1.0 / (1.0 + SystemParams().theta)!r}", "saturates"),
    ("0.01,1e-300", "power-split rho must be in (0, 1), got 1.0"),
], ids=["unstable_after_stable", "saturating_after_stable", "split_rounds_to_one"])
def test_compare_checks_every_p_before_it_simulates(monkeypatch, capsys, grid, named):
    replicated, replicate = [], simulator._replication

    def counted(*job):
        replicated.append(job)
        return replicate(*job)
    monkeypatch.setattr(simulator, "_replication", counted)
    code, out, err = run_cli(["compare", "--p-grid", grid], capsys)
    assert code == 1
    assert out == ""
    assert named in err
    assert replicated == []
    assert not simulator._pending


def test_compare_at_the_edge_of_the_stable_region(capsys):
    # rho_ts = 6.7e-16: the idle time-split blocks bank about 8e17 threshold
    # multiples (5.56 EiB of targets), far more than 20,000 blocks can send
    code, out, err = run_cli(["compare", "--p-grid", "0.0357142857142857",
                              "--num-blocks", "20000"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows == [["0.0357142857143", "6.66133814775e-16", "0.017904040404",
                     "0.0170202020202", "5071.67020202", "5197.10146465"]]
    # neither scheme delivers two uplink packets in the window
    assert err.count("warning: ") == 2


def test_time_split_at_the_edge_of_the_stable_region_over_a_long_horizon(capsys):
    # rho_ts = 3.3e-16: the idle blocks bank 1.7e19 threshold multiples, past
    # the int64 range and past 2**53, where q + 1 == q in float64
    code, out, err = run_cli(["simulate", "--scheme", "time_split",
                              "--gen-prob", "0.03571428571428571",
                              "--num-blocks", "2000000"], capsys)
    assert code == 0
    assert err.count("warning: time_split: 1 of 1 replications delivered fewer than two "
                     "uplink packets") == 1
    # every printed byte, pinned by digest
    assert hashlib.md5(out.encode()).hexdigest() == "7ca1796d7c72312b39990795e5540176"


# ---------------------------------------------------------------------------
# validation and I/O failures


def test_invalid_field_names_the_field(capsys):
    code, _, err = run_cli(["analytic", "--total-power", "-5"], capsys)
    assert code == 1
    assert "total_power" in err


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 3\n")
    code, _, err = run_cli(["analytic", "--config", str(cfg)], capsys)
    assert code == 1
    assert "not_a_key" in err


def test_malformed_config_value(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("total_power = banana\n")
    code, _, err = run_cli(["analytic", "--config", str(cfg)], capsys)
    assert code == 1
    assert "total_power" in err
    cfg.write_text("total_power 5\n")
    code, _, err = run_cli(["analytic", "--config", str(cfg)], capsys)
    assert code == 1
    assert "expected 'key = value'" in err


# Each boundary input through every command that reads it: the exit codes of
# (analytic, optimize, simulate, compare), None where a command does not read it.
# Every command builds SystemParams, SimConfig and OptOptions, so every command
# checks their fields; only the commands that use a value check it further.
_READERS = ("analytic", "optimize", "simulate", "compare")
_TIME_SPLIT = ("--scheme", "time_split", "--gen-prob")
_EXIT_CODES = {
    **{("--weight-uplink", w): (1, 1, 1, 1) for w in ("-0.1", "1.5", "nan")},
    **{("--w-grid", w): (1, 1, None, None) for w in ("-0.1", "1.5", "nan")},
    # a stored split on an edge is a valid parameter; only a power-split run uses it
    ("--split-ratio", "0"): (0, 0, 1, 0),
    ("--split-ratio", "1"): (0, 0, 1, 0),
    **{("--split-ratio", rho): (1, 1, 1, 1) for rho in ("-0.1", "nan")},
    # analytic prints inf ages on an edge
    ("--rho-grid", "0"): (0, None, None, None),
    ("--rho-grid", "1"): (0, None, None, None),
    **{("--rho-grid", rho): (1, None, None, None) for rho in ("-0.1", "nan")},
    **{("--rho-init", rho): (1, 1, 1, 1) for rho in ("0", "1", "-0.1", "nan")},
    # SimConfig knows no theta, so a gen_prob short of 1 passes where no run uses
    # it; compare runs its p grid instead. rho_ts = 1 - 28p at the reference point:
    # 6.66e-16 at p = 0.0357142857142857, and 1.0 at p = 1e-300
    (*_TIME_SPLIT, "0"): (1, 1, 1, 1),
    (*_TIME_SPLIT, "1e-300"): (0, 0, 0, 0),
    (*_TIME_SPLIT, "0.0357142857142857"): (0, 0, 0, 0),
    (*_TIME_SPLIT, "0.5"): (0, 0, 1, 0),
    ("--p-grid", "0"): (None, None, None, 1),
    # a time-split run can go at rho_ts = 1 (simulate above), but compare's
    # power-split arm at rho = rho_ts cannot: it would leave the downlink no power
    ("--p-grid", "1e-300"): (None, None, None, 1),
    ("--p-grid", "0.0357142857142857"): (None, None, None, 0),
    ("--p-grid", "0.5"): (None, None, None, 1),
    **{("--harvest-eff", eta): (1, 1, 1, 1) for eta in ("0", "1.5", "nan")},
}


@pytest.mark.parametrize("command,flags,code", [
    pytest.param(command, flags, code, id=f"{command} {' '.join(flags)}")
    for flags, codes in _EXIT_CODES.items()
    for command, code in zip(_READERS, codes) if code is not None])
def test_boundary_input_exit_codes(capsys, command, flags, code):
    got, out, err = run_cli([command, *flags, "--num-blocks", "2000"], capsys)
    assert got == code
    if code == 1:
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


# gen_prob: power splitting, the default scheme, takes none
@pytest.mark.parametrize("key,raw", [("num_blocks", "abc"), ("snr_mode", "approx"),
                                     ("scheme", "foo"), ("gen_prob", "0.01"),
                                     ("seed", "-1"), ("w_grid", ",")])
def test_bad_value_is_validation_error_by_flag_and_by_config(tmp_path, capsys, key, raw):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"num_blocks = 2000\n{key} = {raw}\n")
    by_flag = ["simulate", "--num-blocks", "2000", f"--{key.replace('_', '-')}", raw]
    for argv in (by_flag, ["simulate", "--config", str(cfg)]):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert key in err


# every command builds its SimConfig, so every command checks the scheme's gen_prob
@pytest.mark.parametrize("command", ["analytic", "optimize", "compare"])
@pytest.mark.parametrize("key,raw", [("gen_prob", "0.3"), ("scheme", "time_split")],
                         ids=["gen_prob_under_power_split", "time_split_without_gen_prob"])
def test_scheme_gen_prob_mismatch_is_validation_error(tmp_path, capsys, command, key, raw):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"p_grid = 0.005\nnum_blocks = 2000\n{key} = {raw}\n")
    by_flag = [command, "--p-grid", "0.005", "--num-blocks", "2000",
               f"--{key.replace('_', '-')}", raw]
    for argv in (by_flag, [command, "--config", str(cfg)]):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert "gen_prob" in err


@pytest.mark.parametrize(
    "argv", [["simulate", "--bogus", "1"], [], ["simulate", "--num", "2000"]],
    ids=["unknown_flag", "missing_command", "abbreviated_flag"])
def test_usage_error_is_validation_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    # the one usage line names every flag, and every command takes them all
    assert "--num-blocks" in err


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "twoway-aoi 0.1.0\n"


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_help_lists_every_flag_and_command(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for key in cli._KEYS:
        assert f"--{key.replace('_', '-')}" in out
    for name in cli._COMMANDS:
        assert f"{name}:" in out


def test_config_directory_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(["analytic", "--config", str(tmp_path)], capsys)
    assert code == 3
    assert err.startswith("error:")


def test_missing_config_is_io_error(capsys):
    code, _, err = run_cli(["analytic", "--config", "/nonexistent/x.cfg"], capsys)
    assert code == 3


def test_unwritable_output_is_io_error(capsys):
    code, _, err = run_cli(
        ["analytic", "--rho-grid", "0.5", "--output", "/nonexistent/dir/out.csv"], capsys)
    assert code == 3


@given(x=st.floats(allow_nan=True, allow_infinity=True))
def test_percent_template_prints_floats_as_format_does(x):
    # every row template formats a float cell with '%.12g'; the CSV has always
    # held format(x, '.12g')
    assert "%.12g" % x == format(x, ".12g")


def _template_line(row):
    """The reference row rule: '%.12g' for a float subclass and '%s' for any
    other cell, the cells joined by commas."""
    kinds = tuple(map(type, row))
    return ",".join("%.12g" if issubclass(k, float) else "%s" for k in kinds) % tuple(row)


_ANY_FLOAT = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.sampled_from([float("nan"), float("inf"), -float("inf"),
                                        -0.0, 5e-324, 1.8e308]))
_FLOATS = st.one_of(_ANY_FLOAT, _ANY_FLOAT.map(np.float64))
_INT64 = st.integers(-2**63, 2**63 - 1)
_INTS = st.one_of(st.integers(), _INT64.map(np.int64))
_TEXTS = st.one_of(st.text(), st.sampled_from(["", "newton", "boundary", "1:2|3:4"]))


@given(f=st.lists(_FLOATS, min_size=8, max_size=8), n=st.lists(_INTS, min_size=2, max_size=2),
       text=st.lists(_TEXTS, min_size=3, max_size=3),
       trace=st.tuples(_INT64, _INT64, _INT64, _ANY_FLOAT, *[st.booleans()] * 4))
def test_row_templates_match_the_template_rule(f, n, text, trace):
    # each command formats a row with one '%' on its template; the bytes must be
    # the ones the reference rule gives for the whole row, empty cells included
    rows = [
        (cli._OPTIMIZE_ROW % (*f[:3], text[0], n[0]), [*f[:3], text[0], n[0]]),
        (cli._REPLICATION_ROW % (n[0], *f[:5], n[1], *f[5:7]),
         [n[0], *f[:5], "", "", n[1], *f[5:7], "", "", ""]),
        (cli._AGGREGATE_ROW % (*f[:7], n[1], f[7], *text),
         ["aggregate", *f[:7], n[1], f[7], "", *text]),
        (cli._COMPARE_ROW % tuple(f[:6]), f[:6]),
    ]
    # analytic: a rho's template, then each w's cell and weighted age
    rho, dl, ul, literal, weighted, dl_rate, ul_rate, w = f[:8]
    template = cli._ANALYTIC_ROW % (rho, dl, ul, literal, dl_rate, ul_rate)
    rows.append((template % (cli._FLOAT % w, weighted),
                 [rho, w, dl, ul, literal, weighted, dl_rate, ul_rate]))
    for line, row in rows:
        assert line == _template_line(row)
    # the trace's template, on numpy scalars as a frame holds them and on the Python
    # values tolist() gives, against the rule the dump had as one f-string per epoch
    epoch, dl_age, ul_age, buffer, *flags = trace
    frame = (np.int64(epoch), np.int64(dl_age), np.int64(ul_age), np.float64(buffer),
             *map(np.bool_, flags))
    dl_flag, ul_flag, tx_flag, energy = frame[4:]
    expected = (f"{frame[0]},{frame[1]},{frame[2]},{frame[3]:.12g},"
                f"{int(dl_flag)},{int(ul_flag)},{int(tx_flag)},{int(energy)}\n")
    assert simulator._TRACE_ROW % frame == expected
    assert simulator._TRACE_ROW % tuple(x.item() for x in frame) == expected


_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(rho=st.lists(_UNIT, min_size=1, max_size=12), w=st.lists(_UNIT, min_size=1, max_size=5),
       eta=st.floats(1e-3, 1.0))
def test_analytic_lines_match_one_row_per_point(rho, w, eta):
    argv = ["analytic", "--rho-grid", ",".join(map(repr, rho)),
            "--w-grid", ",".join(map(repr, w)), "--harvest-eff", repr(eta)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    body = [ln for ln in out.getvalue().splitlines() if not ln.startswith("#")][1:]
    # the reference formats a whole row per (rho, w) point, rho-major
    forms = ClosedForms(SystemParams(harvest_eff=eta))
    grid = np.array(rho)
    dl, ul = forms.ages(grid)
    literal = avg_uplink_aoi(forms.loads(grid)[1], eta, "literal")
    dl_rate, ul_rate = forms.rates(grid)
    weighted = [weighted_sum(x, dl, ul) for x in w]
    expected = [_template_line([r, x, dl[i], ul[i], literal[i], weighted[k][i], dl_rate[i],
                                ul_rate[i]])
                for i, r in enumerate(rho) for k, x in enumerate(w)]
    assert body == expected


def test_twelve_significant_digits(capsys):
    code, out, _ = run_cli(["analytic", "--rho-grid", "0.5", "--w-grid", "0.5"], capsys)
    _, rows = parse_csv(out)
    cell = rows[0][3]  # uplink renewal age
    digits = cell.replace(".", "").replace("-", "").lstrip("0")
    assert len(digits) == 12
    assert float(cell) == pytest.approx(1172.63126898, abs=1e-6)
