"""Command-line surface: merging, CSV format, reproducibility, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twoway_aoi.cli import main


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
])
def test_closed_form_overflow_is_numerical_failure(argv):
    result = _run_cli_process(argv)
    assert result.returncode == 2
    assert result.stderr.startswith("numerical failure: ")
    assert "overflows" in result.stderr
    assert "RuntimeWarning" not in result.stderr


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
    if argv:
        # the usage line of the command, which lists the flags it accepts
        assert "usage: twoway-aoi simulate" in err


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
    # _emit formats float cells with '%.12g'; the CSV has always held format(x, '.12g')
    assert "%.12g" % x == format(x, ".12g")


def test_twelve_significant_digits(capsys):
    code, out, _ = run_cli(["analytic", "--rho-grid", "0.5", "--w-grid", "0.5"], capsys)
    _, rows = parse_csv(out)
    cell = rows[0][3]  # uplink renewal age
    digits = cell.replace(".", "").replace("-", "").lstrip("0")
    assert len(digits) == 12
    assert float(cell) == pytest.approx(1172.63126898, abs=1e-6)
