"""Golden outputs: the bytes of every command at fixed inputs, pinned to files.

The determinism tests elsewhere compare a run with itself, so they cannot
notice a refactor that changes a printed digit; these tests compare each
run with bytes recorded in ``tests/golden/``. The cases cover both
boundary and bisection rows of ``optimize``, a 1001-weight ``optimize``
grid, a 101-weight ``optimize`` grid away from the reference point, both
schemes, the exact SNR mode, several replications, a
time-split walk that ends on the unfinished-packet sentinel, and
per-epoch trace dumps of both schemes.
Every case runs twice: at the default chunk size, which holds each recorded
horizon in one chunk, and at 97 blocks, which crosses many chunk boundaries.

After an intended change of output, re-record every file with

    PYTHONPATH=src python tests/test_golden.py

and say in the commit why the bytes changed.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from twoway_aoi import simulator
from twoway_aoi.cli import main
from twoway_aoi.model import SystemParams
from twoway_aoi.simulator import SimConfig, run_power_splitting, run_time_splitting

GOLDEN = Path(__file__).parent / "golden"

CLI_CASES = {
    "analytic": ["analytic", "--rho-grid", "0,0.05,0.3,0.5,0.8,1",
                 "--w-grid", "0,0.25,1", "--harvest-eff", "0.3"],
    "optimize": ["optimize", "--w-grid", ",".join(str(i / 10) for i in range(11))],
    # the line search accepts on the objective's last bit, so a fine grid pins its digits
    "optimize_fine": ["optimize", "--w-grid", ",".join(str(i / 1000) for i in range(1001))],
    "optimize_bisection": ["optimize", "--w-grid", "0.1,0.5,0.9", "--tol", "0.05",
                           "--rho-init", "0.01"],
    # the other cases pin the reference point only
    "optimize_params": ["optimize", "--w-grid", ",".join(str(i / 100) for i in range(101)),
                        "--harvest-eff", "0.2", "--distance", "2.5", "--packet-nats", "10"],
    "simulate_power_split": ["simulate", "--scheme", "power_split", "--num-blocks", "30000",
                             "--seed", "3", "--replications", "2"],
    # at this seed the last arrival cannot finish within the horizon
    "simulate_time_split": ["simulate", "--scheme", "time_split", "--gen-prob", "0.0355",
                            "--num-blocks", "20000", "--seed", "2"],
    "simulate_exact": ["simulate", "--snr-mode", "exact", "--split-ratio", "0.3",
                       "--num-blocks", "30000", "--seed", "4"],
    "compare": ["compare", "--p-grid", "0.005,0.02", "--num-blocks", "20000", "--seed", "5"],
}

# short packets, so that both directions deliver within 300 blocks
_SHORT = SystemParams(packet_nats=5.0)
TRACE_CASES = {
    "trace_power_split": (run_power_splitting, 0.5,
                          SimConfig(num_blocks=300, seed=1, warmup_blocks=0)),
    "trace_time_split": (run_time_splitting, 0.3,
                         SimConfig(num_blocks=300, seed=2, warmup_blocks=0,
                                   scheme="time_split", gen_prob=0.3)),
}

CASES = sorted([*CLI_CASES, *TRACE_CASES])


def _write(name: str, path: Path) -> int:
    """Produce case ``name`` at ``path``; returns the command's exit code."""
    if name in CLI_CASES:
        return main(CLI_CASES[name] + ["--output", str(path)])
    run, x, cfg = TRACE_CASES[name]
    run(_SHORT, x, replace(cfg, trace_path=str(path)))
    return 0


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(name, tmp_path):
    path = tmp_path / f"{name}.csv"
    assert _write(name, path) == 0
    assert path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden_in_short_chunks(name, tmp_path, monkeypatch):
    monkeypatch.setattr(simulator, "_CHUNK_BLOCKS", 97)
    path = tmp_path / f"{name}.csv"
    assert _write(name, path) == 0
    assert path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        if _write(case, GOLDEN / f"{case}.csv") != 0:
            raise SystemExit(f"case {case} exited nonzero")
        print(f"recorded {GOLDEN / case}.csv")
