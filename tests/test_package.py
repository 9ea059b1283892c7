"""The package root: it exports each module's ``__all__`` and nothing else."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import twoway_aoi
# cli is imported for the trace test: twoway_aoi.cli is bound only once imported
from twoway_aoi import analytic, cli, model, optimizer, simulator  # noqa: F401

# the names the root exported while it listed them by hand
_EXPORTED_BEFORE = [
    "AoiBreakdown", "DerivedLoads", "MomentPair", "OptOptions", "OptResult",
    "ReplicationStats", "SimConfig", "SimReport", "SweepPoint", "SystemParams",
    "aoi_from_path", "aoi_gradient", "aoi_second_derivative", "aoi_via_qk",
    "avg_downlink_aoi", "avg_uplink_aoi", "data_rates", "derive_constants",
    "downlink_service_moments", "downlink_service_pmf", "harvest_slot_moments",
    "harvest_slot_pmf", "harvested_energy", "make_stream", "newton_solve",
    "per_block_downlink_nats", "per_block_uplink_nats", "renewal_aoi",
    "run_power_splitting", "run_time_splitting", "sample_gain", "sweep_w",
    "ts_equivalent_rho", "uplink_energy_threshold", "uplink_service_moments",
    "weighted_sum_aoi", "__version__",
]


def test_all_is_the_union_of_the_module_lists():
    modules = (analytic, model, optimizer, simulator)
    expected = {name for module in modules for name in module.__all__} | {"__version__"}
    assert len(twoway_aoi.__all__) == len(set(twoway_aoi.__all__))
    assert set(twoway_aoi.__all__) == expected
    for module in modules:
        for name in module.__all__:
            assert getattr(twoway_aoi, name) is getattr(module, name)


def test_earlier_exports_still_resolve():
    for name in _EXPORTED_BEFORE:
        assert name in twoway_aoi.__all__
        assert hasattr(twoway_aoi, name)


def test_pool_block_is_not_exported():
    # the command line is the one caller of simulator.started
    assert "started" not in twoway_aoi.__all__
    assert not hasattr(twoway_aoi, "started")


def test_benchmark_trace_boundaries_resolve():
    # bench/run.py --trace 1 wraps these names in the calling module's namespace
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.BOUNDARIES:
        assert callable(getattr(getattr(twoway_aoi, module), attr)), (module, attr)


def test_cli_import_loads_no_pool_modules():
    # worker pools are imported when a run first needs one, so that starting
    # the command line does not pay for them
    code = ("import sys, twoway_aoi.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
