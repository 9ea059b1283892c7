"""Average age of information for a unilaterally powered two-way link.

Closed-form downlink/uplink ages under power splitting, the optimal
splitting ratio for the weighted-sum age, and a block-level Monte Carlo
simulator (power splitting and a time-splitting baseline) that verifies
every closed form empirically.
"""

from .analytic import (
    AoiBreakdown,
    MomentPair,
    avg_downlink_aoi,
    avg_uplink_aoi,
    data_rates,
    downlink_service_moments,
    downlink_service_pmf,
    harvest_slot_moments,
    harvest_slot_pmf,
    renewal_aoi,
    ts_equivalent_rho,
    uplink_service_moments,
    weighted_sum_aoi,
)
from .model import (
    DerivedLoads,
    SystemParams,
    derive_constants,
    harvested_energy,
    per_block_downlink_nats,
    per_block_uplink_nats,
    uplink_energy_threshold,
)
from .optimizer import (
    OptOptions,
    OptResult,
    SweepPoint,
    aoi_gradient,
    aoi_second_derivative,
    newton_solve,
    sweep_w,
)
from .simulator import (
    ReplicationStats,
    SimConfig,
    SimReport,
    aoi_from_path,
    aoi_via_qk,
    make_stream,
    run_power_splitting,
    run_time_splitting,
    sample_gain,
)

__version__ = "0.1.0"

__all__ = [
    "AoiBreakdown",
    "DerivedLoads",
    "MomentPair",
    "OptOptions",
    "OptResult",
    "ReplicationStats",
    "SimConfig",
    "SimReport",
    "SweepPoint",
    "SystemParams",
    "aoi_from_path",
    "aoi_gradient",
    "aoi_second_derivative",
    "aoi_via_qk",
    "avg_downlink_aoi",
    "avg_uplink_aoi",
    "data_rates",
    "derive_constants",
    "downlink_service_moments",
    "downlink_service_pmf",
    "harvest_slot_moments",
    "harvest_slot_pmf",
    "harvested_energy",
    "make_stream",
    "newton_solve",
    "per_block_downlink_nats",
    "per_block_uplink_nats",
    "renewal_aoi",
    "run_power_splitting",
    "run_time_splitting",
    "sample_gain",
    "sweep_w",
    "ts_equivalent_rho",
    "uplink_energy_threshold",
    "uplink_service_moments",
    "weighted_sum_aoi",
    "__version__",
]
