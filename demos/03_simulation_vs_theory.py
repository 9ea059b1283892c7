"""Monte Carlo verification of every closed form at the reference point.

Runs ten independent replications of one million blocks and compares the
empirical ages, rates, and distributions against the analytic values.
The uplink age is compared against both candidate closed forms; the
renewal composition is the one the sample paths follow (the published
expression sits exactly half a block lower).
"""

from twoway_aoi import SimConfig, SystemParams, derive_constants, run_power_splitting
from twoway_aoi.analytic import (
    avg_downlink_aoi,
    avg_uplink_aoi,
    data_rates,
    downlink_service_pmf,
    harvest_slot_moments,
    harvest_slot_pmf,
)

params = SystemParams()
rho = 0.5
loads = derive_constants(params, rho)

report = run_power_splitting(params, rho,
                             SimConfig(num_blocks=1_000_000, seed=1, replications=10))

dl_want = avg_downlink_aoi(loads.dl_load)
ul_renewal = avg_uplink_aoi(loads.ul_load, params.harvest_eff, "renewal")
ul_literal = avg_uplink_aoi(loads.ul_load, params.harvest_eff, "literal")
dl_rate, ul_rate = data_rates(params, rho)

print(f"{'quantity':<22} {'simulated':>14} {'analytic':>14} {'deviation':>12}")
print(f"{'downlink age':<22} {report.mean_dl_aoi:>14.4f} {dl_want:>14.4f} "
      f"{(report.mean_dl_aoi - dl_want) / report.std_error_dl_aoi:>10.2f} SE")
print(f"{'uplink age (renewal)':<22} {report.mean_ul_aoi:>14.4f} {ul_renewal:>14.4f} "
      f"{(report.mean_ul_aoi - ul_renewal) / report.std_error_ul_aoi:>10.2f} SE")
print(f"{'uplink age (literal)':<22} {report.mean_ul_aoi:>14.4f} {ul_literal:>14.4f} "
      f"{(report.mean_ul_aoi - ul_literal) / report.std_error_ul_aoi:>10.2f} SE")
print(f"{'downlink rate':<22} {report.dl_rate:>14.6f} {dl_rate:>14.6f}")
print(f"{'uplink rate':<22} {report.ul_rate:>14.6f} {ul_rate:>14.6f}")

# distribution fits, total-variation distance
hist = report.dl_service_hist
total = sum(hist.values())
tv = 0.5 * sum(abs(hist.get(j, 0) / total - downlink_service_pmf(loads.dl_load, j))
               for j in range(1, max(hist) + 10))
print(f"\ndownlink service TV distance: {tv:.5f}  ({total} packets)")

hist = report.harvest_slot_hist
total = sum(hist.values())
eta = params.harvest_eff
tv = 0.5 * sum(abs(hist.get(j, 0) / total - harvest_slot_pmf(eta, j)
                   - (harvest_slot_pmf(eta, 0) if j == 1 else 0.0))
               for j in range(1, max(hist) + 10))
print(f"harvest-slot TV distance:     {tv:.5f}  ({total} transmit blocks)")
print(f"mean harvest slots: {sum(j * c for j, c in hist.items()) / total:.5f} "
      f"(analytic {harvest_slot_moments(eta).m1:.5f})")
