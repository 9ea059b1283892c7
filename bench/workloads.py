"""The four benchmark workloads: argv lists per op, work per op, output checks.

An op is one or two in-process calls of ``twoway_aoi.cli.main``. This module
imports neither numpy nor the package at import time, so that the set-up
probe times their import, not ours.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
from dataclasses import dataclass, field

P_GRID = (0.002, 0.005, 0.008, 0.012, 0.015)
W_GRID_SWEEP = ",".join(repr(i / 1000) for i in range(1001))
RHO_GRID_TABLE = ",".join(repr((i + 1) / 1002) for i in range(1001))
W_GRID_TABLE = "0.25,0.5,0.75"

# parameter sets the closed-form workload rotates over, one per op
CLOSED_FORM_PARAMS = (
    {},
    {"harvest_eff": 0.2},
    {"harvest_eff": 1.0},
    {"distance": 1.0},
    {"distance": 2.5},
    {"packet_nats": 10.0},
)


@dataclass
class Op:
    """One unit of timed work: the CLI calls and what checking them needs."""

    index: int
    argvs: list[list[str]]
    info: dict = field(default_factory=dict)


@dataclass
class Checked:
    """What the output check of one op found."""

    ok: bool
    counts: dict
    note: str = ""
    pooled: dict = field(default_factory=dict)


def parse_csv(text: str) -> list[dict]:
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def body_digest(text: str) -> str:
    """sha256 of a CSV output without its ``## twoway-aoi <version>`` line."""
    body = "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("## twoway-aoi "))
    return hashlib.sha256(body.encode()).hexdigest()


def _hist_total(cell: str) -> int:
    return sum(int(pair.split(":")[1]) for pair in cell.split("|") if pair)


class Workload:
    def check_run(self, checked: list[Checked]) -> list[str]:
        """Checks over all of a run's ops; returns the problems found."""
        return []


class Simulate(Workload):
    """``simulate`` of the power-splitting scheme at rho = 0.5."""

    work_unit = "simulated blocks"

    def __init__(self, name, num_blocks, replications, packet_nats, age_rtol, nominal_op_s):
        self.name = name
        self.num_blocks, self.replications = num_blocks, replications
        self.packet_nats = packet_nats
        self.age_rtol = age_rtol
        self.nominal_op_s = nominal_op_s
        self.work_per_op = num_blocks * replications
        self._theory = None

    def ops(self, seed: int, count: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        base = ["simulate", "--split-ratio", "0.5", "--packet-nats", repr(self.packet_nats),
                "--num-blocks", str(self.num_blocks),
                "--replications", str(self.replications)]
        return [Op(i, [base + ["--seed", str(rng.randrange(2**31))]]) for i in range(count)]

    def theory(self):
        if self._theory is None:
            from twoway_aoi.analytic import avg_downlink_aoi, avg_uplink_aoi
            from twoway_aoi.model import SystemParams, derive_constants
            params = SystemParams(packet_nats=self.packet_nats)
            loads = derive_constants(params, 0.5)
            self._theory = {"dl": avg_downlink_aoi(loads.dl_load),
                            "ul": avg_uplink_aoi(loads.ul_load, params.harvest_eff)}
        return self._theory

    def check(self, op: Op, texts: list[str], run_cli) -> Checked:
        rows = parse_csv(texts[0])
        agg = rows[-1]
        counts = {
            "simulator.runs": 1,
            "simulator.blocks": int(agg["blocks_simulated"]),
            "simulator.dl_packets": _hist_total(agg["dl_service_hist"]),
            "simulator.ul_packets": _hist_total(agg["ul_service_hist"]),
        }
        problems = []
        if agg["replication"] != "aggregate" or len(rows) != self.replications + 1:
            problems.append(f"expected {self.replications} replication rows and an aggregate")
        if counts["simulator.blocks"] != self.work_per_op:
            problems.append(f"blocks_simulated {counts['simulator.blocks']} != {self.work_per_op}")
        for side, column in (("dl", "mean_dl_aoi"), ("ul", "mean_ul_aoi")):
            got, want = float(agg[column]), self.theory()[side]
            if not abs(got - want) <= self.age_rtol[side] * want:
                problems.append(f"{column} {got!r} vs closed form {want!r}")
        return Checked(not problems, counts, "; ".join(problems))


class Compare(Workload):
    """``compare`` of time splitting against power splitting over a p grid.

    Criterion 7's rules hold for expectations; one 1e6-block op's rate ratio
    has a standard deviation of about 0.008 around 0.974, so on a single op
    the [0.95, 1.05] rule fails about one op in a hundred by chance. The
    rules are therefore applied to the mean over the run's ops, per p value.
    """

    name = "ts-compare"
    work_unit = "simulated blocks"
    num_blocks = 1_000_000
    nominal_op_s = 1.4
    work_per_op = 2 * len(P_GRID) * num_blocks

    def ops(self, seed: int, count: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for i in range(count):
            op_seed = str(rng.randrange(2**31))
            argv = ["compare", "--p-grid", ",".join(repr(p) for p in P_GRID),
                    "--num-blocks", str(self.num_blocks), "--seed", op_seed]
            ops.append(Op(i, [argv], {"seed": op_seed, "p_index": i % len(P_GRID)}))
        return ops

    def check(self, op: Op, texts: list[str], run_cli) -> Checked:
        rows = parse_csv(texts[0])
        counts = {"simulator.runs": 2 * len(rows),
                  "simulator.blocks": 2 * len(rows) * self.num_blocks}
        if [float(r["p"]) for r in rows] != list(P_GRID):
            return Checked(False, counts, "p column differs from the p grid")
        ratios = [float(r["R_ts"]) / float(r["R_ps"]) for r in rows]
        # one time-split run of the same spec by `simulate`: its weighted age must
        # equal compare's aoi_ts, and its energy-block fraction feeds criterion 7
        k = op.info["p_index"]
        p, row = P_GRID[k], rows[k]
        code, text = run_cli(["simulate", "--scheme", "time_split", "--gen-prob", repr(p),
                              "--num-blocks", str(self.num_blocks), "--seed", op.info["seed"]])
        if code != 0:
            return Checked(False, counts, f"simulate --scheme time_split exited {code}")
        agg = parse_csv(text)[-1]
        pooled = {f"ratio@{p!r}": r for p, r in zip(P_GRID, ratios)}
        pooled[f"efrac_err@{p!r}"] = float(agg["energy_block_fraction"]) - float(row["rho_ts"])
        if agg["weighted_aoi"] != row["aoi_ts"]:
            return Checked(False, counts, f"simulate weighted_aoi {agg['weighted_aoi']} "
                                          f"!= compare aoi_ts {row['aoi_ts']} at p={p!r}",
                           pooled)
        return Checked(True, counts, "", pooled)

    def check_run(self, checked: list[Checked]) -> list[str]:
        values: dict[str, list[float]] = {}
        for c in checked:
            for key, value in c.pooled.items():
                values.setdefault(key, []).append(value)
        problems = []
        for key, vals in sorted(values.items()):
            mean = sum(vals) / len(vals)
            if key.startswith("ratio@") and not 0.95 <= mean <= 1.05:
                problems.append(f"mean rate ratio {mean:.4f} at p={key[6:]} outside [0.95, 1.05]")
            if key.startswith("efrac_err@") and not abs(mean) <= 0.01:
                problems.append(f"mean energy-block fraction error {mean:.4f} at "
                                f"p={key[10:]} exceeds 0.01")
        return problems


class ClosedForm(Workload):
    """``optimize`` over 1001 weights, then ``analytic`` over 1001 rho x 3 w."""

    name = "closed-form"
    work_unit = "optimizer solves + analytic grid points"
    nominal_op_s = 0.25
    work_per_op = 1001 + 1001 * 3
    brute_force_weights = 1   # per op; a run checks one per op, a hundred or more in all

    def ops(self, seed: int, count: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        offset = rng.randrange(len(CLOSED_FORM_PARAMS))
        ops = []
        for i in range(count):
            overrides = CLOSED_FORM_PARAMS[(offset + i) % len(CLOSED_FORM_PARAMS)]
            flags = [tok for key, value in overrides.items()
                     for tok in (f"--{key.replace('_', '-')}", repr(value))]
            op_seed = ["--seed", str(rng.randrange(2**31))]
            weights = sorted(rng.sample(range(1001), self.brute_force_weights))
            ops.append(Op(i, [["optimize", "--w-grid", W_GRID_SWEEP] + flags + op_seed,
                              ["analytic", "--rho-grid", RHO_GRID_TABLE,
                               "--w-grid", W_GRID_TABLE] + flags + op_seed],
                          {"overrides": overrides, "weights": weights}))
        return ops

    def check(self, op: Op, texts: list[str], run_cli) -> Checked:
        import numpy as np
        from twoway_aoi.analytic import weighted_sum_aoi
        from twoway_aoi.model import SystemParams

        opt, table = parse_csv(texts[0]), parse_csv(texts[1])
        methods = [r["method"] for r in opt]
        counts = {
            "optimizer.solves": len(opt),
            "optimizer.iterations": sum(int(r["iterations"]) for r in opt),
            "optimizer.boundary_solves": methods.count("boundary"),
            "optimizer.bisection_solves": methods.count("bisection"),
        }
        if len(opt) != 1001 or len(table) != 3003:
            return Checked(False, counts, f"{len(opt)} optimize rows, {len(table)} analytic rows")
        if not all(math.isfinite(float(v)) for r in table for v in r.values()):
            return Checked(False, counts, "non-finite value in the analytic table")
        # brute force over the admissible interval, as acceptance criterion 5 does
        params = SystemParams(**op.info["overrides"])
        grid = np.arange(1, 1000) / 1000.0
        for k in op.info["weights"]:
            row = opt[k]
            w, rho_star, aoi_star = float(row["w"]), float(row["rho_star"]), float(row["aoi_star"])
            values = [weighted_sum_aoi(params, r, w).weighted for r in grid]
            best = int(np.argmin(values))
            if abs(rho_star - grid[best]) > 1e-3 or aoi_star > values[best] * (1 + 1e-9):
                return Checked(False, counts, f"w={w!r}: optimizer ({rho_star!r}, {aoi_star!r}) "
                                              f"vs grid ({grid[best]!r}, {values[best]!r})")
        return Checked(True, counts)


# age_rtol: relative tolerance of an op's mean ages against the closed forms,
# 7 to 10 times the standard deviation of one op's mean measured over 10-12
# seeds (ps-reference: 1.9e-4 DL, 4.5e-4 UL; ps-short-packets: 4.1e-4 DL,
# 1.4e-3 UL). The op's own cross-replication standard error is too noisy to
# gate on: with 4 replications, |t| > 4 happens in 2.8% of ops by chance.
WORKLOADS = {w.name: w for w in (
    Simulate("ps-reference", num_blocks=4_000_000, replications=4, packet_nats=100.0,
             age_rtol={"dl": 0.002, "ul": 0.005}, nominal_op_s=2.5),
    Simulate("ps-short-packets", num_blocks=1_000_000, replications=1, packet_nats=1.0,
             age_rtol={"dl": 0.003, "ul": 0.01}, nominal_op_s=2.3),
    Compare(),
    ClosedForm(),
)}
