"""Spans at the module boundaries of twoway_aoi, recorded from outside the package.

Each public callable one module takes from another is replaced, in the
namespace of the module that calls it, by a wrapper that records a span:
(name, parent span, start, end). The spans of one op are kept in memory and
folded into per-layer self times and call counts when the op ends; a
layer's self time is its spans' time minus the time of their child spans.
Wrappers at a few boundaries also read counts off the returned values.
"""

from __future__ import annotations

import time

LAYERS = ("cli", "simulator", "simulator.sample_gain", "model", "analytic", "optimizer")

# (module that calls, name in its namespace, layer of the callee)
BOUNDARIES = (
    ("cli", "run_power_splitting", "simulator"),
    ("cli", "run_time_splitting", "simulator"),
    ("cli", "sweep_w", "optimizer"),
    ("cli", "avg_downlink_aoi", "analytic"),
    ("cli", "avg_uplink_aoi", "analytic"),
    ("cli", "data_rates", "analytic"),
    ("cli", "ts_equivalent_rho", "analytic"),
    ("cli", "weighted_sum_aoi", "analytic"),
    ("cli", "derive_constants", "model"),
    ("simulator", "sample_gain", "simulator.sample_gain"),
    ("simulator", "make_stream", "simulator"),
    ("simulator", "per_block_downlink_nats", "model"),
    ("simulator", "per_block_uplink_nats", "model"),
    ("simulator", "harvested_energy", "model"),
    ("simulator", "uplink_energy_threshold", "model"),
    ("simulator", "ts_equivalent_rho", "analytic"),
    ("optimizer", "aoi_gradient", "optimizer"),
    ("optimizer", "weighted_sum_aoi", "analytic"),
    ("optimizer", "derive_constants", "model"),
    ("analytic", "derive_constants", "model"),
)

COUNTS = ("simulator.blocks", "simulator.dl_packets", "simulator.ul_packets",
          "simulator.sample_gain.draws", "simulator.gain_bytes_computed",
          "optimizer.solves", "optimizer.iterations",
          "optimizer.boundary_solves", "optimizer.bisection_solves")


def _count_report(counts, report):
    counts["simulator.blocks"] += report.blocks_simulated
    counts["simulator.dl_packets"] += sum(r.dl_packets for r in report.per_replication)
    counts["simulator.ul_packets"] += sum(r.ul_packets for r in report.per_replication)


def _count_gains(counts, gains):
    counts["simulator.sample_gain.draws"] += getattr(gains, "size", 1)
    counts["simulator.gain_bytes_computed"] += getattr(gains, "nbytes", 8)


def _count_sweep(counts, points):
    counts["optimizer.solves"] += len(points)
    for pt in points:
        counts["optimizer.iterations"] += pt.result.iterations
        counts["optimizer.boundary_solves"] += pt.result.method == "boundary"
        counts["optimizer.bisection_solves"] += pt.result.method == "bisection"


ON_RETURN = {
    "cli.run_power_splitting": _count_report,
    "cli.run_time_splitting": _count_report,
    "cli.sweep_w": _count_sweep,
    "simulator.sample_gain": _count_gains,
}


class Tracer:
    """Span buffers for the op in progress, and totals over the ops folded so far."""

    def __init__(self):
        self.span_names: list[str] = ["cli.main"] + [f"{m}.{a}" for m, a, _ in BOUNDARIES]
        self.span_layer = [LAYERS.index("cli")] + [LAYERS.index(layer) for *_, layer in BOUNDARIES]
        self.names: list[int] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.stack = [-1]
        self.op_counts = dict.fromkeys(COUNTS, 0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.self_ns = [0.0] * len(LAYERS)
        self.layer_calls = [0] * len(LAYERS)
        self.name_calls = [0] * len(self.span_names)
        self.ops = 0

    def wrap(self, name: str, fn):
        key = self.span_names.index(name)
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack)
        on_return, counts = ON_RETURN.get(name), self.op_counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(key)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_return is not None:
                on_return(counts, result)
            return result

        return traced

    def install(self, modules: dict):
        """Wrap every boundary in ``modules`` (name -> module); returns an undo callable."""
        saved = []
        for module_name, attr, _layer in BOUNDARIES:
            module = modules[module_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(f"{module_name}.{attr}", original))

        def undo():
            for module, attr, original in saved:
                setattr(module, attr, original)
        return undo

    def reset(self):
        """Drop spans and counts recorded since the last fold (e.g. by output checks)."""
        for buf in (self.names, self.parents, self.starts, self.ends):
            buf.clear()
        del self.stack[1:]
        for key in self.op_counts:
            self.op_counts[key] = 0

    def fold(self):
        """Add the op just finished to the totals; call outside the timed region."""
        import numpy as np

        names = np.asarray(self.names, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends, dtype=np.int64) - np.asarray(self.starts, dtype=np.int64)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        layers = np.asarray(self.span_layer, dtype=np.int64)[names]
        self_ns = np.bincount(layers, weights=dur - child, minlength=len(LAYERS))
        layer_calls = np.bincount(layers, minlength=len(LAYERS))
        name_calls = np.bincount(names, minlength=len(self.span_names))
        for i in range(len(LAYERS)):
            self.self_ns[i] += float(self_ns[i])
            self.layer_calls[i] += int(layer_calls[i])
        for i in range(len(self.span_names)):
            self.name_calls[i] += int(name_calls[i])
        for key, value in self.op_counts.items():
            self.counts[key] += value
        self.ops += 1
        self.reset()

    def calls(self, *names: str) -> int:
        return sum(self.name_calls[self.span_names.index(n)] for n in names)

    def metrics(self) -> dict:
        """Per-layer self seconds per op, call counts and value counts over all folded ops."""
        per_op = max(self.ops, 1)
        out = {f"{layer}.self_s": self.self_ns[i] / 1e9 / per_op for i, layer in enumerate(LAYERS)}
        out.update(self.counts)
        out["model.calls"] = self.layer_calls[LAYERS.index("model")]
        out["analytic.calls"] = self.layer_calls[LAYERS.index("analytic")]
        out["cli.calls"] = self.calls("cli.main")
        out["simulator.runs"] = self.calls("cli.run_power_splitting", "cli.run_time_splitting")
        out["simulator.make_stream.calls"] = self.calls("simulator.make_stream")
        out["optimizer.gradient_calls"] = self.calls("optimizer.aoi_gradient")
        blocks = self.counts["simulator.blocks"]
        sim_ns = self.self_ns[LAYERS.index("simulator")]
        packets = self.counts["simulator.dl_packets"] + self.counts["simulator.ul_packets"]
        out["simulator.self_ns_per_block"] = sim_ns / blocks if blocks else 0.0
        out["simulator.packets_per_block"] = packets / blocks if blocks else 0.0
        return out
