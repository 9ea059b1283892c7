"""Command-line front end: tabulate analytics, optimize, simulate, compare.

Every command emits CSV (stdout, or a file via --output). The file starts
with comment rows that echo the full merged run specification, so a run
can be reproduced from its own header: strip the leading "# " from each
header line, save the result as a config file, and re-invoke the recorded
command with --config pointing at it.

Parameter precedence is flag > config file > built-in default, where the
defaults are the reference operating point of :class:`SystemParams`.
Exit codes: 0 success, 1 validation or usage error, 2 numerical failure,
3 I/O.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import __version__
from .analytic import ClosedForms, avg_uplink_aoi, ts_equivalent_rho, weighted_sum
from .model import SystemParams
from .optimizer import OptOptions, sweep_w
from .simulator import SimConfig, run_power_splitting, run_time_splitting, started

# bench/tracing.py wraps these names in this module's namespace; the commands
# evaluate through ClosedForms, so the names are bound for the tracer only
from .analytic import avg_downlink_aoi, data_rates, weighted_sum_aoi  # noqa: F401
from .model import derive_constants  # noqa: F401

__all__ = ["main", "RunSpec", "build_parser", "load_config"]


def _grid(raw: str) -> tuple[float, ...]:
    values = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    if not values:
        raise ValueError("empty grid")
    return values


def _field_keys(cls, skip=()) -> dict:
    """key -> (parser of one raw value, default) for each field of ``cls``.

    The parser follows the annotation, a string such as "int | None" under
    postponed evaluation.
    """
    parsers = {"float": float, "int": int, "str": str}
    return {f.name: (parsers[f.type.partition(" ")[0]],
                     None if f.default is MISSING else f.default)
            for f in fields(cls) if f.name not in skip}


_PARAM_KEYS = _field_keys(SystemParams)
# the horizon gets a CLI default; the trace dump stays a library feature
_SIM_KEYS = {**_field_keys(SimConfig, skip={"trace_path"}), "num_blocks": (int, 1_000_000)}
_OPT_KEYS = _field_keys(OptOptions)
# Every config key and flag, in header order, with its parser and default.
_KEYS = {
    **_PARAM_KEYS,
    "rho_grid": (_grid, (0.5,)),
    "w_grid": (_grid, (0.5,)),
    "p_grid": (_grid, (0.01,)),
    **_SIM_KEYS,
    **_OPT_KEYS,
}


@dataclass(frozen=True)
class RunSpec:
    """Fully merged inputs of one command invocation."""

    command: str
    params: SystemParams
    rho_grid: tuple[float, ...]
    w_grid: tuple[float, ...]
    p_grid: tuple[float, ...]
    sim: SimConfig
    opt: OptOptions
    output: str | None


def _parse(key: str, raw: str):
    try:
        return _KEYS[key][0](raw)
    except ValueError:
        raise ValueError(f"invalid value for {key}: {raw!r}") from None


def load_config(path: str) -> dict:
    """Parse a flat ``key = value`` config file; '#' starts a comment line."""
    merged = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in _KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            merged[key] = _parse(key, raw)
    return merged


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error (unknown flag, missing command), like a bad value.

    argparse's own code, 2, is the one this CLI gives numerical failure.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twoway-aoi", allow_abbrev=False,
        description="Age-of-information analytics, optimization, and simulation "
                    "for the power-splitting two-way exchange link.")
    parser.add_argument("--version", action="version", version=f"twoway-aoi {__version__}")
    parser.add_argument("command", choices=_COMMANDS, help=(
        "analytic: tabulate closed-form ages and rates over (rho, w) grids; "
        "optimize: optimal split ratio per weight over a w grid; "
        "simulate: Monte Carlo run of one scheme; "
        "compare: time-splitting vs power-splitting over a p grid"))
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--output", help="CSV output path (default: stdout)")
    # values stay strings here: _parse checks flags and config lines alike
    for key, (parse, _) in _KEYS.items():
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key,
                            help="comma-separated values" if parse is _grid else None)
    return parser


def merge_spec(args: argparse.Namespace) -> RunSpec:
    merged = {key: default for key, (_, default) in _KEYS.items()}
    if args.config:
        merged.update(load_config(args.config))
    for key in _KEYS:
        if getattr(args, key) is not None:
            merged[key] = _parse(key, getattr(args, key))
    params = SystemParams(**{key: merged.pop(key) for key in _PARAM_KEYS})
    sim = SimConfig(**{key: merged.pop(key) for key in _SIM_KEYS})
    sim = replace(sim, warmup_blocks=sim.resolved_warmup())
    opt = OptOptions(**{key: merged.pop(key) for key in _OPT_KEYS})
    return RunSpec(command=args.command, params=params, sim=sim, opt=opt,
                   output=args.output, **merged)


# ---------------------------------------------------------------------------
# output formatting

_FLOAT = "%.12g"
# every CSV row is one '%' on its template, a float cell '%.12g'; a rho's analytic
# template takes its six w-independent cells, leaving w's cell and the weighted age
_OPTIMIZE_ROW = ",".join([_FLOAT] * 3 + ["%s"] * 2)
_ANALYTIC_ROW = ",".join([_FLOAT, "%%s"] + [_FLOAT] * 3 + ["%" + _FLOAT] + [_FLOAT] * 2)
# simulate's rows, one per replication and then the aggregate, leave empty the cells
# that are not theirs; compare's rows hold floats only
_REPLICATION_ROW = ",".join(["%d"] + [_FLOAT] * 5 + ["", "", "%d"] + [_FLOAT] * 2 + [""] * 3)
_AGGREGATE_ROW = ",".join(["aggregate"] + [_FLOAT] * 7 + ["%d", _FLOAT, ""] + ["%s"] * 3)
_COMPARE_ROW = ",".join([_FLOAT] * 6)


def _text(value) -> str:
    """A config value as the header writes it and the config parser reads it back."""
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


def _spec_header(spec: RunSpec) -> list[str]:
    values = {**vars(spec), **vars(spec.params), **vars(spec.sim), **vars(spec.opt)}
    return [f"## twoway-aoi {__version__}", f"## command: {spec.command}"] + [
        f"# {key} = {_text(values[key])}" for key in _KEYS if values[key] is not None]


def _emit(spec: RunSpec, columns: list[str], body) -> None:
    """Write the spec header, the column line and the body's text lines."""
    lines = _spec_header(spec)
    lines.append(",".join(columns))
    lines.extend(body)
    text = "\n".join(lines) + "\n"
    if spec.output is None:
        sys.stdout.write(text)
    else:
        with open(spec.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _hist_cell(hist: dict[int, int]) -> str:
    return "|".join(f"{j}:{c}" for j, c in sorted(hist.items()))


# ---------------------------------------------------------------------------
# commands


def cmd_analytic(spec: RunSpec) -> int:
    columns = ["rho", "w", "dl_aoi", "ul_aoi_renewal", "ul_aoi_literal",
               "weighted", "dl_rate", "ul_rate"]
    forms = ClosedForms(spec.params)
    rho = np.array(spec.rho_grid)
    dl, ul_renewal = forms.ages(rho)
    ul_literal = avg_uplink_aoi(forms.loads(rho)[1], spec.params.harvest_eff, "literal")
    dl_rate, ul_rate = forms.rates(rho)
    # each value is formatted once: a rho's six w-independent cells once for
    # all its weights, each w once for all rho, each weighted age once
    w_cells = [_FLOAT % w for w in spec.w_grid]
    weighted = zip(*[weighted_sum(w, dl, ul_renewal).tolist() for w in spec.w_grid])
    templates = map(_ANALYTIC_ROW.__mod__, zip(spec.rho_grid, dl.tolist(), ul_renewal.tolist(),
                                            ul_literal.tolist(), dl_rate.tolist(), ul_rate.tolist()))
    _emit(spec, columns, [row % (w, ws) for row, by_w in zip(templates, weighted)
                          for w, ws in zip(w_cells, by_w)])
    return 0


def cmd_optimize(spec: RunSpec) -> int:
    points = sweep_w(spec.params, sorted(spec.w_grid), spec.opt)
    columns = ["w", "rho_star", "aoi_star", "method", "iterations"]
    _emit(spec, columns, [_OPTIMIZE_ROW % (w, rho, aoi, method, n)
                          for w, (rho, aoi, n, _, method) in points])
    failed = [pt.w for pt in points if not pt.result.converged]
    if failed:
        print(f"optimization failed to converge at w = {failed}", file=sys.stderr)
        return 2
    return 0


_SIM_COLUMNS = [
    "replication", "mean_dl_aoi", "mean_ul_aoi", "weighted_aoi", "dl_rate",
    "ul_rate", "std_error_dl_aoi", "std_error_ul_aoi", "blocks_simulated",
    "energy_block_fraction", "final_buffer_joules",
    "dl_service_hist", "ul_service_hist", "harvest_slot_hist",
]


def _sim_lines(spec: RunSpec, report) -> list[str]:
    w = spec.params.weight_uplink
    lines = [_REPLICATION_ROW % (i, rep.mean_dl_aoi, rep.mean_ul_aoi,
                                 weighted_sum(w, rep.mean_dl_aoi, rep.mean_ul_aoi),
                                 rep.dl_rate, rep.ul_rate, spec.sim.num_blocks,
                                 rep.energy_block_fraction, rep.final_buffer_joules)
             for i, rep in enumerate(report.per_replication)]
    lines.append(_AGGREGATE_ROW % (report.mean_dl_aoi, report.mean_ul_aoi,
                                   report.weighted_aoi, report.dl_rate, report.ul_rate,
                                   report.std_error_dl_aoi, report.std_error_ul_aoi,
                                   report.blocks_simulated, report.energy_block_fraction,
                                   _hist_cell(report.dl_service_hist),
                                   _hist_cell(report.ul_service_hist),
                                   _hist_cell(report.harvest_slot_hist)))
    return lines


def _warn_censored(report, run: str) -> None:
    """Warn on stderr, once per direction, if a replication's window is censored.

    A window with fewer than two deliveries holds no whole interval between
    them, so its mean age follows the window's length, not the service times.
    """
    reps = report.per_replication
    for side, name, counts in (("dl", "downlink", [r.dl_packets for r in reps]),
                               ("ul", "uplink", [r.ul_packets for r in reps])):
        short = sum(count < 2 for count in counts)
        if short:
            print(f"warning: {run}: {short} of {len(reps)} replications delivered fewer "
                  f"than two {name} packets in the window; their mean_{side}_aoi follows "
                  f"the window's length, not the service times", file=sys.stderr)


def cmd_simulate(spec: RunSpec) -> int:
    sim = spec.sim
    if sim.scheme == "time_split":
        report = run_time_splitting(spec.params, sim.gen_prob, sim)
    else:
        report = run_power_splitting(spec.params, spec.params.split_ratio, sim)
    _emit(spec, _SIM_COLUMNS, _sim_lines(spec, report))
    _warn_censored(report, sim.scheme)
    return 0


def cmd_compare(spec: RunSpec) -> int:
    w = spec.params.weight_uplink
    columns = ["p", "rho_ts", "R_ps", "R_ts", "aoi_ps", "aoi_ts"]
    ps_sim = replace(spec.sim, scheme="power_split", gen_prob=None)
    # each p's time-split run and its power-split arm at rho_ts, as the (params, x,
    # config) its runner takes, so started() checks the whole grid before the first
    # replication and submits the jobs the runners collect
    runs = [((spec.params, p, replace(spec.sim, scheme="time_split", gen_prob=p)),
             (spec.params, ts_equivalent_rho(p, spec.params.theta), ps_sim)) for p in spec.p_grid]
    lines = []
    with started([run for pair in runs for run in pair]):
        for ts_run, ps_run in runs:
            ts, ps = run_time_splitting(*ts_run), run_power_splitting(*ps_run)
            p, rho_ts = ts_run[1], ps_run[1]
            _warn_censored(ts, f"time_split at p = {p!r}")
            _warn_censored(ps, f"power_split at rho = {rho_ts!r}")
            lines.append(_COMPARE_ROW % (p, rho_ts, weighted_sum(w, ps.dl_rate, ps.ul_rate),
                                         weighted_sum(w, ts.dl_rate, ts.ul_rate),
                                         ps.weighted_aoi, ts.weighted_aoi))
    _emit(spec, columns, lines)
    return 0


_COMMANDS = {
    "analytic": cmd_analytic,
    "optimize": cmd_optimize,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
}
_parser = functools.cache(build_parser)     # main's, built on its first call in a process


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = merge_spec(args)
        if spec.sim.snr_mode == "exact" and args.command in ("analytic", "optimize"):
            print(f"warning: {args.command} evaluates the closed forms at the linear (low-SNR) "
                  "rate; snr_mode applies to simulate and compare only", file=sys.stderr)
        return _COMMANDS[args.command](spec)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
