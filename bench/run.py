#!/usr/bin/env python3
"""Benchmark of the twoway-aoi command line, end to end and per layer.

From the root of the repository:

    python3 bench/run.py                  # all four workloads, one fresh process each
    python3 bench/run.py --workload ps-reference --seed 3 --seconds 25 --trace 0

A single-workload run prints a ``# details`` line and, last, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` the per-layer metrics of a
separate traced pass. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, Op, body_digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "simulator", "model", "analytic", "optimizer")
MAX_OPS = 4096          # argv lists built at set-up; a run stops at --seconds first
SETUP_REPEATS = 9       # fresh interpreters timed per run; setup_s is their median


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    return {m["name"]: m["unit"] for m in load_spec()["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_cli():
    sys.path.insert(0, str(SRC))
    from twoway_aoi import cli
    if Path(cli.__file__).resolve().parent != SRC / "twoway_aoi":
        raise SystemExit(f"error: twoway_aoi imported from {cli.__file__}, not from {SRC}")
    return cli


def setup_probe(args) -> int:
    """Child process: time importing the CLI and building this workload's argv lists."""
    t0 = time.perf_counter()
    import_cli()
    WORKLOADS[args.workload].ops(args.seed, MAX_OPS)
    print(repr(time.perf_counter() - t0))
    return 0


def setup_sample(args) -> float:
    """Set-up time measured in one fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def machine_facts() -> dict:
    import numpy as np

    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "caches": caches, "python": platform.python_version(),
            "numpy": np.__version__, "loadavg": os.getloadavg()}


def probe_seconds(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python plus numpy task: the host's speed right now."""
    import numpy as np

    data = np.random.default_rng(12345).random(400_000)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        np.searchsorted(np.cumsum(np.sort(data)), data)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def source_lines() -> dict:
    return {f"{m}.source_lines": (SRC / "twoway_aoi" / f"{m}.py").read_bytes().count(b"\n")
            for m in MODULES}


class Runner:
    """Runs ops through a given ``main`` and checks their outputs."""

    def __init__(self, workload, tmp: str):
        self.workload = workload
        self.tmp = tmp

    def _path(self, k: int) -> str:
        return os.path.join(self.tmp, f"out{k}.csv")

    def run_cli(self, main, argv):
        """One untimed CLI call for an output check; returns (exit code, CSV text)."""
        path = os.path.join(self.tmp, "check.csv")
        code = main(argv + ["--output", path])
        return code, Path(path).read_text(encoding="utf-8") if code == 0 else ""

    def run(self, op: Op, main, after=None) -> dict:
        """Time one op, then (outside the timed region) call ``after`` and check it."""
        paths = [self._path(k) for k in range(len(op.argvs))]
        for path in paths:
            if os.path.exists(path):
                os.remove(path)
        error = None
        t0 = time.perf_counter()
        try:
            codes = [main(argv + ["--output", path]) for argv, path in zip(op.argvs, paths)]
        except (Exception, SystemExit) as exc:
            codes, error = [], f"raised {exc!r}\n{traceback.format_exc()}"
        seconds = time.perf_counter() - t0
        if after is not None:
            after()
        result = {"index": op.index, "seconds": seconds, "ok": False, "counts": {},
                  "note": error or "", "digest": "", "checked": None,
                  "output_bytes": sum(os.path.getsize(p) for p in paths if os.path.exists(p))}
        if error is None and any(codes):
            result["note"] = f"exit codes {codes}"
        elif error is None:
            texts = [Path(p).read_text(encoding="utf-8") for p in paths]
            result["digest"] = ":".join(body_digest(t) for t in texts)
            try:
                checked = self.workload.check(op, texts, lambda argv: self.run_cli(main, argv))
            except Exception as exc:   # a malformed output fails its op, not the benchmark
                result["note"] = f"check raised {exc!r}"
            else:
                counts = {"cli.calls": len(texts), "cli.output_bytes": result["output_bytes"],
                          **checked.counts}
                result.update(ok=checked.ok, counts=counts, note=checked.note, checked=checked)
        if result["note"]:
            print(f"op {op.index} failed: {result['note']}", file=sys.stderr)
        return result


def finish_checks(workload, results: list[dict]) -> None:
    """Apply the run-level (pooled) checks; every op that fed a failed one fails."""
    checked = [r["checked"] for r in results if r["checked"] is not None]
    problems = workload.check_run(checked)
    for problem in problems:
        print(f"run check failed: {problem}", file=sys.stderr)
    if problems:
        for r in results:
            if r["checked"] is not None and r["checked"].pooled:
                r["ok"], r["note"] = False, "; ".join(problems)


def timing_summary(seconds: list[float]) -> dict:
    """Median, plus the highest of p90/p99 that has at least ten samples beyond it."""
    out = {"ops": len(seconds), "p50": statistics.median(seconds),
           "min": min(seconds), "max": max(seconds)}
    for q in (99, 90):
        if len(seconds) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = statistics.quantiles(seconds, n=100)[q - 1]
            break
    return out


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    setup_samples: list[float] = []
    if not args.trace:
        setup_sample(args)   # the first fresh interpreter also compiles bytecode; dropped
    cli = import_cli()
    from twoway_aoi import analytic, model, optimizer, simulator

    ops = workload.ops(args.seed, MAX_OPS)
    facts = machine_facts()
    probe_start = probe_seconds()
    tmp = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        runner = Runner(workload, tmp)
        results = [runner.run(ops[0], cli.main)]            # warm-up, untimed
        timed_ops = ops[1:]
        if args.trace:
            # a fixed op count per --seconds, so counts repeat exactly at a fixed seed
            count = max(2, round(args.seconds / (2 * workload.nominal_op_s)))
            timed_ops = timed_ops[:count]
        cpu0, wall0 = os.times(), time.perf_counter()
        timed, spent = [], 0.0
        for op in timed_ops:
            if not args.trace and spent >= args.seconds:
                break
            timed.append(runner.run(op, cli.main))
            spent += timed[-1]["seconds"]
            # set-up samples spread evenly over the timed ops, between them: the
            # host's speed drifts in phases of seconds, which a burst of samples
            # taken back to back would see only one of
            while (not args.trace and len(setup_samples) < SETUP_REPEATS
                   and spent >= len(setup_samples) * args.seconds / SETUP_REPEATS):
                setup_samples.append(setup_sample(args))
        cpu1, wall1 = os.times(), time.perf_counter()
        while not args.trace and len(setup_samples) < SETUP_REPEATS:
            setup_samples.append(setup_sample(args))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        results += timed
        traced = []
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            undo = tracer.install({"cli": cli, "simulator": simulator, "model": model,
                                   "analytic": analytic, "optimizer": optimizer})
            traced_main = tracer.wrap("cli.main", cli.main)
            try:
                for op in timed_ops[:len(timed)]:
                    tracer.reset()
                    traced.append(runner.run(op, traced_main, after=tracer.fold))
            finally:
                undo()
            results += traced
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    probe_end = probe_seconds()
    finish_checks(workload, results)

    op_seconds = [r["seconds"] for r in timed]
    attempted, failed = len(results), sum(not r["ok"] for r in results)
    digests = [r["digest"] for r in timed]
    details = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "op_s": timing_summary(op_seconds),
        "op_seconds": [round(t, 6) for t in op_seconds],
        "work_unit": workload.work_unit, "work_per_op": workload.work_per_op,
        "error_rate": failed / attempted, "setup_s_samples": setup_samples,
        "csv_sha256": body_digest("\n".join(digests)), "op_digests": [d[:16] for d in digests],
        "machine": facts, "machine.probe_s": probe_start, "machine.probe_end_s": probe_end,
        "loadavg_end": os.getloadavg(), **source_lines(),
    }
    if args.trace:
        metrics = trace_metrics(tracer, timed, traced, cpu1, cpu0, wall1 - wall0)
        metrics.update(source_lines())
        metrics["machine.probe_s"], metrics["machine.probe_end_s"] = probe_start, probe_end
    else:
        metrics = {"setup_s": statistics.median(setup_samples),
                   "work_per_s": workload.work_per_op * len(op_seconds) / sum(op_seconds),
                   "peak_rss_mb": peak_rss_mb}
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    print("# details " + json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": unit}
                                  for k, unit in units.items()}}))
    return 0


def trace_metrics(tracer, untraced: list[dict], traced: list[dict], cpu1, cpu0, wall) -> dict:
    """Per-layer metrics; exits loudly if tracing changed any count or output byte."""
    metrics = tracer.metrics()
    metrics["cli.output_bytes"] = sum(r["output_bytes"] for r in traced)
    seen: dict[str, int] = {}
    for r in untraced:
        for key, value in r["counts"].items():
            seen[key] = seen.get(key, 0) + value
    mismatched = {k: (v, metrics[k]) for k, v in seen.items() if metrics[k] != v}
    if [r["digest"] for r in untraced] != [r["digest"] for r in traced]:
        mismatched["csv_sha256"] = "traced outputs differ from untraced outputs"
    if mismatched:
        raise SystemExit(f"error: the traced run disagrees with the untraced run "
                         f"(untraced, traced): {mismatched}")
    metrics["trace.overhead"] = (statistics.median(r["seconds"] for r in traced)
                                 / statistics.median(r["seconds"] for r in untraced))
    cpu = sum(cpu1[:4]) - sum(cpu0[:4])   # user, system, children user, children system
    metrics["process.cpu_per_wall"] = cpu / wall
    return metrics


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another; prints a table."""
    rows, status = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"{name}: exit code {out.returncode}", file=sys.stderr)
            status = 1
            continue
        details = json.loads(next(l for l in lines if l.startswith("# details "))[10:])
        result = json.loads(lines[-1])
        status |= not result["correct"]
        rows.append((name, details, result))
    for name, details, result in rows:
        print(f"{name}: {details['op_s']['ops']} timed ops, work = {details['work_unit']}")
        shown = {**result["metrics"]}
        if not args.trace:
            shown["op_s.p50"] = {"value": details["op_s"]["p50"], "unit": "s"}
            shown["error_rate"] = {"value": details["error_rate"], "unit": "failed/attempted"}
        for key, metric in shown.items():
            print(f"  {key:32s} {metric['value']:14.6g} {metric['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twoway_aoi" / "cli.py").is_file():
        print(f"error: no twoway_aoi sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")   # inherited by the set-up probes
    if args.setup_probe:
        return setup_probe(args)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
