"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its `src/`. With `--trace 0` the run repeats rounds of the workload for
at least S seconds and reports the end-to-end metrics; with `--trace 1`
it also runs one round with every traced layer wrapped and reports the
per-layer metrics. Metric names and units come from BENCHMARK.json.
The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# setup_s is the median of this many fresh interpreters
SETUP_REPS = 5
# passes of the CLI probe on workloads whose rounds make no CLI calls
PROBE_REPS = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(args) -> int:
    """Time importing the package and building the workload's inputs,
    in this fresh interpreter, up to the first call that integrates."""
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[args.workload].build(args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def measure_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def run_rounds(wl, inputs, work, seconds):
    """Closed loop: start the next round when the last returns, until
    `seconds` have passed; at least one round."""
    outs, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outs.append(wl.round(inputs, work))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= seconds:
            return outs, walls


def timed_metrics(args, wl, inputs, work, workloads):
    outs, walls = run_rounds(wl, inputs, work, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = statistics.median(walls)
    call_s = {}
    for o in outs:
        for k, v in o.call_s.items():
            call_s.setdefault(k, []).extend(v)
    if call_s:
        cli_s = {k: statistics.median(v) for k, v in call_s.items()}
    else:
        cli_s = workloads.cli_probe(work, PROBE_REPS)
    metrics = {
        "setup_s": measure_setup(args),
        "wall_s": wall,
        "trial_steps_per_s": wl.trial_steps(inputs) / wall,
        "peak_rss_mb": peak_mb,
    }
    for sub in ("gate", "simulate", "latch", "phase"):
        metrics[f"cli_{sub}_s"] = cli_s[sub]
    return outs, metrics


def traced_metrics(args, wl, inputs, work, workloads):
    import tracer

    metrics = workloads.layer_probes()
    outs, walls = run_rounds(wl, inputs, work, args.seconds)
    tr = tracer.Tracer(f"{args.workload}:{args.seed}:{os.getpid()}")
    tr.install()
    try:
        t0 = time.perf_counter()
        outs.append(wl.round(inputs, work))
        traced_wall = time.perf_counter() - t0
        workloads.coverage_calls(work)
    finally:
        tr.uninstall()
    metrics.update(tr.metrics())
    metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)
    metrics["cli.output_bytes"] = sum(
        f.stat().st_size for f in work.rglob("*") if f.is_file()
    )
    tr.dump(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    return outs, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mlclogic" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import mlclogic
    import workloads

    if Path(mlclogic.__file__).resolve().parent != SRC / "mlclogic":
        print(f"error: mlclogic imported from {mlclogic.__file__}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    inputs = wl.build(args.seed)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        measure = traced_metrics if args.trace else timed_metrics
        outs, metrics = measure(args, wl, inputs, work, workloads)
        errors = wl.check(inputs, outs, work, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        print(
            f"error: metrics {sorted(set(metrics) ^ {m['name'] for m in declared})} "
            "do not match BENCHMARK.json",
            file=sys.stderr,
        )
        return 2
    result = {
        "correct": not errors,
        "attempted": sum(o.ops for o in outs),
        "failed": sum(o.failed for o in outs),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
