"""Spans around the package's public functions, recorded from outside.

`Tracer.install` rebinds each traced function, in every loaded
`mlclogic` module that holds it, to a wrapper that records a span:
name, start, end, parent span and run id. `drift_network` and
`DecodeRule.holds` run several times per RK4 step, so they are counted
and timed as leaves (calls and total time, charged to the enclosing
span) instead of one span per call. A layer's self time is its span
time less the time of the traced spans and leaves inside it. Spans stay
in memory until `dump`.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

import mlclogic.cli as cli
import mlclogic.decode as decode
import mlclogic.experiments as experiments
import mlclogic.integrator as integrator
import mlclogic.seeding as seeding
import mlclogic.signals as signals


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _steps(duration, dt):
    return round(duration / dt)


def _batch_work(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    n_trials, n_bits = a["levels"].shape
    dt = a["config"].dt
    ts = _steps(a["transient"], dt) if a["transient"] > 0 else 0
    tr.counts["integrator.batch_bit_residences.trial_steps"] += n_trials * (
        ts + n_bits * _steps(a["bit_duration"], dt)
    )


def _integrate_work(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    dt = a["config"].dt if a["config"] is not None else 0.01
    tr.counts["integrator.integrate.steps"] += _steps(a["t_end"], dt)


def _write_csv_work(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    tr.counts["integrator.Trajectory.write_csv.rows"] += len(a["self"])
    with open(a["path"], "rb") as fh:
        tr.counts["integrator.Trajectory.write_csv.bytes"] += len(fh.read())


def _estimate_work(tr, fn, args, kwargs, result):
    """Distinct (program, noise stream) pairs: without noise the runs of
    one program are copies of each other."""
    a = _bound(fn, args, kwargs)
    params = a["params"]
    noisy = params is not None and params.noise_d > 0
    trials = a["n_sets"] * a["n_runs_per_set"]
    tr.counts["experiments.estimate_plogic.trials"] += trials
    tr.counts["experiments.estimate_plogic.distinct"] += trials if noisy else a["n_sets"]


# (owner, attribute, span name, leaf?, work hook)
TARGETS = [
    (integrator, "drift_network", "dynamics.drift_network", True, None),
    (decode.DecodeRule, "holds", "decode.DecodeRule.holds", True, None),
    (integrator, "batch_bit_residences", None, False, _batch_work),
    (integrator, "integrate", None, False, _integrate_work),
    (integrator.Trajectory, "write_csv", None, False, _write_csv_work),
    (decode, "score_residences", None, False, None),
    (decode, "score_trial", None, False, None),
    (signals, "random_program", None, False, None),
    (seeding, "derive_seed", None, False, None),
    (experiments, "sweep", None, False, None),
    (experiments, "estimate_plogic", None, False, _estimate_work),
    (experiments, "calibrate_xnor_band", None, False, None),
    (experiments, "export_phase_portrait", None, False, None),
    (experiments, "run_latch_experiment", None, False, None),
    (cli, "main", None, False, None),
]


def _span_name(owner, attr):
    if isinstance(owner, type):
        return f"{owner.__module__.split('.')[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.split('.')[-1]}.{attr}"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []
        self._undo = []

    def _leaf(self, name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            took = time.perf_counter() - start
            self.calls[name] += 1
            self.self_s[name] += took
            if self._stack:
                self._stack[-1][1] += took
            return out

        return wrapper

    def _span(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            # cli.main spans are named by subcommand
            full = f"{name}.{args[0][0]}" if name == "cli.main" else name
            frame = [len(self.spans), 0.0]
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(None)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[frame[0]] = (full, start, end, parent, self.run_id)
                self.calls[full] += 1
                self.total_s[full] += end - start
                self.self_s[full] += end - start - frame[1]
                if self._stack:
                    self._stack[-1][1] += end - start
            if hook is not None:
                hook(self, fn, args, kwargs, out)
            return out

        return wrapper

    def install(self):
        for owner, attr, name, leaf, hook in TARGETS:
            fn = getattr(owner, attr)
            name = name or _span_name(owner, attr)
            wrapped = self._leaf(name, fn) if leaf else self._span(name, fn, hook)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [
                    m
                    for k, m in list(sys.modules.items())
                    if k.split(".")[0] == "mlclogic" and getattr(m, attr, None) is fn
                ]
            for h in holders:
                self._undo.append((h, attr, fn))
                setattr(h, attr, wrapped)

    def uninstall(self):
        while self._undo:
            h, attr, fn = self._undo.pop()
            setattr(h, attr, fn)

    def dump(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": run_id,
                        }
                    )
                    + "\n"
                )

    def metrics(self):
        """Per-layer figures, keyed as in BENCHMARK.json."""
        c, s, n = self.calls, self.self_s, self.counts

        def per(num, den, scale):
            return num / den * scale if den else 0.0

        batch = "integrator.batch_bit_residences"
        integ = "integrator.integrate"
        est = "experiments.estimate_plogic"
        out = {}
        for name in (
            "dynamics.drift_network",
            batch,
            integ,
            "decode.DecodeRule.holds",
            "decode.score_residences",
            "decode.score_trial",
            "signals.random_program",
            "seeding.derive_seed",
            est,
        ):
            out[f"{name}.calls"] = c[name]
            out[f"{name}.self_s"] = s[name]
        for name in (
            "integrator.Trajectory.write_csv",
            "experiments.calibrate_xnor_band",
            "experiments.export_phase_portrait",
            "experiments.run_latch_experiment",
        ):
            out[f"{name}.self_s"] = s[name]
        for sub in ("gate", "simulate", "latch", "phase"):
            out[f"cli.main.{sub}.self_s"] = s[f"cli.main.{sub}"]
        out[f"{batch}.trial_steps"] = n[f"{batch}.trial_steps"]
        out[f"{batch}.ns_per_trial_step"] = per(
            self.total_s[batch], n[f"{batch}.trial_steps"], 1e9
        )
        out[f"{integ}.steps"] = n[f"{integ}.steps"]
        out[f"{integ}.us_per_step"] = per(self.total_s[integ], n[f"{integ}.steps"], 1e6)
        for k in ("rows", "bytes"):
            out[f"integrator.Trajectory.write_csv.{k}"] = n[f"integrator.Trajectory.write_csv.{k}"]
        out[f"{est}.trials"] = n[f"{est}.trials"]
        out[f"{est}.distinct_trial_ratio"] = per(n[f"{est}.distinct"], n[f"{est}.trials"], 1.0)
        out["trace.spans"] = len(self.spans)
        return out
