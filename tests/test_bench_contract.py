"""The benchmark's tracer and checks still fit the package.

perfbench/tracer.py rebinds the package's public functions by name and
reads their arguments by parameter name. A rename would break the
benchmark while every other test stays green, so this checks both
against the package as it is. The tracer source is only read, never
changed or cached. perfbench/workloads.py also reads each trial's
final decode variable from the last DecodeRule.holds call of a sweep
point, which three tests pin down (on the numpy loops and on the
compiled kernel), times one batch call that another test runs, and
calls the CLI with flags that the last test parses.
"""

import importlib
import inspect
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from mlclogic import cli, decode, experiments, integrator

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    code = compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec")
    exec(code, module.__dict__)
    return module


def test_every_target_exists(tracer):
    for owner, attr, *_ in tracer.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{owner}.{attr}"


# the parameters each tracer work hook reads through inspect.signature
HOOK_PARAMETERS = {
    "integrate": (integrator.integrate, {"t_end", "config"}),
    "batch_bit_residences": (
        integrator.batch_bit_residences,
        {"levels", "bit_duration", "transient", "config"},
    ),
    "estimate_plogic": (
        experiments.estimate_plogic,
        {"params", "n_sets", "n_runs_per_set"},
    ),
    "Trajectory.write_csv": (integrator.Trajectory.write_csv, {"self", "path"}),
}


@pytest.mark.parametrize("hook", sorted(HOOK_PARAMETERS))
def test_hook_parameters_bind(hook):
    fn, names = HOOK_PARAMETERS[hook]
    assert names <= set(inspect.signature(fn).parameters)


def capture_calls(monkeypatch):
    """Wrap the two functions the way the benchmark's sweep check does,
    keeping every call's arguments and return value."""
    got = {}

    def capture(owner, name):
        original = getattr(owner, name)
        calls = got[name] = []

        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            calls.append((args, out))
            return out

        monkeypatch.setattr(owner, name, wrapper)

    capture(experiments, "batch_bit_residences")
    capture(decode.DecodeRule, "holds")
    return got


def one_bit_point(monkeypatch):
    """Capture a one-bit OR point: its batch call and every holds call."""
    got = capture_calls(monkeypatch)
    experiments.estimate_plogic(
        "OR", n_sets=1, bits_per_run=1, bit_duration=2.0, transient=1.0
    )
    return got


def test_last_decode_sees_the_final_state(monkeypatch):
    # the numpy loops, forced, score each sample through the indicator
    monkeypatch.setattr(integrator, "_kernel", lambda: None)
    got = one_bit_point(monkeypatch)
    [(_, result)] = got["batch_bit_residences"]
    # one call per counted step, the settled half of the bit's 200
    assert len(got["holds"]) == 100
    final = got["holds"][-1][0][1]
    assert final.shape == (experiments.DESK_N_RUNS,)
    assert np.array_equal(final, result.x1)


def test_kernel_decodes_each_window_end_in_python(monkeypatch):
    if integrator._kernel() is None:
        pytest.skip(integrator.backend())
    got = one_bit_point(monkeypatch)
    [(_, result)] = got["batch_bit_residences"]
    # the kernel counts the rest of the window itself: one call per
    # bit window and indicator, on the window's last sample
    assert len(got["holds"]) == 1
    final = got["holds"][-1][0][1]
    assert final.shape == (experiments.DESK_N_RUNS,)
    assert np.array_equal(final, result.x1)


def test_sweep_runs_one_batch_over_all_points(monkeypatch):
    got = capture_calls(monkeypatch)
    experiments.sweep(
        "OR",
        "noise",
        [0.0, 0.002],
        n_sets=2,
        n_runs_per_set=3,
        bits_per_run=2,
        bit_duration=2.0,
        transient=1.0,
    )
    [(args, result)] = got["batch_bit_residences"]
    # points x trials rows, one column per bit
    assert args[1].shape == (2 * 2 * 3, 2)
    final = got["holds"][-1][0][1]
    assert np.array_equal(final, result.x1)


def test_trace_probe_batch_call_runs():
    # the batch call of perfbench/workloads.py::layer_probes, at 3 rows
    # and a 10-step bit
    for noise in (0.0, 0.002):
        result = integrator.batch_bit_residences(
            experiments.gate_params("OR", noise_d=noise),
            np.zeros((3, 1)),
            bit_duration=0.1,
            transient=0.0,
            config=integrator.IntegratorConfig(),
            indicators=[decode.gate_spec("OR").indicator()],
            noise_seeds=list(range(3)),
        )
        assert [r.shape for r in result.residences] == [(3, 1)]
        assert result.x1.shape == result.diverged.shape == (3,)


def test_benchmark_cli_calls_parse(monkeypatch):
    # import the workloads without writing bytecode under perfbench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    calls = list(workloads.PROBE_CALLS)
    for seed in range(3):
        calls += workloads.CliRuns().build(seed)[0]
    parser = cli.build_parser()
    for call in calls:
        args = parser.parse_args(call.argv + ["--out", "unused"])
        assert args.command == call.command
