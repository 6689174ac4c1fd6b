"""The benchmark's tracer still fits the package.

perfbench/tracer.py rebinds the package's public functions by name and
reads their arguments by parameter name. A rename would break the
benchmark while every other test stays green, so this checks both
against the package as it is. The tracer source is only read, never
changed or cached.
"""

import inspect
import types
from pathlib import Path

import pytest

from mlclogic import experiments, integrator

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
