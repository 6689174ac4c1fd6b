"""Command line interface.

Subcommands:

  simulate   run one logic program and write the sampled trajectory
  gate       run one program through a gate and score it
  sweep      estimate P(logic) along a noise or forcing grid
  phase      export a phase portrait labeled by input case
  latch      drive the set-reset latch and score both outputs

Every run writes a config.json snapshot of the effective settings next
to its outputs, and reruns with the same settings and seed produce
byte-identical files. Exit codes: 0 success, 1 logic failure, 2 bad
configuration or input, 3 divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .decode import DEFAULT_SETTINGS, DecodeSettings, gate_spec, score_trial
from .errors import ConfigError, DivergedError, MlcLogicError
from .experiments import (
    DESK_BITS_PER_RUN,
    DESK_N_RUNS,
    DESK_N_SETS,
    SWEEP_AXES,
    export_phase_portrait,
    gate_params,
    run_latch_experiment,
    sweep,
    sweep_params,
    write_json,
)
from .integrator import DEFAULT_X0, IntegratorConfig, integrate
from .params import check_count, check_finite
from .seeding import derive_seed
from .signals import (
    COMBINER_ARITY,
    DEFAULT_BIT_DURATION,
    DEFAULT_TRANSIENT,
    LogicProgram,
    random_program,
)

EXIT_OK = 0
EXIT_LOGIC_FAILURE = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

_INTEGRATOR_DEFAULTS = IntegratorConfig()

# Every setting, declared once: its default and its flag's argparse
# keywords. Its config-file key is its name, and a file value must have
# the flag's type, where an int also stands for a float, or be null if
# the default is None. Flags win over the file, the file over the
# default. A None bias, forcing, noise or delta means the gate's
# operating point decides; the snapshot records the result.
_SETTINGS = {
    "out": (".", dict(help="output directory (default .)")),
    "seed": (0, dict(type=int, help="top-level seed")),
    "bias": (None, dict(type=float, help="constant bias E")),
    "forcing": (None, dict(type=float, help="drive amplitude f")),
    "noise": (None, dict(type=float, help="noise intensity D")),
    "delta": (None, dict(type=float, help="logic encoding half-step")),
    "bit_duration": (DEFAULT_BIT_DURATION, dict(type=float)),
    "transient": (DEFAULT_TRANSIENT, dict(type=float)),
    "dt": (_INTEGRATOR_DEFAULTS.dt, dict(type=float)),
    "divergence_bound": (
        _INTEGRATOR_DEFAULTS.divergence_bound, dict(type=float)
    ),
    "gate": (None, dict(help="gate registry name")),
    "n_bits": (DESK_BITS_PER_RUN, dict(type=int)),
    "bits": (None, dict(help="explicit program bits, flat comma list")),
    "stride": (
        _INTEGRATOR_DEFAULTS.stride, dict(type=int, help="keep every Nth step")
    ),
    "settle_fraction": (DEFAULT_SETTINGS.settle_fraction, dict(type=float)),
    "agreement_threshold": (
        DEFAULT_SETTINGS.agreement_threshold, dict(type=float)
    ),
    "axis": (None, dict(choices=SWEEP_AXES)),
    "grid_from": (None, dict(type=float)),
    "grid_to": (None, dict(type=float)),
    "points": (None, dict(type=int)),
    "sets": (DESK_N_SETS, dict(type=int)),
    "runs": (DESK_N_RUNS, dict(type=int)),
    "bits_per_run": (DESK_BITS_PER_RUN, dict(type=int)),
}
_FLAG_NAMES = {"grid_from": "--from", "grid_to": "--to"}
# Settings with no default: a subcommand that runs one needs its flag
# or its config-file key.
_REQUIRED = ("gate", "axis", "grid_from", "grid_to", "points")

_RUN = (
    "out", "seed", "bias", "forcing", "noise", "delta", "bit_duration",
    "transient", "dt", "divergence_bound",
)
_PROGRAM = ("n_bits", "bits")
_DECODE = ("settle_fraction", "agreement_threshold")
_SWEEP = (
    "axis", "grid_from", "grid_to", "points", "sets", "runs", "bits_per_run",
)

# Each subcommand's help and the settings it runs: all it takes as flags
# or config-file keys, and all its snapshot records.
_COMMANDS = {
    "simulate": (
        "write one sampled trajectory", (*_RUN, "gate", *_PROGRAM, "stride")
    ),
    "gate": (
        "score one program through a gate",
        (*_RUN, "gate", *_PROGRAM, *_DECODE),
    ),
    "sweep": ("P(logic) along a grid", (*_RUN, "gate", *_DECODE, *_SWEEP)),
    "phase": (
        "export labeled phase samples", (*_RUN, "gate", *_PROGRAM, "stride")
    ),
    "latch": ("score the set-reset latch", (*_RUN, *_PROGRAM, *_DECODE)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlclogic",
        description="Logic gates in a driven bistable circuit model.",
    )
    parser.add_argument(
        "--version", action="version", version=f"mlclogic {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON file with flat default settings")
        for name in names:
            p.add_argument(_flag(name), dest=name, **_SETTINGS[name][1])
    return parser


def _flag(name: str) -> str:
    return _FLAG_NAMES.get(name, "--" + name.replace("_", "-"))


def _load_config_file(path, names) -> dict:
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"config {path} must hold a flat JSON object")
    unknown = set(loaded) - set(names)
    if unknown:
        raise ConfigError(
            f"unknown config keys: {', '.join(sorted(unknown))}"
        )
    for key, value in loaded.items():
        default, flag = _SETTINGS[key]
        kind = flag.get("type", str)
        kinds = (int, float) if kind is float else (kind,)
        if default is None:
            kinds += (type(None),)
        if type(value) not in kinds:
            raise ConfigError(f"config {key} has the wrong type")
        choices = flag.get("choices")
        if choices and value is not None and value not in choices:
            raise ConfigError(f"config {key} must be one of {choices}")
    return loaded


def _effective(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and explicit flags, in that order,
    over the settings the subcommand runs."""
    names = _COMMANDS[args.command][1]
    settings = {name: _SETTINGS[name][0] for name in names}
    if args.config:
        settings.update(_load_config_file(args.config, names))
    for name in names:
        val = getattr(args, name)
        if val is not None:
            settings[name] = val
    missing = [
        _flag(n) for n in _REQUIRED if n in settings and settings[n] is None
    ]
    if missing:
        raise ConfigError(f"missing required setting: {', '.join(missing)}")
    return settings


def _parse_bits(text: str, arity: int) -> tuple:
    try:
        flat = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--bits must be a comma list of 0/1: {exc}")
    if not flat or len(flat) % arity:
        raise ConfigError(
            f"--bits length must be a positive multiple of {arity}"
        )
    n = len(flat) // arity
    return tuple(
        tuple(flat[k * arity + c] for k in range(n)) for c in range(arity)
    )


def _build_program(settings: dict, combiner: str) -> LogicProgram:
    program_kw = dict(
        combiner=combiner,
        delta=settings["delta"],
        bit_duration=settings["bit_duration"],
        transient=settings["transient"],
    )
    if settings["bits"] is not None:
        channels = _parse_bits(settings["bits"], COMBINER_ARITY[combiner])
        program = LogicProgram(channels=channels, **program_kw)
        settings["n_bits"] = program.n_bits
        return program
    return random_program(
        settings["n_bits"],
        seed=derive_seed(settings["seed"], "program", 0),
        **program_kw,
    )


def _integrator_config(settings: dict) -> IntegratorConfig:
    return IntegratorConfig(
        dt=settings["dt"],
        divergence_bound=settings["divergence_bound"],
        stride=settings.get("stride", _INTEGRATOR_DEFAULTS.stride),
    )


def _decode_settings(settings: dict) -> DecodeSettings | None:
    """Decode settings, or None for a subcommand that decodes nothing."""
    if "settle_fraction" not in settings:
        return None
    return DecodeSettings(**{name: settings[name] for name in _DECODE})


def _write_snapshot(out_dir: Path, command: str, settings: dict) -> None:
    snapshot = dict(settings, command=command, version=__version__)
    write_json(out_dir / "config.json", snapshot)


def _resolve_params(settings: dict, spec):
    """Build operating params and write the resolved values back so the
    config snapshot records what actually ran."""
    params = gate_params(
        spec,
        bias=settings["bias"],
        f=settings["forcing"],
        noise_d=settings["noise"],
        delta=settings["delta"],
    )
    settings["bias"] = params.bias
    settings["forcing"] = params.f
    settings["noise"] = params.noise_d
    settings["delta"] = params.delta
    return params


def _setup(args, gate=None):
    """Resolve what a single-program subcommand runs: settings, gate,
    operating point, program, integrator config, noise generator,
    decode settings and output directory. Every setting is checked
    before anything runs."""
    settings = _effective(args)
    spec = gate_spec(gate or settings["gate"])
    params = _resolve_params(settings, spec)
    program = _build_program(settings, spec.combiner)
    config = _integrator_config(settings)
    seed = derive_seed(settings["seed"], "noise", 0, 0)
    # numpy.random loads on first use; a deterministic run never needs it
    rng = np.random.default_rng(seed) if params.noise_d > 0 else None
    decode = _decode_settings(settings)
    out_dir = _ensure_out(settings)
    return settings, spec, params, program, config, rng, decode, out_dir


def _run_simulate(args) -> int:
    settings, _, params, program, config, rng, _, out_dir = _setup(args)
    traj = integrate(
        DEFAULT_X0, params, program, program.end_time, config, rng
    )
    traj.write_csv(out_dir / "trajectory.csv")
    program.write_csv(out_dir / "program.csv")
    _write_snapshot(out_dir, "simulate", settings)
    return EXIT_OK


def _run_gate(args) -> int:
    settings, spec, params, program, config, rng, decode, out_dir = _setup(
        args
    )
    traj = integrate(
        DEFAULT_X0, params, program, program.end_time, config, rng
    )
    outcome = score_trial(traj, program, spec, decode)
    program.write_csv(out_dir / "program.csv")
    write_json(out_dir / "outcome.json", outcome.to_dict())
    _write_snapshot(out_dir, "gate", settings)
    return EXIT_OK if outcome.success else EXIT_LOGIC_FAILURE


def _run_sweep(args) -> int:
    settings = _effective(args)
    spec = gate_spec(settings["gate"])
    check_count("points", settings["points"])
    lo, hi = settings["grid_from"], settings["grid_to"]
    # a span past the float range would fill the grid with inf and nan
    check_finite("the span from --from to --to", hi - lo)
    values = np.linspace(lo, hi, settings["points"])
    base = _resolve_params(settings, spec)
    sweep_params(base, settings["axis"], values)  # checks the grid
    config = _integrator_config(settings)
    out_dir = _ensure_out(settings)
    report = sweep(
        spec,
        settings["axis"],
        values,
        base_seed=settings["seed"],
        n_sets=settings["sets"],
        n_runs_per_set=settings["runs"],
        bits_per_run=settings["bits_per_run"],
        bit_duration=settings["bit_duration"],
        transient=settings["transient"],
        config=config,
        settings=_decode_settings(settings),
        params=base,
    )
    report.write_csv(out_dir / "report.csv")
    report.write_json(out_dir / "report.json")
    _write_snapshot(out_dir, "sweep", settings)
    return EXIT_OK


def _run_phase(args) -> int:
    settings, _, params, program, config, rng, _, out_dir = _setup(args)
    portrait = export_phase_portrait(program, params, config, rng)
    portrait.write_csv(out_dir / "phase.csv")
    program.write_csv(out_dir / "program.csv")
    _write_snapshot(out_dir, "phase", settings)
    return EXIT_OK


def _run_latch(args) -> int:
    settings, _, params, program, config, rng, decode, out_dir = _setup(
        args, "SR_HIGH"
    )
    result = run_latch_experiment(program, params, config, decode, rng)
    program.write_csv(out_dir / "program.csv")
    write_json(out_dir / "latch.json", result.to_dict())
    _write_snapshot(out_dir, "latch", settings)
    return EXIT_OK if result.success else EXIT_LOGIC_FAILURE


def _ensure_out(settings: dict) -> Path:
    out_dir = Path(settings["out"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output dir {out_dir}: {exc}")
    return out_dir


_RUNNERS = {
    "simulate": _run_simulate,
    "gate": _run_gate,
    "sweep": _run_sweep,
    "phase": _run_phase,
    "latch": _run_latch,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except DivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (MlcLogicError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
