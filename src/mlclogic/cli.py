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
    export_phase_portrait,
    gate_params,
    program_delta,
    run_latch_experiment,
    sweep,
    write_json,
)
from .integrator import DEFAULT_X0, IntegratorConfig, integrate
from .params import check_count
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

# Flat config-file keys shared by all subcommands. Values in the file
# are overridden by flags given on the command line. None means the
# gate's operating point decides; the snapshot records the result.
_COMMON_KEYS = {
    "out": ".",
    "seed": 0,
    "bias": None,
    "forcing": None,
    "noise": None,
    "delta": None,
    "bit_duration": DEFAULT_BIT_DURATION,
    "transient": DEFAULT_TRANSIENT,
    "dt": _INTEGRATOR_DEFAULTS.dt,
    "stride": _INTEGRATOR_DEFAULTS.stride,
    "settle_fraction": DEFAULT_SETTINGS.settle_fraction,
    "agreement_threshold": DEFAULT_SETTINGS.agreement_threshold,
    "divergence_bound": _INTEGRATOR_DEFAULTS.divergence_bound,
    "n_bits": DESK_BITS_PER_RUN,
    "bits": None,
}

_SWEEP_KEYS = {
    "sets": DESK_N_SETS,
    "runs": DESK_N_RUNS,
    "bits_per_run": DESK_BITS_PER_RUN,
}

_RUN_KEYS = ("gate", "axis", "grid_from", "grid_to", "points")

# Config-file values used as they stand: numbers are checked later.
_FILE_TYPES = {
    "seed": (int,), "bits": (str, type(None)), "out": (str,), "gate": (str,),
}


def _add_common(p: argparse.ArgumentParser, gate_required=True) -> None:
    if gate_required:
        p.add_argument("--gate", required=True, help="gate registry name")
    p.add_argument("--config", help="JSON file with flat default settings")
    p.add_argument("--out", help="output directory (default .)")
    p.add_argument("--seed", type=int, help="top-level seed")
    p.add_argument("--bias", type=float, help="constant bias E")
    p.add_argument("--forcing", type=float, help="drive amplitude f")
    p.add_argument("--noise", type=float, help="noise intensity D")
    p.add_argument("--delta", type=float, help="logic encoding half-step")
    p.add_argument("--bit-duration", type=float, dest="bit_duration")
    p.add_argument("--transient", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--stride", type=int, help="sample every Nth step")
    p.add_argument("--settle-fraction", type=float, dest="settle_fraction")
    p.add_argument(
        "--agreement-threshold", type=float, dest="agreement_threshold"
    )
    p.add_argument(
        "--divergence-bound", type=float, dest="divergence_bound"
    )
    p.add_argument("--n-bits", type=int, dest="n_bits")
    p.add_argument(
        "--bits",
        help="explicit program bits, flat comma list grouped per bit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlclogic",
        description="Logic gates in a driven bistable circuit model.",
    )
    parser.add_argument(
        "--version", action="version", version=f"mlclogic {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write one sampled trajectory")
    _add_common(p_sim)

    p_gate = sub.add_parser("gate", help="score one program through a gate")
    _add_common(p_gate)

    p_sweep = sub.add_parser("sweep", help="P(logic) along a grid")
    _add_common(p_sweep)
    p_sweep.add_argument(
        "--axis", required=True, choices=("noise", "forcing")
    )
    p_sweep.add_argument(
        "--from", dest="grid_from", type=float, required=True
    )
    p_sweep.add_argument("--to", dest="grid_to", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--sets", type=int)
    p_sweep.add_argument("--runs", type=int)
    p_sweep.add_argument("--bits-per-run", type=int, dest="bits_per_run")

    p_phase = sub.add_parser("phase", help="export labeled phase samples")
    _add_common(p_phase)

    p_latch = sub.add_parser("latch", help="score the set-reset latch")
    _add_common(p_latch, gate_required=False)

    return parser


def _load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"config {path} must hold a flat JSON object")
    known = set(_COMMON_KEYS) | set(_SWEEP_KEYS) | set(_RUN_KEYS)
    unknown = set(loaded) - known
    if unknown:
        raise ConfigError(
            f"unknown config keys: {', '.join(sorted(unknown))}"
        )
    for key, kinds in _FILE_TYPES.items():
        if key in loaded and type(loaded[key]) not in kinds:
            raise ConfigError(f"config {key} has the wrong type")
    return loaded


def _effective(args: argparse.Namespace, defaults=_COMMON_KEYS) -> dict:
    """Merge defaults, config file, and explicit flags, in that order."""
    settings = dict(defaults)
    if getattr(args, "config", None):
        settings.update(_load_config_file(args.config))
    for key in [*settings, *_RUN_KEYS]:
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = val
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
    if settings.get("bits"):
        channels = _parse_bits(settings["bits"], COMBINER_ARITY[combiner])
        return LogicProgram(channels=channels, **program_kw)
    return random_program(
        settings["n_bits"],
        seed=derive_seed(settings["seed"], "program", 0),
        **program_kw,
    )


def _integrator_config(settings: dict) -> IntegratorConfig:
    return IntegratorConfig(
        dt=settings["dt"],
        divergence_bound=settings["divergence_bound"],
        stride=settings["stride"],
    )


def _decode_settings(settings: dict) -> DecodeSettings:
    return DecodeSettings(
        settle_fraction=settings["settle_fraction"],
        agreement_threshold=settings["agreement_threshold"],
    )


def _write_snapshot(out_dir: Path, command: str, settings: dict) -> None:
    snapshot = dict(settings, command=command, version=__version__)
    write_json(out_dir / "config.json", snapshot)


def _resolve_params(settings: dict, spec):
    """Build operating params and write the resolved values back so the
    config snapshot records what actually ran."""
    if settings["delta"] is None:
        settings["delta"] = program_delta(spec)
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
    settings = _effective(args, {**_COMMON_KEYS, **_SWEEP_KEYS})
    spec = gate_spec(settings["gate"])
    check_count("points", settings["points"])
    values = np.linspace(
        settings["grid_from"], settings["grid_to"], settings["points"]
    )
    base = _resolve_params(settings, spec)
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
        delta=settings["delta"],
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
