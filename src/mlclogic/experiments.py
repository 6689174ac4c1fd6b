"""Logic-reliability experiments: P(logic) estimation and sweeps.

P(logic) for a gate is the probability that a whole random input
program decodes correctly on every bit. It is estimated over a grid of
random programs crossed with independent noise streams; a trial counts
as a success only if all bits match the gate's oracle, and diverged
trials count as failures.

Desk-scale defaults (20 program sets, 5 noise runs each, 20 bits per
run) keep single points in the tens of seconds. All randomness derives
from one base seed through tagged hashing, so every experiment is
exactly repeatable.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from itertools import groupby

import numpy as np

from .decode import (
    DEFAULT_SETTINGS,
    DecodeRule,
    DecodeSettings,
    GateSpec,
    Indicator,
    TrialOutcome,
    decide,
    gate_spec,
    oracle,
    score_residences,
    score_trial,
)
from .errors import ConfigError, ForbiddenInputError
from .integrator import (
    DEFAULT_X0,
    IntegratorConfig,
    batch_bit_residences,
    integrate,
)
from .params import CANONICAL, CircuitParams, check_count, check_finite
from .seeding import derive_seed
from .signals import (
    DEFAULT_BIT_DURATION,
    DEFAULT_TRANSIENT,
    LogicProgram,
    bit_starts,
    random_program,
)

# Latch encoding half-step. Set/reset drive the latch at +/-2*delta,
# strong enough to leave only one well; the hold level 0 keeps both
# wells so the latched bit survives. The gate delta of 0.2 would make
# set/reset levels bistable too and holding would not be reliable.
LATCH_DELTA = 0.05

DESK_N_SETS = 20
DESK_N_RUNS = 5
DESK_BITS_PER_RUN = 20


def wilson_interval(successes: int, trials: int):
    """Wilson score 95% interval for a binomial proportion."""
    if trials <= 0:
        raise ConfigError("trials must be > 0")
    if not 0 <= successes <= trials:
        raise ConfigError("successes must be in [0, trials]")
    p = successes / trials
    z = 1.96
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
        / denom
    )
    # the score equation has exact roots 0 (s=0) and 1 (s=n); keep them
    # free of rounding dust
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def gate_params(
    gate,
    *,
    bias: float | None = None,
    f: float | None = None,
    noise_d: float | None = None,
    delta: float | None = None,
) -> CircuitParams:
    """Circuit parameters at a gate's operating point, with overrides.
    Its encoding step delta is LATCH_DELTA for the latch."""
    spec = gate_spec(gate) if isinstance(gate, str) else gate
    if delta is None:
        delta = LATCH_DELTA if spec.combiner == "DIFF2" else CANONICAL.delta
    return replace(
        CANONICAL,
        bias=spec.bias if bias is None else bias,
        f=spec.f if f is None else f,
        noise_d=CANONICAL.noise_d if noise_d is None else noise_d,
        delta=delta,
    )


def write_json(path, obj: dict) -> None:
    """Write obj as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class PLogicEstimate:
    """One estimated P(logic) value with its Wilson 95% interval."""

    trials: int
    successes: int
    diverged: int
    p_logic: float
    ci_lo: float
    ci_hi: float

    def to_dict(self) -> dict:
        return asdict(self)


def _trial_programs(
    gate: GateSpec,
    n_sets: int,
    bits_per_run: int,
    base_seed: int,
    delta: float,
    bit_duration: float,
    transient: float,
):
    return [
        random_program(
            bits_per_run,
            combiner=gate.combiner,
            seed=derive_seed(base_seed, "program", i),
            delta=delta,
            bit_duration=bit_duration,
            transient=transient,
        )
        for i in range(n_sets)
    ]


def _estimate_points(
    spec: GateSpec,
    points,
    *,
    n_sets: int,
    n_runs_per_set: int,
    bits_per_run: int,
    bit_duration: float,
    transient: float,
    config: IntegratorConfig | None,
    settings: DecodeSettings,
) -> list:
    """P(logic) at each (params, base_seed) point, all points' trials
    run side by side in one batch.

    Each point draws its programs and noise seeds from its own base
    seed, so it scores as it would in a batch of its own.
    """
    check_count("n_sets", n_sets)
    check_count("n_runs_per_set", n_runs_per_set)
    check_count("bits_per_run", bits_per_run)
    config = config if config is not None else IntegratorConfig()
    n_trials = n_sets * n_runs_per_set
    programs, rows, noise_seeds = [], [], []
    for params, seed in points:
        programs += _trial_programs(
            spec,
            n_sets,
            bits_per_run,
            seed,
            params.delta,
            bit_duration,
            transient,
        )
        rows += [params] * n_trials
        noise_seeds += [
            derive_seed(seed, "noise", i, j)
            for i in range(n_sets)
            for j in range(n_runs_per_set)
        ]
    levels = np.array([p.levels() for p in programs])
    result = batch_bit_residences(
        rows,
        np.repeat(levels, n_runs_per_set, axis=0),
        bit_duration=bit_duration,
        transient=transient,
        config=config,
        indicators=[spec.indicator()],
        settings=settings,
        noise_seeds=noise_seeds,
    )
    res = result.residences[0]
    ok = [
        not result.diverged[t]
        and score_residences(
            spec, programs[t // n_runs_per_set].bit_tuples(), res[t], settings
        ).success
        for t in range(len(rows))
    ]
    estimates = []
    for first in range(0, len(rows), n_trials):
        successes = sum(ok[first : first + n_trials])
        diverged = int(result.diverged[first : first + n_trials].sum())
        lo, hi = wilson_interval(successes, n_trials)
        estimates.append(
            PLogicEstimate(
                trials=n_trials,
                successes=successes,
                diverged=diverged,
                p_logic=successes / n_trials,
                ci_lo=lo,
                ci_hi=hi,
            )
        )
    return estimates


def estimate_plogic(
    gate,
    params: CircuitParams | None = None,
    *,
    n_sets: int = DESK_N_SETS,
    n_runs_per_set: int = DESK_N_RUNS,
    bits_per_run: int = DESK_BITS_PER_RUN,
    base_seed: int = 0,
    bit_duration: float = DEFAULT_BIT_DURATION,
    transient: float = DEFAULT_TRANSIENT,
    config: IntegratorConfig | None = None,
    settings: DecodeSettings = DEFAULT_SETTINGS,
) -> PLogicEstimate:
    """Estimate P(logic) for one gate at one operating point.

    Draws n_sets random programs and runs each with n_runs_per_set
    independent noise streams (one stream per trial; deterministic
    runs never consume draws). params defaults to the gate's canonical
    operating point; pass explicit params to move it. Programs encode
    their bits at params.delta.
    """
    spec = gate_spec(gate) if isinstance(gate, str) else gate
    if params is None:
        params = gate_params(spec)
    [estimate] = _estimate_points(
        spec,
        [(params, base_seed)],
        n_sets=n_sets,
        n_runs_per_set=n_runs_per_set,
        bits_per_run=bits_per_run,
        bit_duration=bit_duration,
        transient=transient,
        config=config,
        settings=settings,
    )
    return estimate


@dataclass
class PLogicReport:
    """P(logic) along one swept axis."""

    gate: str
    axis: str
    axis_values: list
    points: list

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("axis_value,trials,successes,p_logic,ci_lo,ci_hi\n")
            for v, pt in zip(self.axis_values, self.points):
                fh.write(
                    "%.17g,%d,%d,%.17g,%.17g,%.17g\n"
                    % (v, pt.trials, pt.successes, pt.p_logic, pt.ci_lo, pt.ci_hi)
                )

    def to_dict(self) -> dict:
        return {
            "gate": self.gate,
            "axis": self.axis,
            "points": [
                dict(axis_value=v, **pt.to_dict())
                for v, pt in zip(self.axis_values, self.points)
            ],
        }

    def write_json(self, path) -> None:
        write_json(path, self.to_dict())


SWEEP_AXES = ("noise", "forcing")


def sweep_params(base: CircuitParams, axis: str, values) -> list:
    """The params of each sweep grid point: base with noise_d (axis
    "noise") or f (axis "forcing") set to the value. Raises ConfigError
    unless the values are finite, strictly increasing and valid there.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {SWEEP_AXES}")
    values = [float(v) for v in values]
    for v in values:
        check_finite(f"{axis} grid value", v)
    if len(values) < 1:
        raise ConfigError("sweep needs at least one grid value")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError("sweep values must be strictly increasing")
    key = "noise_d" if axis == "noise" else "f"
    return [replace(base, **{key: v}) for v in values]


def sweep(
    gate,
    axis: str,
    values,
    *,
    base_seed: int = 0,
    n_sets: int = DESK_N_SETS,
    n_runs_per_set: int = DESK_N_RUNS,
    bits_per_run: int = DESK_BITS_PER_RUN,
    bit_duration: float = DEFAULT_BIT_DURATION,
    transient: float = DEFAULT_TRANSIENT,
    config: IntegratorConfig | None = None,
    settings: DecodeSettings = DEFAULT_SETTINGS,
    params: CircuitParams | None = None,
) -> PLogicReport:
    """Estimate P(logic) along a noise or forcing amplitude grid.

    All grid points run side by side in one batch. Each point gets its
    own derived seed, so single points can be reproduced in isolation
    with estimate_plogic.
    """
    spec = gate_spec(gate) if isinstance(gate, str) else gate
    values = list(values)
    grid = sweep_params(
        gate_params(spec) if params is None else params, axis, values
    )
    points = _estimate_points(
        spec,
        [
            (p, derive_seed(base_seed, "sweep", axis, i))
            for i, p in enumerate(grid)
        ],
        n_sets=n_sets,
        n_runs_per_set=n_runs_per_set,
        bits_per_run=bits_per_run,
        bit_duration=bit_duration,
        transient=transient,
        config=config,
        settings=settings,
    )
    return PLogicReport(
        gate=spec.kind,
        axis=axis,
        axis_values=[float(v) for v in values],
        points=points,
    )


@dataclass
class PhasePortrait:
    """Post-transient state samples labeled with the active input bits."""

    x1: np.ndarray
    x2: np.ndarray
    bits: np.ndarray

    def write_csv(self, path) -> None:
        n_ch = self.bits.shape[1]
        with open(path, "w", newline="") as fh:
            fh.write(
                "x1,x2," + ",".join(f"bit_ch{i + 1}" for i in range(n_ch))
            )
            fh.write("\n")
            for k in range(len(self.x1)):
                fh.write(
                    "%.17g,%.17g,%s\n"
                    % (
                        self.x1[k],
                        self.x2[k],
                        ",".join(str(int(b)) for b in self.bits[k]),
                    )
                )


def export_phase_portrait(
    program: LogicProgram,
    params: CircuitParams,
    config: IntegratorConfig | None = None,
    rng: np.random.Generator | None = None,
) -> PhasePortrait:
    """Run one program and return its post-transient phase samples.

    Each sample carries the input bit tuple of the step that produced
    it, so the portrait can be split by input case.
    """
    config = config if config is not None else IntegratorConfig()
    traj = integrate(
        DEFAULT_X0, params, program, program.end_time, config, rng=rng
    )
    j = np.rint(traj.t / config.dt).astype(np.int64)
    starts = bit_starts(
        program.transient, program.bit_duration, config.dt, program.n_bits
    )
    keep = j > starts[0]
    # sample j is the state after step j - 1; label it with that step's bit
    k = np.searchsorted(starts, j[keep] - 1, side="right") - 1
    tuples = np.array(program.bit_tuples(), dtype=int)
    return PhasePortrait(
        x1=traj.x1[keep], x2=traj.x2[keep], bits=tuples[k]
    )


@dataclass
class LatchResult:
    """Both decoded outputs of one latch run."""

    high: TrialOutcome
    low: TrialOutcome

    @property
    def success(self) -> bool:
        return self.high.success and self.low.success

    def complementary(self) -> bool:
        """True when the two outputs decode to opposite bits everywhere."""
        return all(
            bh.decoded is not None
            and bl.decoded is not None
            and bh.decoded == 1 - bl.decoded
            for bh, bl in zip(self.high.bits, self.low.bits)
        )

    def to_dict(self) -> dict:
        return {
            "success": self.success,
            "complementary": self.complementary(),
            "high": self.high.to_dict(),
            "low": self.low.to_dict(),
        }


def run_latch_experiment(
    program: LogicProgram,
    params: CircuitParams | None = None,
    config: IntegratorConfig | None = None,
    settings: DecodeSettings = DEFAULT_SETTINGS,
    rng: np.random.Generator | None = None,
) -> LatchResult:
    """Drive the latch with a set/reset program and score both outputs.

    The program must use the DIFF2 combiner and contain no (1,1) pair;
    channel 1 is set, channel 2 is reset. One integration scores both
    the latched output (on x2) and its complement (on x1).
    """
    if program.combiner != "DIFF2":
        raise ConfigError("latch programs must use the DIFF2 combiner")
    bad = [
        k for k, b in enumerate(program.bit_tuples()) if b == (1, 1)
    ]
    if bad:
        raise ForbiddenInputError(
            f"latch input (1,1) is forbidden (bits {bad})"
        )
    if params is None:
        params = gate_params("SR_HIGH")
    config = config if config is not None else IntegratorConfig()
    traj = integrate(
        DEFAULT_X0, params, program, program.end_time, config, rng=rng
    )
    high = score_trial(traj, program, gate_spec("SR_HIGH"), settings)
    low = score_trial(traj, program, gate_spec("SR_LOW"), settings)
    return LatchResult(high=high, low=low)


def calibrate_xnor_band(
    *,
    base_seed: int = 0,
    n_programs: int = 20,
    bits_per_run: int = DESK_BITS_PER_RUN,
    bit_duration: float = DEFAULT_BIT_DURATION,
    transient: float = DEFAULT_TRANSIENT,
):
    """Find the x2 rejection band half-width for the exclusive-nor.

    Runs random programs at the exclusive-or operating point and scores
    each candidate half-width theta, 1.00 to 1.61 in steps of 0.01, by
    the share of bits where the band-complement decode on x2 matches
    the exclusive-nor truth table.
    Returns (best_theta, table) where table holds (theta, agreement)
    pairs and best_theta is the midpoint of the widest contiguous run
    of perfect agreement.
    """
    grid = np.round(np.arange(1.0, 1.61, 0.01), 10).tolist()
    xor = gate_spec("XOR")
    params = gate_params(xor)
    programs = _trial_programs(
        xor,
        n_programs,
        bits_per_run,
        base_seed,
        params.delta,
        bit_duration,
        transient,
    )
    levels = np.array([p.levels() for p in programs])
    result = batch_bit_residences(
        params,
        levels,
        bit_duration=bit_duration,
        transient=transient,
        config=IntegratorConfig(),
        indicators=[Indicator("x2", DecodeRule("BAND", -t, t)) for t in grid],
    )
    expected = [oracle("XNOR", b) for p in programs for b in p.bit_tuples()]
    table = []
    for gi, theta in enumerate(grid):
        # BAND_COMPLEMENT residence is 1 - BAND residence
        decoded = [
            decide(1.0 - r, DEFAULT_SETTINGS.agreement_threshold)
            for r in result.residences[gi].ravel()
        ]
        agreement = np.mean([d == e for d, e in zip(decoded, expected)])
        table.append((theta, float(agreement)))
    perfect = [
        [i for i, _ in run]
        for ok, run in groupby(enumerate(table), lambda it: it[1][1] == 1.0)
        if ok
    ]
    if not perfect:
        raise ConfigError("no half-width achieved perfect agreement")
    best = max(perfect, key=len)
    return table[(best[0] + best[-1]) // 2][0], table
