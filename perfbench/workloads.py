"""The benchmark's workloads: inputs, one timed round, output checks.

Each workload builds its inputs from the benchmark seed (`build`), runs
one closed-loop round of calls into the package (`round`), and checks
what the rounds returned against `reference` (`check`). A round is the
same operations on every call, so a run that repeats rounds keeps the
same share of failed operations whatever its length.

All programs use the packaged bit duration and a transient of 93.38,
the packaged 495.5 less four bit durations: bit edges keep the drive
phase of the packaged timing (to 0.004 rad) while one trial costs
9,338 + 10,053 steps per bit instead of 49,550 + 10,053 per bit.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import mlclogic.cli as cli
import mlclogic.decode as decode
import mlclogic.dynamics as dynamics
import mlclogic.experiments as experiments
import mlclogic.integrator as integrator
import mlclogic.params as params
import mlclogic.seeding as seeding
import mlclogic.signals as signals
import reference as ref

TRANSIENT = 93.38
BIT_DURATION = 100.53
TS = ref.steps(TRANSIENT)
SPB = ref.steps(BIT_DURATION)

# (bias, f) of each operating point the workloads use, as the package
# README's table gives them, and the decode predicate of each output.
POINTS = {
    "OR": (0.01, 0.10),
    "AND": (-0.01, 0.10),
    "XOR": (0.01, 0.16),
    "OR3": (0.25, 0.10),
    "SR": (0.0, 0.10),
}
PREDICATES = {
    "OR": (0, lambda v: v > 0.0),
    "AND": (0, lambda v: v > 0.0),
    "XOR": (0, lambda v: -1.5 <= v <= 1.5),
    "SR_HIGH": (1, lambda v: v < 0.0),
    "SR_LOW": (0, lambda v: v < 0.0),
}
GATE_DELTA = 0.2
LATCH_DELTA = 0.05
# States of the circuit form and the cell-network form drift apart by
# rounding only; over a few 10^4 steps they stay within this distance.
STATE_TOL = 1e-9


def trial_steps(n_bits: int) -> int:
    return TS + n_bits * SPB


def bench_seed(seed: int, *tags) -> int:
    """Seed handed to the package, derived from the benchmark seed."""
    text = ":".join(["perfbench", str(seed)] + [str(t) for t in tags])
    return int.from_bytes(hashlib.sha256(text.encode("ascii")).digest()[:4], "big")


@dataclass
class RoundOut:
    ops: int
    failed: int
    result: object
    call_s: dict = field(default_factory=dict)


@contextmanager
def capturing(owner, name):
    """Temporarily wrap owner.name, keeping the arguments and the return
    value of its latest call."""
    original = getattr(owner, name)
    got = {}

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        got.update(args=args, out=out)
        return out

    setattr(owner, name, wrapper)
    try:
        yield got
    finally:
        setattr(owner, name, original)


# ---------------------------------------------------------------- sweeps


@dataclass
class Point:
    seed: int
    programs: list
    levels: np.ndarray
    noise_seeds: list


@dataclass
class SweepInput:
    gate: str
    base: int
    grid: tuple
    points: list


class SweepWorkload:
    """P(logic) sweeps along one axis, one `experiments.sweep` per gate."""

    def __init__(self, name, axis, grids, n_sets, n_runs, bits, sample):
        self.name = name
        self.axis = axis
        self.grids = grids
        self.n_sets = n_sets
        self.n_runs = n_runs
        self.bits = bits
        self.sample = sample

    def build(self, seed):
        """Programs, levels and seeds of every point, derived the way
        `estimate_plogic` derives them, through the public functions."""
        sweeps = []
        for gate, grid in self.grids.items():
            base = bench_seed(seed, self.name, gate)
            points = []
            for i in range(len(grid)):
                pseed = seeding.derive_seed(base, "sweep", self.axis, i)
                programs = [
                    signals.random_program(
                        self.bits,
                        seed=seeding.derive_seed(pseed, "program", k),
                        transient=TRANSIENT,
                    )
                    for k in range(self.n_sets)
                ]
                noise_seeds = [
                    seeding.derive_seed(pseed, "noise", k, j)
                    for k in range(self.n_sets)
                    for j in range(self.n_runs)
                ]
                levels = np.array([p.levels() for p in programs])
                points.append(Point(pseed, programs, levels, noise_seeds))
            sweeps.append(SweepInput(gate, base, grid, points))
        return sweeps

    def trial_steps(self, inputs) -> int:
        n_points = sum(len(s.grid) for s in inputs)
        return n_points * self.n_sets * self.n_runs * trial_steps(self.bits)

    def round(self, inputs, work):
        reports = [
            experiments.sweep(
                s.gate,
                self.axis,
                s.grid,
                base_seed=s.base,
                n_sets=self.n_sets,
                n_runs_per_set=self.n_runs,
                bits_per_run=self.bits,
                transient=TRANSIENT,
            )
            for s in inputs
        ]
        return RoundOut(ops=len(reports), failed=0, result=reports)

    def check(self, inputs, outs, work, seed):
        errors = []
        first = [r.to_dict() for r in outs[0].result]
        if any([r.to_dict() for r in o.result] != first for o in outs[1:]):
            errors.append("sweep reports differ between rounds")
        trials = self.n_sets * self.n_runs
        for s, rep in zip(inputs, outs[0].result):
            if list(rep.axis_values) != list(s.grid):
                errors.append(f"{s.gate}: axis values {rep.axis_values}")
            for v, pt in zip(rep.axis_values, rep.points):
                lo, hi = ref.wilson(pt.successes, pt.trials)
                if not (
                    pt.trials == trials
                    and pt.diverged == 0
                    and pt.p_logic == pt.successes / trials
                    and pt.ci_lo <= pt.p_logic <= pt.ci_hi
                    and abs(max(lo, 0.0) - pt.ci_lo) < 1e-9
                    and abs(min(hi, 1.0) - pt.ci_hi) < 1e-9
                ):
                    errors.append(f"{s.gate} {self.axis}={v}: bad point {pt}")
        rng = random.Random(bench_seed(seed, self.name, "check"))
        candidates = [
            (s, i, rep)
            for s, rep in zip(inputs, outs[0].result)
            for i, v in enumerate(s.grid)
            if self.axis == "forcing" or v > 0
        ]
        s, i, rep = rng.choice(candidates)
        errors += self._check_point(s, i, rep.points[i], rng)
        return errors

    def _check_point(self, s, i, reported, rng):
        """Re-run one point in isolation and re-run a sample of its
        trials in the reference."""
        errors = []
        pt = s.points[i]
        pseed = ref.derive_seed(s.base, "sweep", self.axis, i)
        if pseed != pt.seed:
            errors.append(f"point seed {pt.seed} != reference {pseed}")
        for k, prog in enumerate(pt.programs):
            bits = ref.program_bits(ref.derive_seed(pseed, "program", k), self.bits, 2)
            if prog.bit_tuples() != bits:
                errors.append(f"program {k} bits {prog.bit_tuples()} != {bits}")
        bias, f = POINTS[s.gate]
        noise = 0.0
        if self.axis == "forcing":
            f = s.grid[i]
        else:
            noise = s.grid[i]
        with capturing(experiments, "batch_bit_residences") as got, capturing(
            decode.DecodeRule, "holds"
        ) as last:
            est = experiments.estimate_plogic(
                s.gate,
                experiments.gate_params(s.gate, f=f, noise_d=noise),
                n_sets=self.n_sets,
                n_runs_per_set=self.n_runs,
                bits_per_run=self.bits,
                base_seed=pseed,
                transient=TRANSIENT,
            )
        if est.to_dict() != reported.to_dict():
            errors.append(f"isolated point {est} != swept {reported}")
        residences = got["out"].residences[0]
        # the decode rule last sees the state after the final step
        final = last["args"][1]
        var, pred = PREDICATES[s.gate]
        n_trials = self.n_sets * self.n_runs
        picked = rng.sample(range(n_trials), min(self.sample, n_trials))
        successes = 0
        for t in picked:
            k, j = divmod(t, self.n_runs)
            levels = [ref.level(b, GATE_DELTA) for b in pt.programs[k].bit_tuples()]
            nseed = ref.derive_seed(pseed, "noise", k, j)
            if list(pt.levels[k]) != levels or pt.noise_seeds[t] != nseed:
                errors.append(f"trial {t}: levels or noise seed differ from reference")
            traj = ref.trajectory(levels, bias, f, TS, SPB, noise, nseed)
            res = ref.residences(traj[var], TS, SPB, self.bits, pred)
            if abs(final[t] - traj[var][-1]) > STATE_TOL:
                errors.append(f"trial {t}: final state {final[t]} != reference {traj[var][-1]}")
            if res != list(residences[t]):
                errors.append(f"trial {t}: residences {list(residences[t])} != reference {res}")
            truth = [ref.TRUTH[s.gate](b) for b in pt.programs[k].bit_tuples()]
            successes += [ref.decide(r) for r in res] == truth
        if len(picked) == n_trials and successes != reported.successes:
            errors.append(f"successes {reported.successes} != reference {successes}")
        return errors


# ---------------------------------------------------------------- xnor


XNOR_N_PROGRAMS = 20
XNOR_BITS = 2
# The default grid is np.arange(1.0, 1.61, 0.01): the float end point
# lets 1.61 in, so it holds 62 half-widths, 1.00 to 1.61.
XNOR_GRID = [round(1.0 + k / 100, 10) for k in range(62)]


class XnorCalibration:
    """`calibrate_xnor_band` over its default grid."""

    name = "xnor-calibration"

    def build(self, seed):
        base = bench_seed(seed, self.name)
        programs = [
            signals.random_program(
                XNOR_BITS,
                seed=seeding.derive_seed(base, "program", i),
                transient=TRANSIENT,
            )
            for i in range(XNOR_N_PROGRAMS)
        ]
        return base, programs

    def trial_steps(self, inputs) -> int:
        return XNOR_N_PROGRAMS * trial_steps(XNOR_BITS)

    def round(self, inputs, work):
        base = inputs[0]
        out = experiments.calibrate_xnor_band(
            base_seed=base,
            n_programs=XNOR_N_PROGRAMS,
            bits_per_run=XNOR_BITS,
            transient=TRANSIENT,
        )
        return RoundOut(ops=1, failed=0, result=out)

    def check(self, inputs, outs, work, seed):
        errors = []
        base, programs = inputs
        best, table = outs[0].result
        if any(o.result != outs[0].result for o in outs[1:]):
            errors.append("calibration differs between rounds")
        thetas = [t for t, _ in table]
        if len(thetas) != len(XNOR_GRID) or any(
            abs(a - b) > 1e-12 for a, b in zip(thetas, XNOR_GRID)
        ):
            errors.append(f"grid {thetas} is not the default grid")
            return errors
        bias, f = POINTS["XOR"]
        hits = np.zeros(len(thetas))
        x2_band_ok = True
        for i, prog in enumerate(programs):
            bits = ref.program_bits(ref.derive_seed(base, "program", i), XNOR_BITS, 2)
            if prog.bit_tuples() != bits:
                errors.append(f"program {i} bits {prog.bit_tuples()} != {bits}")
            levels = [ref.level(b, GATE_DELTA) for b in bits]
            _, x2 = ref.trajectory(levels, bias, f, TS, SPB)
            for (lo, hi), b in zip(ref.windows(TS, SPB, XNOR_BITS), bits):
                seg = np.array(x2[lo : hi + 1])
                expected = 1 - (b[0] ^ b[1])
                for g, theta in enumerate(thetas):
                    inside = np.count_nonzero((seg >= -theta) & (seg <= theta))
                    decoded = ref.decide(1.0 - inside / len(seg))
                    hits[g] += decoded == expected
                    if theta == best and decoded != expected:
                        x2_band_ok = False
        agreement = hits / (XNOR_N_PROGRAMS * XNOR_BITS)
        got = [a for _, a in table]
        if list(agreement) != got:
            errors.append(f"agreement table {got} != reference {list(agreement)}")
        runs, start = [], None
        for g, a in enumerate(list(agreement) + [0.0]):
            if a == 1.0 and start is None:
                start = g
            elif a != 1.0 and start is not None:
                runs.append((g - start, (start + g - 1) // 2))
                start = None
        if not runs or thetas[max(runs, key=lambda r: r[0])[1]] != best:
            errors.append(f"chosen half-width {best} is not the reference's")
        if not x2_band_ok:
            errors.append(f"half-width {best}: x2 band-complement decode is not XNOR")
        return errors


# ---------------------------------------------------------------- cli


@dataclass
class Call:
    key: str
    gate: str
    bits: list
    argv: list

    @property
    def command(self):
        return self.argv[0]


def _flat(bits):
    return ",".join(str(b) for t in bits for b in t)


def make_call(key, command, gate, bits, seed):
    argv = [command] + ([] if command == "latch" else ["--gate", gate])
    argv += ["--bits", _flat(bits), "--seed", str(seed), "--transient", str(TRANSIENT)]
    return Call(key, gate, bits, argv)


def run_calls(calls, work):
    """Call cli.main once per call, in order, timing each from outside."""
    codes, call_s = [], {}
    for c in calls:
        t0 = time.perf_counter()
        code = cli.main(c.argv + ["--out", str(work / c.key)])
        call_s.setdefault(c.command, []).append(time.perf_counter() - t0)
        codes.append(code)
    return codes, call_s


class CliRuns:
    """In-process `mlclogic.cli.main` calls: gate (OR, XOR, AND),
    simulate, latch and phase, one program each."""

    name = "cli-runs"
    # A fixed AND program with mixed inputs: at the packaged bias -0.01
    # it decodes off the truth table on every run (fault A03).
    AND_BITS = [(0, 1), (1, 0)]
    EXPECTED_CODES = [0, 0, 1, 0, 0, 0]

    def build(self, seed):
        rng = random.Random(bench_seed(seed, self.name))
        seed_arg = bench_seed(seed, self.name, "cli")

        def draw(n, arity, latch=False):
            out = []
            while len(out) < n:
                t = tuple(rng.randrange(2) for _ in range(arity))
                if not (latch and t == (1, 1)):
                    out.append(t)
            return out

        calls = [
            make_call("gate-or", "gate", "OR", draw(2, 2), seed_arg),
            make_call("gate-xor", "gate", "XOR", draw(2, 2), seed_arg),
            make_call("gate-and", "gate", "AND", self.AND_BITS, seed_arg),
            make_call("simulate", "simulate", "OR", draw(2, 2), seed_arg),
            make_call("latch", "latch", "SR", draw(4, 2, latch=True), seed_arg),
            make_call("phase", "phase", "OR3", draw(2, 3), seed_arg),
        ]
        programs = {
            c.key: signals.LogicProgram(
                channels=tuple(zip(*c.bits)),
                combiner={"SR": "DIFF2", "OR3": "SUM3"}.get(c.gate, "SUM2"),
                delta=LATCH_DELTA if c.gate == "SR" else GATE_DELTA,
                transient=TRANSIENT,
            )
            for c in calls
        }
        return calls, programs

    def trial_steps(self, inputs) -> int:
        return sum(trial_steps(len(c.bits)) for c in inputs[0])

    def round(self, inputs, work):
        codes, call_s = run_calls(inputs[0], work)
        return RoundOut(
            ops=len(codes),
            failed=sum(c != 0 for c in codes),
            result=codes,
            call_s=call_s,
        )

    def check(self, inputs, outs, work, seed):
        calls, programs = inputs
        errors = [
            f"exit codes {o.result} != {self.EXPECTED_CODES}"
            for o in outs
            if o.result != self.EXPECTED_CODES
        ]
        for c in calls:
            errors += check_call(c, programs[c.key], work / c.key)
        return errors


def _reference_run(call):
    bias, f = POINTS[call.gate]
    latch = call.gate == "SR"
    levels = [
        ref.level(b, LATCH_DELTA if latch else GATE_DELTA, difference=latch)
        for b in call.bits
    ]
    return levels, ref.trajectory(levels, bias, f, TS, SPB)


def _check_outcome(outcome, kind, bits, traj, expected):
    """One decoded output of outcome.json / latch.json against the
    reference: inputs, residences, decoded bits and expectations."""
    errors = []
    var, pred = PREDICATES[kind]
    res = ref.residences(traj[var], TS, SPB, len(bits), pred)
    rows = outcome["bits"]
    if [tuple(r["inputs"]) for r in rows] != list(bits):
        errors.append(f"{kind}: inputs {[r['inputs'] for r in rows]} != {bits}")
    if [r["residence"] for r in rows] != res:
        errors.append(f"{kind}: residences {[r['residence'] for r in rows]} != reference {res}")
    decoded = [ref.decide(r) for r in res]
    if [r["decoded"] for r in rows] != decoded:
        errors.append(f"{kind}: decoded {[r['decoded'] for r in rows]} != reference {decoded}")
    if expected is None:
        # SR_LOW decodes not-Q, so its own first output anchors 1 - Q
        low = kind == "SR_LOW"
        first = decoded[0] if not low or decoded[0] is None else 1 - decoded[0]
        expected = ref.sr_chain(bits, first)
        if low:
            expected = [None if q is None else 1 - q for q in expected]
    if [r["expected"] for r in rows] != expected:
        errors.append(f"{kind}: expected {[r['expected'] for r in rows]} != {expected}")
    if outcome["success"] != (decoded == expected):
        errors.append(f"{kind}: success flag {outcome['success']} disagrees")
    return errors


def check_call(call, program, out):
    """Check one CLI call's files against the reference."""
    errors = []
    try:
        config = json.loads((out / "config.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"{call.key}: config.json unreadable: {exc}"]
    if config.get("command") != call.command:
        errors.append(f"{call.key}: config.json command {config.get('command')}")
    errors += _check_program_csv(call, program, out / "program.csv")
    levels, traj = _reference_run(call)
    if call.command == "gate":
        outcome = json.loads((out / "outcome.json").read_text())
        truth = [ref.TRUTH[call.gate](b) for b in call.bits]
        errors += _check_outcome(outcome, call.gate, call.bits, traj, truth)
    elif call.command == "latch":
        result = json.loads((out / "latch.json").read_text())
        errors += _check_outcome(result["high"], "SR_HIGH", call.bits, traj, None)
        errors += _check_outcome(result["low"], "SR_LOW", call.bits, traj, None)
        complementary = all(
            h["decoded"] is not None and l["decoded"] == 1 - h["decoded"]
            for h, l in zip(result["high"]["bits"], result["low"]["bits"])
        )
        if not (result["complementary"] and complementary and result["success"]):
            errors.append(f"latch: outputs not complementary or not decoded: {result['success']}")
    elif call.command == "simulate":
        errors += _check_trajectory(call, levels, traj, out / "trajectory.csv")
    elif call.command == "phase":
        errors += _check_phase(call, traj, out / "phase.csv")
    return errors


def _check_program_csv(call, program, path):
    """program.csv holds the bits given, and reading it back and
    writing it again gives the same bytes."""
    errors = []
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    arity = len(call.bits[0])
    if rows[0] != ["bit_index"] + [f"ch{i + 1}" for i in range(arity)] or [
        tuple(int(v) for v in r[1:]) for r in rows[1:]
    ] != list(call.bits):
        errors.append(f"{call.key}: program.csv rows {rows}")
    back = signals.read_program_csv(
        path, combiner=program.combiner, delta=program.delta, transient=TRANSIENT
    )
    if back != program:
        errors.append(f"{call.key}: program.csv reads back as {back}")
    copy = path.with_name("program.roundtrip.csv")
    back.write_csv(copy)
    if copy.read_bytes() != path.read_bytes():
        errors.append(f"{call.key}: program.csv does not round-trip")
    copy.unlink()
    return errors


def _check_trajectory(call, levels, traj, path):
    errors = []
    bias, f = POINTS[call.gate]
    with open(path) as fh:
        header = fh.readline().strip()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    n = TS + len(levels) * SPB
    if header != "t,x1,x2,I,F_det" or data.shape != (n + 1, 5):
        return [f"simulate: trajectory.csv header {header!r}, shape {data.shape}"]
    k = np.arange(n + 1)
    if not np.array_equal(data[:, 0], k * ref.DT):
        errors.append("simulate: t column is not k*dt")
    lev = np.array([0.0] + levels)[
        np.where(k < TS, 0, 1 + np.minimum((k - TS) // SPB, len(levels) - 1))
    ]
    if not np.array_equal(data[:, 3], lev):
        errors.append("simulate: I column is not the program's levels")
    f_det = bias + lev + f * np.sin(k * ref.DT)
    if np.max(np.abs(data[:, 4] - f_det)) > 1e-12:
        errors.append("simulate: F_det is not bias + I + f*sin(t)")
    dev = max(
        np.max(np.abs(data[:, 1] - np.array(traj[0]))),
        np.max(np.abs(data[:, 2] - np.array(traj[1]))),
    )
    if dev > STATE_TOL:
        errors.append(f"simulate: states differ from reference by {dev:.3g}")
    return errors


def _check_phase(call, traj, path):
    errors = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    arity = len(call.bits[0])
    n_bits = len(call.bits)
    if header != ["x1", "x2"] + [f"bit_ch{i + 1}" for i in range(arity)] or (
        data.shape != (n_bits * SPB, 2 + arity)
    ):
        return [f"phase: phase.csv header {header}, shape {data.shape}"]
    j = np.arange(TS + 1, TS + n_bits * SPB + 1)
    labels = np.array(call.bits)[(j - TS - 1) // SPB]
    if not np.array_equal(data[:, 2:], labels):
        errors.append("phase: bit labels do not follow the program")
    dev = max(
        np.max(np.abs(data[:, 0] - np.array(traj[0][TS + 1 :]))),
        np.max(np.abs(data[:, 1] - np.array(traj[1][TS + 1 :]))),
    )
    if dev > STATE_TOL:
        errors.append(f"phase: states differ from reference by {dev:.3g}")
    return errors


# ---------------------------------------------------------------- probes

# Fixed one-bit calls, one per subcommand the cli-runs workload times.
PROBE_CALLS = [
    make_call("probe-gate", "gate", "OR", [(1, 0)], 1),
    make_call("probe-simulate", "simulate", "OR", [(1, 0)], 1),
    make_call("probe-latch", "latch", "SR", [(1, 0)], 1),
    make_call("probe-phase", "phase", "OR3", [(1, 0, 0)], 1),
]


def cli_probe(work, reps):
    """Median time per subcommand over `reps` passes of PROBE_CALLS."""
    times = {}
    for _ in range(reps):
        codes, call_s = run_calls(PROBE_CALLS, work)
        if any(codes):
            raise RuntimeError(f"probe CLI calls exited {codes}")
        for k, v in call_s.items():
            times.setdefault(k, []).extend(v)
    return {k: statistics.median(v) for k, v in times.items()}


def layer_probes():
    """Short fixed-size calls timed from outside: the drift at widths 1,
    100 and 1000 (median of 3 passes, in ns per state) and the batch RK4
    at width 1000 with and without noise (ns per trial-step)."""
    out = {}
    weights = params.derive_weights(params.CANONICAL)
    for width, n in ((1, 20000), (100, 20000), (1000, 4000)):
        x1 = np.full(width, 0.3)
        x2 = np.full(width, -0.2)
        force = np.full(width, 0.1)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(n):
                dynamics.drift_network(x1, x2, force, weights)
            times.append(time.perf_counter() - t0)
        out[f"dynamics.drift_network.ns_per_state.w{width}"] = (
            statistics.median(times) / (n * width) * 1e9
        )
    width, bit = 1000, 10.0
    indicator = decode.gate_spec("OR").indicator()
    for key, noise in (("w1000", 0.0), ("w1000_noise", 0.002)):
        p = experiments.gate_params("OR", noise_d=noise)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            integrator.batch_bit_residences(
                p,
                np.zeros((width, 1)),
                bit_duration=bit,
                transient=0.0,
                config=integrator.IntegratorConfig(),
                indicators=[indicator],
                noise_seeds=list(range(width)),
            )
            times.append(time.perf_counter() - t0)
        out[f"integrator.batch_bit_residences.ns_per_trial_step.{key}"] = (
            statistics.median(times) / (width * ref.steps(bit)) * 1e9
        )
    return out


def coverage_calls(work):
    """One small call into every traced layer, so that each layer has a
    measured figure on every workload: the CLI probe once, and a small
    estimate_plogic and calibrate_xnor_band on short bits."""
    cli_probe(work, 1)
    experiments.estimate_plogic(
        "OR", n_sets=2, n_runs_per_set=2, bits_per_run=1, bit_duration=10.0, transient=1.0
    )
    experiments.calibrate_xnor_band(
        base_seed=0, n_programs=2, bits_per_run=1, bit_duration=10.0, transient=1.0
    )


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            "forcing-sweep",
            "forcing",
            {"OR": (0.02, 0.10, 0.26), "XOR": (0.06, 0.16, 0.40)},
            n_sets=10,
            n_runs=1,
            bits=1,
            sample=10,
        ),
        SweepWorkload(
            "noise-sweep",
            "noise",
            {"OR": (0.0, 0.002, 0.005)},
            n_sets=20,
            n_runs=5,
            bits=2,
            sample=4,
        ),
        XnorCalibration(),
        CliRuns(),
    )
}
