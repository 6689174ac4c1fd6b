"""Decoding circuit responses into logic outputs, and the gate registry.

Each gate reads one state variable and reduces each bit window to a
residence fraction: the share of post-settle samples where the gate's
decode rule held. A bit decodes to 1 when residence reaches the
agreement threshold, to 0 when (1 - residence) does, and is otherwise
indeterminate, which always scores as a failure.

Sign decoding exploits the two wells of the bistable circuit: x1 > 0
selects the right well and x2 is anti-correlated with x1, so the same
run yields a gate on x1 and its complement on x2 for free. The
exclusive gates instead test whether the orbit stays inside a band
around the origin (small orbit in either well) or escapes it (large
orbit far in a well), which distinguishes the matched-input cases from
the mixed ones at a stronger drive.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    ArityMismatchError,
    ConfigError,
    EmptySegmentError,
    ForbiddenInputError,
)
from .params import check_finite
from .signals import COMBINER_ARITY, bit_starts

INDETERMINATE = None

# Calibrated half-width of the x2 rejection band for the complement of
# the exclusive-or decode. The run-all plateau at the standard
# operating point spans [1.28, 1.31]; 1.3 sits inside it.
XNOR_BAND_HALF_WIDTH = 1.3

RULE_KINDS = ("SIGN_POS", "SIGN_NEG", "BAND", "BAND_COMPLEMENT")


@dataclass(frozen=True)
class DecodeRule:
    """Predicate on one decoded variable.

    SIGN_POS          v > 0
    SIGN_NEG          v < 0
    BAND              lo <= v <= hi
    BAND_COMPLEMENT   v < lo or v > hi
    """

    kind: str
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ConfigError(f"unknown decode rule {self.kind!r}")
        if self.kind in ("BAND", "BAND_COMPLEMENT"):
            if self.lo is None or self.hi is None or not self.lo < self.hi:
                raise ConfigError("band rules need lo < hi")

    def holds(self, values):
        """Evaluate the predicate. Polymorphic over scalars/arrays."""
        v = np.asarray(values)
        if self.kind == "SIGN_POS":
            return v > 0.0
        if self.kind == "SIGN_NEG":
            return v < 0.0
        inside = (v >= self.lo) & (v <= self.hi)
        return inside if self.kind == "BAND" else ~inside


@dataclass(frozen=True)
class DecodeSettings:
    """Shared windowing thresholds for bit decoding."""

    settle_fraction: float = 0.5
    agreement_threshold: float = 0.9

    def __post_init__(self):
        check_finite("settle_fraction", self.settle_fraction)
        check_finite("agreement_threshold", self.agreement_threshold)
        if not 0 <= self.settle_fraction < 1:
            raise ConfigError("settle_fraction must be in [0, 1)")
        if not 0.5 < self.agreement_threshold <= 1:
            raise ConfigError("agreement_threshold must be in (0.5, 1]")

    def settle_cut(self, n: int) -> int:
        """How many leading samples of an n-sample bit window to drop.
        Raises EmptySegmentError when none would be left."""
        cut = round(n * self.settle_fraction)
        if cut >= n:
            raise EmptySegmentError("no samples left after settle trimming")
        return cut


DEFAULT_SETTINGS = DecodeSettings()


@dataclass(frozen=True)
class Indicator:
    """The decode rule on one state variable, "x1" or "x2", as a
    per-sample predicate (x1, x2) -> bool array.

    Each call looks up rule.holds afresh, so a wrapper set on
    DecodeRule.holds sees every call made through an indicator. The
    compiled batch loop evaluates the rule itself on every sample of a
    bit window but the last, which it scores through this call, so
    such a wrapper sees one call per window and indicator there.
    """

    var: str
    rule: DecodeRule

    def __post_init__(self):
        if self.var not in ("x1", "x2"):
            raise ConfigError("decode variable must be 'x1' or 'x2'")

    def __call__(self, x1, x2):
        return self.rule.holds(x1 if self.var == "x1" else x2)


@dataclass(frozen=True)
class GateSpec:
    """A gate: its expected output, operating point, and decode rule.

    kind          gate identifier, also the registry key
    decode_var    which state variable carries the output ("x1"/"x2")
    rule          decode predicate on that variable
    bias          constant bias E the gate operates at
    f             sinusoidal drive amplitude the gate operates at
    combiner      how input channels combine into I(t)
    truth         output for each count of 1 inputs; None for the
                  latch, whose output threads its previous state
    """

    kind: str
    decode_var: str
    rule: DecodeRule
    bias: float
    f: float
    combiner: str
    truth: tuple | None

    def __post_init__(self):
        self.indicator()  # checks decode_var

    @property
    def n_inputs(self) -> int:
        return COMBINER_ARITY[self.combiner]

    def indicator(self) -> Indicator:
        """The gate's decode rule on its decode variable."""
        return Indicator(self.decode_var, self.rule)


_SIGN_POS = DecodeRule("SIGN_POS")
_SIGN_NEG = DecodeRule("SIGN_NEG")
_IN_BAND = DecodeRule("BAND", -1.5, 1.5)
_OUT_BAND = DecodeRule(
    "BAND_COMPLEMENT", -XNOR_BAND_HALF_WIDTH, XNOR_BAND_HALF_WIDTH
)

GATES = {
    "OR": GateSpec("OR", "x1", _SIGN_POS, 0.01, 0.1, "SUM2", (0, 1, 1)),
    "NOR": GateSpec("NOR", "x2", _SIGN_POS, 0.01, 0.1, "SUM2", (1, 0, 0)),
    "AND": GateSpec("AND", "x1", _SIGN_POS, -0.01, 0.1, "SUM2", (0, 0, 1)),
    "NAND": GateSpec("NAND", "x2", _SIGN_POS, -0.01, 0.1, "SUM2", (1, 1, 0)),
    "XOR": GateSpec("XOR", "x1", _IN_BAND, 0.01, 0.16, "SUM2", (0, 1, 0)),
    "XNOR": GateSpec("XNOR", "x2", _OUT_BAND, 0.01, 0.16, "SUM2", (1, 0, 1)),
    "OR3": GateSpec("OR3", "x1", _SIGN_POS, 0.25, 0.1, "SUM3", (0, 1, 1, 1)),
    "AND3": GateSpec(
        "AND3", "x1", _SIGN_POS, -0.25, 0.1, "SUM3", (0, 0, 0, 1)
    ),
    "SR_HIGH": GateSpec("SR_HIGH", "x2", _SIGN_NEG, 0.0, 0.1, "DIFF2", None),
    "SR_LOW": GateSpec("SR_LOW", "x1", _SIGN_NEG, 0.0, 0.1, "DIFF2", None),
}


def gate_spec(name: str) -> GateSpec:
    """Look up a gate by its registry key, case-insensitively."""
    spec = GATES.get(name.upper())
    if spec is None:
        raise ConfigError(
            f"unknown gate {name!r}; known: {', '.join(sorted(GATES))}"
        )
    return spec


def oracle(kind: str, bits, prev_q=None) -> int:
    """Expected logic output for one input tuple.

    A combinational gate reads its truth table at the count of 1
    inputs. The latch kinds follow the set bit (SR_HIGH, output Q) or
    the reset bit (SR_LOW, output not-Q); prev_q is the gate's own
    previous output and is required when the input is the hold pair
    (0,0). The (1,1) pair is forbidden and raises ForbiddenInputError.
    """
    bits = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in bits):
        raise ConfigError(f"bits must be 0 or 1, got {bits}")
    spec = gate_spec(kind)
    n = spec.n_inputs
    if len(bits) != n:
        raise ArityMismatchError(f"{spec.kind} takes {n} inputs, got {bits}")
    if spec.truth is not None:
        return spec.truth[sum(bits)]
    if bits == (1, 1):
        raise ForbiddenInputError("latch input (1,1) is forbidden")
    if bits == (0, 0):
        if prev_q is None:
            raise ConfigError("hold input (0,0) needs prev_q")
        return int(prev_q)
    return bits[0] if spec.kind == "SR_HIGH" else bits[1]


def decide(residence: float, threshold: float):
    """Map a residence fraction to 1, 0, or INDETERMINATE."""
    if residence >= threshold:
        return 1
    if 1.0 - residence >= threshold:
        return 0
    return INDETERMINATE


def decode_bit(values, rule: DecodeRule, settings: DecodeSettings = DEFAULT_SETTINGS):
    """Decode one bit window from its ordered samples.

    The leading settle_fraction of the samples is discarded; the rest
    vote through the rule. Returns (decoded, residence) with decoded
    in {1, 0, INDETERMINATE}.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ConfigError("decode_bit expects a 1-d sample array")
    kept = values[settings.settle_cut(len(values)) :]
    residence = float(np.mean(rule.holds(kept)))
    return decide(residence, settings.agreement_threshold), residence


@dataclass
class BitOutcome:
    """Scored result of one program bit."""

    bit_index: int
    inputs: tuple
    expected: int | None
    decoded: int | None
    residence: float
    match: bool
    forbidden: bool = False


@dataclass
class TrialOutcome:
    """Scored result of one full program run through one gate."""

    gate: str
    success: bool
    bits: list = field(default_factory=list)
    diverged: bool = False

    def to_dict(self) -> dict:
        return dict(asdict(self), n_bits=len(self.bits))


def expected_outputs(kind: str, bit_tuples, first_decoded=None) -> list:
    """Oracle outputs for a whole program.

    The output q threads from bit to bit, starting at the gate's own
    first decoded output (first_decoded), since an absolute initial
    latch state is not observable from outside; a leading latch hold
    therefore matches whatever the circuit settled to, unless the first
    bit fails to decode at all. A latch hold keeps q, and a forbidden
    (1,1) latch input sets q to None until the next set or reset.
    """
    spec = gate_spec(kind)
    latch = spec.truth is None
    out = []
    q = first_decoded
    for bits in bit_tuples:
        pair = tuple(bits)
        if latch and pair == (1, 1):
            q = None
        elif not (latch and pair == (0, 0)):
            q = oracle(spec.kind, bits, q)
        out.append(q)
    return out


def score_residences(
    gate: GateSpec,
    bit_tuples,
    residences,
    settings: DecodeSettings = DEFAULT_SETTINGS,
) -> TrialOutcome:
    """Score one trial from per-bit residence fractions.

    residences is the per-bit residence of gate.rule on the decode
    variable, in program order. Success requires every bit to decode
    determinately to the oracle output and no forbidden input.
    """
    residences = np.asarray(residences, dtype=float)
    if len(residences) != len(bit_tuples):
        raise ConfigError("one residence per bit required")
    decoded = [
        decide(r, settings.agreement_threshold) for r in residences
    ]
    first = decoded[0] if decoded else None
    expected = expected_outputs(gate.kind, bit_tuples, first_decoded=first)
    bits = []
    rows = zip(bit_tuples, expected, decoded)
    for idx, (pair, want, got) in enumerate(rows):
        inputs = tuple(int(b) for b in pair)
        bits.append(
            BitOutcome(
                bit_index=idx,
                inputs=inputs,
                expected=want,
                decoded=got,
                residence=float(residences[idx]),
                match=want is not None and got == want,
                forbidden=gate.truth is None and inputs == (1, 1),
            )
        )
    return TrialOutcome(
        gate=gate.kind, success=all(b.match for b in bits), bits=bits
    )


def score_trial(
    traj,
    program,
    gate: GateSpec,
    settings: DecodeSettings = DEFAULT_SETTINGS,
) -> TrialOutcome:
    """Score a sampled trajectory against a gate's oracle.

    The trajectory must start at step 0, cover the whole program and
    be sampled with stride 1, so sample j is the state after step j and
    bit windows are cut on the step grid exactly.
    """
    if program.n_channels != gate.n_inputs:
        raise ArityMismatchError(
            f"{gate.kind} expects {gate.n_inputs} channels, "
            f"got {program.n_channels}"
        )
    if traj.stride != 1:
        raise ConfigError("score_trial needs a stride-1 trajectory")
    starts = bit_starts(
        program.transient, program.bit_duration, traj.dt, program.n_bits
    )
    if len(traj) <= starts[-1]:
        raise EmptySegmentError("trajectory ends before the last bit")
    values = getattr(traj, gate.indicator().var)
    residences = [
        decode_bit(values[lo + 1 : hi + 1], gate.rule, settings)[1]
        for lo, hi in zip(starts, starts[1:])
    ]
    return score_residences(gate, program.bit_tuples(), residences, settings)
