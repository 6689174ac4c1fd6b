"""Logic input programs and their encoding into the drive signal.

A logic program is a fixed-length sequence of input bit tuples, one per
channel. Each bit maps to a two-level stream (+delta for 1, -delta for
0) and the channel streams are combined into a single additive drive
term I(t). The program starts after a settling transient and each bit
is held for one bit duration.

Bit edges are aligned to the integration step grid: bit_duration and
transient must both be exact multiples of dt. The defaults below tie
the bit duration to the sinusoidal drive (16 periods of omega=1,
rounded to the 0.01 grid) so every bit starts at the same drive phase.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatchError, ConfigError
from .params import check_count, check_finite

DEFAULT_BIT_DURATION = 100.53
DEFAULT_TRANSIENT = 495.5

COMBINER_ARITY = {"SUM2": 2, "DIFF2": 2, "SUM3": 3}

# The compiled kernel counts steps in signed 64-bit integers.
MAX_STEPS = 2**63 - 1


def check_steps(name: str, n: int) -> None:
    """Raise ConfigError when step count n does not fit MAX_STEPS."""
    if n > MAX_STEPS:
        raise ConfigError(f"{name} needs {n:.4g} steps, more than 2**63 - 1")


def grid_steps(duration: float, dt: float, name: str, minimum: int = 0) -> int:
    """Number of dt steps in duration, which must be a finite whole
    multiple of dt of at least `minimum` steps."""
    check_finite(name, duration)
    steps = duration / dt
    check_finite(f"{name}/dt", steps)
    n = round(steps)
    check_steps(name, n)
    if n < minimum or abs(n * dt - duration) > 1e-9:
        raise ConfigError(
            f"{name}={duration} is not a multiple of dt={dt} "
            f"of at least {minimum} steps"
        )
    return n


def bit_starts(
    transient: float, bit_duration: float, dt: float, n_bits: int
) -> list:
    """The step at which each of n_bits bits starts, then the step that
    ends the program. Bit k holds its level over steps starts[k] ..
    starts[k+1] - 1, so its samples are the states after those steps."""
    start = grid_steps(transient, dt, "transient")
    spb = grid_steps(bit_duration, dt, "bit_duration", minimum=1)
    check_steps("the program", start + n_bits * spb)
    return [start + k * spb for k in range(n_bits + 1)]


def encode_channel(bit: int, delta: float) -> float:
    """Map a logic bit to its stream level: 1 -> +delta, 0 -> -delta."""
    if bit not in (0, 1):
        raise ConfigError(f"bit must be 0 or 1, got {bit!r}")
    return delta if bit else -delta


def combine(levels, combiner: str) -> float:
    """Combine per-channel stream levels into one drive term.

    SUM2 and SUM3 add the channels; DIFF2 subtracts the second channel
    from the first (used by the set-reset latch, where channel 1 is set
    and channel 2 is reset).
    """
    arity = COMBINER_ARITY.get(combiner)
    if arity is None:
        raise ConfigError(f"unknown combiner {combiner!r}")
    levels = tuple(float(v) for v in levels)
    if len(levels) != arity:
        raise ArityMismatchError(
            f"{combiner} expects {arity} channels, got {len(levels)}"
        )
    if combiner == "DIFF2":
        return levels[0] - levels[1]
    return float(sum(levels))


def level_for_bits(bits, combiner: str, delta: float) -> float:
    """Combined drive level for one bit tuple."""
    return combine([encode_channel(b, delta) for b in bits], combiner)


@dataclass(frozen=True)
class LogicProgram:
    """A timed sequence of logic inputs.

    channels      per-channel bit sequences, all the same length
    combiner      how channel streams add up into I(t)
    delta         stream half-step
    bit_duration  hold time per bit
    transient     settling time before bit 0 starts; I(t) = 0 there
    """

    channels: tuple
    combiner: str = "SUM2"
    delta: float = 0.2
    bit_duration: float = DEFAULT_BIT_DURATION
    transient: float = DEFAULT_TRANSIENT

    def __post_init__(self):
        chans = tuple(tuple(int(b) for b in ch) for ch in self.channels)
        object.__setattr__(self, "channels", chans)
        arity = COMBINER_ARITY.get(self.combiner)
        if arity is None:
            raise ConfigError(f"unknown combiner {self.combiner!r}")
        if len(chans) != arity:
            raise ArityMismatchError(
                f"{self.combiner} expects {arity} channels, got {len(chans)}"
            )
        if not chans[0]:
            raise ConfigError("program must contain at least one bit")
        n = len(chans[0])
        if any(len(ch) != n for ch in chans):
            raise ConfigError("all channels must have the same length")
        for ch in chans:
            for b in ch:
                if b not in (0, 1):
                    raise ConfigError(f"bits must be 0 or 1, got {b!r}")
        for name in ("delta", "bit_duration", "transient"):
            check_finite(name, getattr(self, name))
        if self.bit_duration <= 0 or self.transient < 0:
            raise ConfigError("bit_duration must be > 0 and transient >= 0")

    @property
    def n_bits(self) -> int:
        return len(self.channels[0])

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def end_time(self) -> float:
        return self.transient + self.n_bits * self.bit_duration

    def bit(self, k: int) -> tuple:
        """Input bit tuple at position k."""
        return tuple(ch[k] for ch in self.channels)

    def bit_tuples(self) -> list:
        return [self.bit(k) for k in range(self.n_bits)]

    def level(self, k: int) -> float:
        """Combined drive level while bit k is held."""
        return level_for_bits(self.bit(k), self.combiner, self.delta)

    def levels(self) -> np.ndarray:
        return np.array([self.level(k) for k in range(self.n_bits)])

    def write_csv(self, path) -> None:
        """Write the bit table as bit_index,ch1,ch2[,ch3]."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["bit_index"] + [f"ch{i + 1}" for i in range(self.n_channels)]
            )
            for k in range(self.n_bits):
                writer.writerow([k] + list(self.bit(k)))


def read_program_csv(
    path,
    combiner: str = "SUM2",
    delta: float = 0.2,
    bit_duration: float = DEFAULT_BIT_DURATION,
    transient: float = DEFAULT_TRANSIENT,
) -> LogicProgram:
    """Load a bit table written by LogicProgram.write_csv."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0] or rows[0][0] != "bit_index":
        raise ConfigError(f"{path}: not a program CSV (missing header)")
    n_ch = len(rows[0]) - 1
    channels = [[] for _ in range(n_ch)]
    for row in rows[1:]:
        if len(row) != n_ch + 1:
            raise ConfigError(f"{path}: ragged row {row!r}")
        for i in range(n_ch):
            channels[i].append(int(row[i + 1]))
    return LogicProgram(
        channels=tuple(tuple(ch) for ch in channels),
        combiner=combiner,
        delta=delta,
        bit_duration=bit_duration,
        transient=transient,
    )


def random_program(
    n_bits: int,
    combiner: str = "SUM2",
    seed: int = 0,
    delta: float = 0.2,
    bit_duration: float = DEFAULT_BIT_DURATION,
    transient: float = DEFAULT_TRANSIENT,
) -> LogicProgram:
    """Draw a uniform random program.

    Bits are independent fair coin flips per channel. For DIFF2 the
    (1,1) pair is forbidden by latch semantics, so those draws are
    resampled; the remaining three pairs stay equally likely.
    """
    check_count("n_bits", n_bits)
    arity = COMBINER_ARITY.get(combiner)
    if arity is None:
        raise ConfigError(f"unknown combiner {combiner!r}")
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(n_bits):
        bits = tuple(int(v) for v in rng.integers(0, 2, size=arity))
        while combiner == "DIFF2" and bits == (1, 1):
            bits = tuple(int(v) for v in rng.integers(0, 2, size=arity))
        cols.append(bits)
    channels = tuple(tuple(col[i] for col in cols) for i in range(arity))
    return LogicProgram(
        channels=channels,
        combiner=combiner,
        delta=delta,
        bit_duration=bit_duration,
        transient=transient,
    )
