"""Circuit parameters and the derived cell-network weight mapping.

The model is a driven series LCR circuit with a piecewise-linear
nonlinear resistor, simulated in its dimensionless state-controlled
cellular-network form. The canonical operating point places the
unforced system in the bistable regime with two outer equilibria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

from .errors import ConfigError


def check_finite(name: str, value) -> None:
    """Raise ConfigError unless value is a finite real number."""
    ok = isinstance(value, Real) and not isinstance(value, bool)
    try:
        ok = ok and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")


def check_count(name: str, value) -> None:
    """Raise ConfigError unless value is an integer >= 1."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class CircuitParams:
    """Dimensionless circuit constants and drive levels.

    a, b      inner/outer slopes of the piecewise-linear conductance
    nu        parallel resistive loss factor
    beta      inverse LC time-scale ratio
    omega     angular frequency of the sinusoidal drive
    f         sinusoidal drive amplitude
    bias      constant bias E added to the drive
    noise_d   noise intensity D (variance growth rate of the noise input)
    delta     logic encoding half-step: bit 1 -> +delta, bit 0 -> -delta
    """

    a: float = -1.02
    b: float = -0.55
    nu: float = 0.015
    beta: float = 1.0
    omega: float = 1.0
    f: float = 0.1
    bias: float = 0.0
    noise_d: float = 0.0
    delta: float = 0.2

    def __post_init__(self):
        for fld in fields(self):
            check_finite(fld.name, getattr(self, fld.name))
        if self.noise_d < 0:
            raise ConfigError(f"noise_d must be >= 0, got {self.noise_d}")
        if self.delta <= 0:
            raise ConfigError(f"delta must be > 0, got {self.delta}")
        if self.omega <= 0:
            raise ConfigError(f"omega must be > 0, got {self.omega}")


CANONICAL = CircuitParams()


@dataclass(frozen=True)
class CnnWeights:
    """Cell-network weights equivalent to the circuit equations.

    The x1 cell carries the nonlinearity through its output saturation;
    the x2 cell is linear and receives the external drive.
    """

    a1: float
    s11: float
    s12: float
    s21: float
    s22: float
    i1: float


def derive_weights(params: CircuitParams) -> CnnWeights:
    """Map circuit constants onto the equivalent cell-network weights."""
    return CnnWeights(
        a1=params.b - params.a,
        s11=1.0 - params.b,
        s12=1.0,
        s21=-params.beta,
        s22=1.0 - params.beta * (1.0 + params.nu),
        i1=0.0,
    )
