"""Drift functions for both algebraic forms of the circuit model.

Two equivalent writings of the same vector field:

  circuit form    dx1 = x2 - h(x1)
                  dx2 = -beta*(1+nu)*x2 - beta*x1 + F

  network form    dx1 = -x1 + a1*sat(x1) + s11*x1 + s12*x2 + i1
                  dx2 = -x2 + s21*x1 + s22*x2 + F

with h the three-segment piecewise-linear conductance and sat the
unit saturation. F is the full external drive (bias + logic input +
sinusoid + noise). Both functions accept scalars or numpy arrays.
"""

from __future__ import annotations

import numpy as np

from .params import CircuitParams, CnnWeights


def saturation(x):
    """Unit saturation: linear on [-1, 1], clipped to +/-1 outside.

    The builtin abs keeps a float a float, so a scalar run stays in
    plain Python arithmetic.
    """
    return 0.5 * (abs(x + 1.0) - abs(x - 1.0))


def h_piecewise(x, a: float, b: float):
    """Three-segment conductance: slope a on [-1, 1], slope b outside.

    h(x) = b*x + (b - a) for x <= -1
           a*x           for |x| <= 1
           b*x - (b - a) for x >= 1
    """
    x = np.asarray(x)
    return np.where(
        x < -1.0,
        b * x + (b - a),
        np.where(x > 1.0, b * x - (b - a), a * x),
    )


def drift_circuit(x1, x2, force, params: CircuitParams):
    """Right-hand side in the circuit form. Returns (dx1, dx2)."""
    dx1 = x2 - h_piecewise(x1, params.a, params.b)
    dx2 = -params.beta * (1.0 + params.nu) * x2 - params.beta * x1 + force
    return dx1, dx2


def drift_network(x1, x2, force, w: CnnWeights):
    """Right-hand side in the cell-network form. Returns (dx1, dx2)."""
    dx1 = -x1 + w.a1 * saturation(x1) + w.s11 * x1 + w.s12 * x2 + w.i1
    dx2 = -x2 + w.s21 * x1 + w.s22 * x2 + force
    return dx1, dx2
