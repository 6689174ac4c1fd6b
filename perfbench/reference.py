"""Independent reference for the benchmark's output checks.

Nothing here calls into `mlclogic`. The integrator is a plain-float RK4
of the circuit form

    dx1 = x2 - h(x1)
    dx2 = -beta*(1+nu)*x2 - beta*x1 + F,   F = bias + I + f*sin(t)

with the noise convention of the package README: after each RK4 step,
x2 gains sqrt(D*dt)*g, one standard normal g per step from a per-trial
numpy Generator. The bit-window cut, truth tables, set-reset hold chain
and seed derivation are written out again here from their documented
definitions, so a check that passes means two separate writings agree.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# Canonical circuit constants (inner/outer conductance slopes, loss,
# time-scale ratio, drive frequency), the step and the start state.
A, B, NU, BETA, OMEGA = -1.02, -0.55, 0.015, 1.0, 1.0
DT = 0.01
X0 = (0.1, 0.1, 0.0)
SETTLE_FRACTION = 0.5
THRESHOLD = 0.9

TRUTH = {
    "OR": lambda b: b[0] | b[1],
    "NOR": lambda b: 1 - (b[0] | b[1]),
    "AND": lambda b: b[0] & b[1],
    "NAND": lambda b: 1 - (b[0] & b[1]),
    "XOR": lambda b: b[0] ^ b[1],
    "XNOR": lambda b: 1 - (b[0] ^ b[1]),
    "OR3": lambda b: b[0] | b[1] | b[2],
    "AND3": lambda b: b[0] & b[1] & b[2],
}


def derive_seed(base: int, *tags) -> int:
    """sha256 of "mlclogic:<base>:<tag>...", first 8 bytes big-endian."""
    text = "mlclogic:" + str(int(base)) + "".join(":" + str(t) for t in tags)
    return int.from_bytes(hashlib.sha256(text.encode("ascii")).digest()[:8], "big")


def program_bits(seed: int, n_bits: int, arity: int, latch: bool = False):
    """Bit tuples of a uniform random program: one `integers(0, 2, arity)`
    draw per bit from default_rng(seed), redrawn on (1,1) for the latch."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_bits):
        bits = tuple(int(v) for v in rng.integers(0, 2, size=arity))
        while latch and bits == (1, 1):
            bits = tuple(int(v) for v in rng.integers(0, 2, size=arity))
        out.append(bits)
    return out


def level(bits, delta: float, difference: bool = False) -> float:
    """Drive level of one bit tuple: +delta per 1, -delta per 0, summed
    (gates) or set minus reset (latch)."""
    lv = [delta if b else -delta for b in bits]
    return lv[0] - lv[1] if difference else sum(lv)


def sr_chain(bit_tuples, first_decoded):
    """Expected latched output Q per bit: set -> 1, reset -> 0, hold keeps
    Q. A leading hold is anchored at the first decoded output."""
    q = None
    out = []
    for idx, (s, r) in enumerate(bit_tuples):
        if s:
            q = 1
        elif r:
            q = 0
        elif q is None:
            q = first_decoded if idx == 0 else None
        out.append(q)
    return out


def steps(duration: float) -> int:
    return round(duration / DT)


def windows(ts: int, spb: int, n_bits: int):
    """Inclusive state-index ranges scored in each bit window: the state
    after step j belongs to bit (j - ts - 1) // spb, and the first
    round(spb * settle) states of each window are discarded."""
    settle = round(spb * SETTLE_FRACTION)
    return [(ts + k * spb + 1 + settle, ts + (k + 1) * spb) for k in range(n_bits)]


def trajectory(levels, bias, f, ts, spb, noise_d=0.0, noise_seed=None):
    """All states x1[0..n], x2[0..n] of one trial, n = ts + bits * spb.

    The logic level is held through each step from its start index;
    the transient runs at level 0.
    """
    a, b, damp, beta = A, B, BETA * (1.0 + NU), BETA
    kink = b - a
    h = DT
    half = 0.5 * h
    sixth = h / 6.0
    n = ts + len(levels) * spb
    draws = None
    if noise_d > 0:
        draws = np.random.default_rng(noise_seed).standard_normal(n).tolist()
    scale = math.sqrt(noise_d * h)
    sin = math.sin

    def hx(x):
        if x < -1.0:
            return b * x + kink
        if x > 1.0:
            return b * x - kink
        return a * x

    x1, x2, z0 = X0
    xs1 = [x1]
    xs2 = [x2]
    for i in range(n):
        lev = 0.0 if i < ts else levels[(i - ts) // spb]
        z = z0 + OMEGA * (i * h)
        base = bias + lev
        f1 = base + f * sin(z)
        f2 = base + f * sin(z + 0.5 * OMEGA * h)
        f4 = base + f * sin(z + OMEGA * h)
        k1a = x2 - hx(x1)
        k1b = -damp * x2 - beta * x1 + f1
        y1, y2 = x1 + half * k1a, x2 + half * k1b
        k2a = y2 - hx(y1)
        k2b = -damp * y2 - beta * y1 + f2
        y1, y2 = x1 + half * k2a, x2 + half * k2b
        k3a = y2 - hx(y1)
        k3b = -damp * y2 - beta * y1 + f2
        y1, y2 = x1 + h * k3a, x2 + h * k3b
        k4a = y2 - hx(y1)
        k4b = -damp * y2 - beta * y1 + f4
        x1 = x1 + sixth * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        x2 = x2 + sixth * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        if draws is not None:
            x2 = x2 + scale * draws[i]
        xs1.append(x1)
        xs2.append(x2)
    return xs1, xs2


def residences(values, ts, spb, n_bits, pred):
    """Per-bit share of scored states where pred holds."""
    out = []
    for lo, hi in windows(ts, spb, n_bits):
        seg = values[lo : hi + 1]
        out.append(sum(1 for v in seg if pred(v)) / len(seg))
    return out


def decide(res: float):
    """1, 0, or None (indeterminate) at the agreement threshold."""
    if res >= THRESHOLD:
        return 1
    if 1.0 - res >= THRESHOLD:
        return 0
    return None


def wilson(successes: int, trials: int, z: float = 1.96):
    """Wilson score interval, for the interval-contains-p check."""
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return center - half, center + half
