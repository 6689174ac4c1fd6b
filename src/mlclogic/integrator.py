"""Fixed-step integration of the driven circuit.

Deterministic dynamics use classical fourth-order Runge-Kutta. Noise,
when enabled, enters as an Euler-Maruyama increment sqrt(D*dt)*g on x2
after the deterministic stage update, with g a standard normal draw.
Draws are consumed only when noise_d > 0, so deterministic runs do not
advance the generator.

The logic input I is held constant across the four stages of a step
(zero-order hold at the step start). The drive phase and time are
computed from the step index rather than accumulated, so a million
steps carry one rounding each instead of a growing sum error; this
keeps the global error of the scheme cleanly fourth order in dt.

One step function drives both the scalar path and the batched
many-trial path, so a width-1 batch reproduces a scalar run bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import drift_network
from .errors import ConfigError, DivergedError
from .params import CircuitParams, check_finite, derive_weights
from .signals import bit_grid, grid_steps

DEFAULT_X0 = (0.1, 0.1, 0.0)

# Batch divergence checks run at this step interval. Growth rates of
# the unstable directions are slow enough that a trial cannot reach
# overflow from the bound within one interval.
_CHECK_INTERVAL = 200
_NOISE_CHUNK = 8192


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size and safety settings.

    Noise is on exactly when the circuit's noise_d > 0; seed seeds the
    noise generator of integrate() when none is passed.
    """

    dt: float = 0.01
    divergence_bound: float = 1e3
    seed: int = 0
    stride: int = 1

    def __post_init__(self):
        check_finite("dt", self.dt)
        check_finite("divergence_bound", self.divergence_bound)
        if self.dt <= 0:
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        if self.divergence_bound <= 0:
            raise ConfigError("divergence_bound must be > 0")
        if not isinstance(self.stride, int) or self.stride < 1:
            raise ConfigError("stride must be an integer >= 1")


@dataclass
class Trajectory:
    """Sampled states of one run.

    i_level holds the logic drive I active at each sample time and
    f_det the full deterministic forcing bias + I + f*sin(z) there.
    """

    t: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    i_level: np.ndarray
    f_det: np.ndarray
    dt: float
    stride: int

    def __len__(self) -> int:
        return len(self.t)

    def write_csv(self, path) -> None:
        """Write samples as t,x1,x2,I,F_det with 17 significant digits."""
        with open(path, "w", newline="") as fh:
            fh.write("t,x1,x2,I,F_det\n")
            for k in range(len(self.t)):
                fh.write(
                    "%.17g,%.17g,%.17g,%.17g,%.17g\n"
                    % (
                        self.t[k],
                        self.x1[k],
                        self.x2[k],
                        self.i_level[k],
                        self.f_det[k],
                    )
                )


def _rk4_stepper(params: CircuitParams, z0: float, h: float):
    """Return step(x1, x2, i, level) -> (x1, x2): one RK4 step from
    step index i with the logic input held at level.

    Works alike on floats (one trial) and on arrays of trials that
    share the drive phase z0 + omega*t.
    """
    w = derive_weights(params)
    omega = params.omega
    bias = params.bias
    famp = params.f

    def step(x1, x2, i, level):
        z = z0 + omega * (i * h)
        base = bias + level
        f1 = base + famp * np.sin(z)
        f2 = base + famp * np.sin(z + 0.5 * omega * h)
        f4 = base + famp * np.sin(z + omega * h)
        k1a, k1b = drift_network(x1, x2, f1, w)
        k2a, k2b = drift_network(x1 + 0.5 * h * k1a, x2 + 0.5 * h * k1b, f2, w)
        k3a, k3b = drift_network(x1 + 0.5 * h * k2a, x2 + 0.5 * h * k2b, f2, w)
        k4a, k4b = drift_network(x1 + h * k3a, x2 + h * k3b, f4, w)
        return (
            x1 + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a),
            x2 + (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b),
        )

    return step


def _step_levels(program, dt: float):
    """Return a callable i -> logic input for step indices 0..n_steps:
    zero through the transient, then the active bit's level, holding
    the last bit's level past the end of the program."""
    if program is None:
        return lambda i: 0.0
    ts, spb = bit_grid(program.transient, program.bit_duration, dt)
    levels = [float(v) for v in program.levels()]
    last = len(levels) - 1

    def lookup(i: int) -> float:
        if i < ts:
            return 0.0
        k = (i - ts) // spb
        return levels[k if k < last else last]

    return lookup


def integrate(
    initial,
    params: CircuitParams,
    program,
    t_end: float,
    config: IntegratorConfig | None = None,
    rng: np.random.Generator | None = None,
) -> Trajectory:
    """Integrate from t=0 to t_end and return sampled states.

    initial   (x1, x2, z) start state, z the initial drive phase
    program   LogicProgram, or None for I = 0
    rng       noise generator; defaults to one seeded from config.seed

    Samples are taken every `config.stride` steps, always including
    the initial and final states. Raises DivergedError when the state
    leaves the divergence bound.
    """
    config = config if config is not None else IntegratorConfig()
    x1, x2, z0 = (float(v) for v in initial)
    h = config.dt
    level_of = _step_levels(program, h)
    n_steps = grid_steps(t_end, h, "t_end", minimum=1)
    step = _rk4_stepper(params, z0, h)
    noisy = params.noise_d > 0
    if noisy and rng is None:
        rng = np.random.default_rng(config.seed)

    omega = params.omega
    bias = params.bias
    famp = params.f
    bound = config.divergence_bound
    noise_scale = math.sqrt(params.noise_d * h)

    n_samples = n_steps // config.stride + 1
    extra = 1 if n_steps % config.stride else 0
    out_t = np.empty(n_samples + extra)
    out_x1 = np.empty(n_samples + extra)
    out_x2 = np.empty(n_samples + extra)
    out_i = np.empty(n_samples + extra)
    out_f = np.empty(n_samples + extra)

    def record(idx: int, i_step: int, x1v, x2v) -> None:
        t_i = i_step * h
        lev = level_of(i_step)
        out_t[idx] = t_i
        out_x1[idx] = x1v
        out_x2[idx] = x2v
        out_i[idx] = lev
        out_f[idx] = bias + lev + famp * np.sin(z0 + omega * t_i)

    record(0, 0, x1, x2)
    idx = 1
    for i in range(n_steps):
        x1, x2 = step(x1, x2, i, level_of(i))
        if noisy:
            x2 = x2 + noise_scale * rng.standard_normal()
        j = i + 1
        if not (abs(x1) <= bound and abs(x2) <= bound):
            raise DivergedError(j * h, float(x1), float(x2), bound)
        if j % config.stride == 0 or j == n_steps:
            record(idx, j, x1, x2)
            idx += 1
    return Trajectory(
        t=out_t[:idx],
        x1=out_x1[:idx],
        x2=out_x2[:idx],
        i_level=out_i[:idx],
        f_det=out_f[:idx],
        dt=config.dt,
        stride=config.stride,
    )


@dataclass
class BatchResult:
    """Per-trial, per-bit residence fractions for each indicator, and
    each trial's final state.

    residences[q][trial, bit] is the fraction of kept samples of that
    bit window (after settle trimming) where indicator q held. Trials
    flagged in `diverged` left the bound; their residences are not
    meaningful and callers must score them as failures, and their
    final x1, x2 read 0.
    """

    residences: list
    diverged: np.ndarray
    x1: np.ndarray
    x2: np.ndarray


def batch_bit_residences(
    params: CircuitParams,
    levels: np.ndarray,
    *,
    bit_duration: float,
    transient: float,
    config: IntegratorConfig,
    indicators,
    settle_fraction: float = 0.5,
    noise_seeds=None,
    x0=DEFAULT_X0,
) -> BatchResult:
    """Run many independent trials side by side and score residences.

    levels        (n_trials, n_bits) combined drive levels per bit
    indicators    callables (x1, x2) -> bool array, scored per sample
    noise_seeds   per-trial seeds, consumed only when noise_d > 0

    All trials share the step grid and drive phase; they differ only
    in their logic levels and noise streams. Residences count samples
    from the settle point of each bit window to its end.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 2:
        raise ConfigError("levels must be 2-d (trials x bits)")
    n_tr, n_bits = levels.shape
    noisy = params.noise_d > 0
    if noisy:
        if noise_seeds is None or len(noise_seeds) != n_tr:
            raise ConfigError("noisy batch needs one seed per trial")
        rngs = [np.random.default_rng(s) for s in noise_seeds]
    if not 0 <= settle_fraction < 1:
        raise ConfigError("settle_fraction must be in [0, 1)")

    h = config.dt
    ts, spb = bit_grid(transient, bit_duration, h)
    settle_steps = round(spb * settle_fraction)
    kept = spb - settle_steps
    if kept < 1:
        raise ConfigError("settle_fraction leaves no samples per bit")
    n_steps = ts + n_bits * spb

    step = _rk4_stepper(params, float(x0[2]), h)
    bound = config.divergence_bound
    noise_scale = math.sqrt(params.noise_d * h)

    x1 = np.full(n_tr, float(x0[0]))
    x2 = np.full(n_tr, float(x0[1]))
    res = [np.zeros((n_tr, n_bits)) for _ in indicators]
    alive = np.ones(n_tr, dtype=bool)
    zero_i = np.zeros(n_tr)
    noise_buf = None
    noise_pos = 0

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            lev = zero_i if i < ts else levels[:, (i - ts) // spb]
            x1, x2 = step(x1, x2, i, lev)
            if noisy:
                if noise_buf is None or noise_pos == len(noise_buf):
                    m = min(_NOISE_CHUNK, n_steps - i)
                    noise_buf = np.column_stack(
                        [r.standard_normal(m) for r in rngs]
                    )
                    noise_pos = 0
                x2 = x2 + noise_scale * noise_buf[noise_pos]
                noise_pos += 1
            j = i + 1
            if j % _CHECK_INTERVAL == 0 or j == n_steps:
                bad = ~(
                    (np.abs(x1) <= bound)
                    & (np.abs(x2) <= bound)
                    & np.isfinite(x1)
                    & np.isfinite(x2)
                )
                if bad.any():
                    alive &= ~bad
                    x1 = np.where(bad, 0.0, x1)
                    x2 = np.where(bad, 0.0, x2)
            if j > ts:
                pos = (j - ts - 1) % spb
                if pos >= settle_steps:
                    k = (j - ts - 1) // spb
                    for q, indicator in enumerate(indicators):
                        res[q][:, k] += indicator(x1, x2)

    return BatchResult(
        residences=[r / kept for r in res],
        diverged=~alive,
        x1=x1,
        x2=x2,
    )
