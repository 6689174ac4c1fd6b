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

from .decode import DEFAULT_SETTINGS, DecodeSettings
from .dynamics import drift_network
from .errors import ConfigError, DivergedError
from .params import CircuitParams, check_count, check_finite, derive_weights
from .signals import bit_starts, grid_steps

DEFAULT_X0 = (0.1, 0.1, 0.0)

# Batch divergence checks run at this step interval. Growth rates of
# the unstable directions are slow enough that a trial cannot reach
# overflow from the bound within one interval.
_CHECK_INTERVAL = 200
# Most normals a noisy batch holds at once: one buffer column per trial.
_NOISE_VALUES = 1 << 20


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size and safety settings.

    Noise is on exactly when the circuit's noise_d > 0.
    """

    dt: float = 0.01
    divergence_bound: float = 1e3
    stride: int = 1

    def __post_init__(self):
        check_finite("dt", self.dt)
        check_finite("divergence_bound", self.divergence_bound)
        if self.dt <= 0:
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        if self.divergence_bound <= 0:
            raise ConfigError("divergence_bound must be > 0")
        check_count("stride", self.stride)


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


def _rk4_stepper(params: CircuitParams, z0: float, h: float, bias, famp):
    """Return step(x1, x2, i, level) -> (x1, x2): one RK4 step from
    step index i with the logic input held at level.

    Works alike on floats (one trial) and on arrays of trials that
    share the drive phase z0 + omega*t; bias and famp, the drive
    amplitude, are floats or per-trial columns. The circuit constants
    come from params.
    """
    w = derive_weights(params)
    omega = params.omega

    def step(x1, x2, i, level):
        z = z0 + omega * (i * h)
        base = bias + level
        f1 = base + famp * math.sin(z)
        f2 = base + famp * math.sin(z + 0.5 * omega * h)
        f4 = base + famp * math.sin(z + omega * h)
        k1a, k1b = drift_network(x1, x2, f1, w)
        k2a, k2b = drift_network(x1 + 0.5 * h * k1a, x2 + 0.5 * h * k1b, f2, w)
        k3a, k3b = drift_network(x1 + 0.5 * h * k2a, x2 + 0.5 * h * k2b, f2, w)
        k4a, k4b = drift_network(x1 + h * k3a, x2 + h * k3b, f4, w)
        return (
            x1 + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a),
            x2 + (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b),
        )

    return step


def _segments(zero, levels, starts: list, end: int) -> list:
    """(level, lo, hi) runs of steps lo .. hi - 1: `zero` through the
    transient, then each bit at its level, the last held up to `end`."""
    bounds = [0] + starts[:-1] + [max(starts[-1], end)]
    return list(zip([zero, *levels], bounds, bounds[1:]))


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
    rng       noise generator, required when params.noise_d > 0

    Samples are taken every `config.stride` steps, always including
    the initial and final states. Raises DivergedError when the state
    leaves the divergence bound.
    """
    config = config if config is not None else IntegratorConfig()
    x1, x2, z0 = (float(v) for v in initial)
    h = config.dt
    n_steps = grid_steps(t_end, h, "t_end", minimum=1)
    segments = [(0.0, 0, n_steps)]
    if program is not None:
        starts = bit_starts(
            program.transient, program.bit_duration, h, program.n_bits
        )
        segments = _segments(0.0, program.levels().tolist(), starts, n_steps)
    step = _rk4_stepper(params, z0, h, params.bias, params.f)
    noisy = params.noise_d > 0
    if noisy and rng is None:
        raise ConfigError("noisy run needs an rng")
    bound = config.divergence_bound
    noise_scale = math.sqrt(params.noise_d * h)

    # samples at steps 0, stride, 2*stride, ... and n_steps
    out_t = np.arange(0, n_steps + config.stride, config.stride, dtype=float)
    out_t[-1] = n_steps
    out_x1 = np.empty_like(out_t)
    out_x2 = np.empty_like(out_t)
    out_x1[0] = x1
    out_x2[0] = x2
    idx = 1
    for level, lo, hi in segments:
        for i in range(lo, min(hi, n_steps)):
            x1, x2 = step(x1, x2, i, level)
            if noisy:
                x2 = x2 + noise_scale * rng.standard_normal()
            j = i + 1
            if not (abs(x1) <= bound and abs(x2) <= bound):
                raise DivergedError(j * h, float(x1), float(x2), bound)
            if j % config.stride == 0 or j == n_steps:
                out_x1[idx] = x1
                out_x2[idx] = x2
                idx += 1

    # each sample shows the input of the step that starts there
    cuts = np.searchsorted(out_t, [lo for _, lo, _ in segments]).tolist()
    out_t *= h
    out_f = np.multiply(out_t, params.omega)
    out_f += z0
    np.sin(out_f, out=out_f)
    out_f *= params.f
    out_i = np.empty_like(out_t)
    for (level, _, _), a, b in zip(segments, cuts, cuts[1:] + [len(out_t)]):
        out_i[a:b] = level
        out_f[a:b] += params.bias + level
    return Trajectory(
        t=out_t,
        x1=out_x1,
        x2=out_x2,
        i_level=out_i,
        f_det=out_f,
        dt=h,
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


def _trial_columns(params, n_tr: int):
    """The CircuitParams whose circuit constants every trial shares,
    and per-trial bias, f and noise_d columns, from one CircuitParams
    or a sequence with one per trial."""
    if isinstance(params, CircuitParams):
        shared, params = params, [params] * n_tr
    else:
        params = list(params)
        if len(params) != n_tr or not params:
            raise ConfigError(f"{len(params)} params for {n_tr} trials")
        shared = params[0]
    if len({(p.a, p.b, p.nu, p.beta, p.omega, p.delta) for p in params}) > 1:
        raise ConfigError("batch trials may differ only in bias, f, noise_d")
    return shared, *(
        np.array([getattr(p, name) for p in params])
        for name in ("bias", "f", "noise_d")
    )


def batch_bit_residences(
    params,
    levels: np.ndarray,
    *,
    bit_duration: float,
    transient: float,
    config: IntegratorConfig,
    indicators,
    settings: DecodeSettings = DEFAULT_SETTINGS,
    noise_seeds=None,
    x0=DEFAULT_X0,
) -> BatchResult:
    """Run many independent trials side by side and score residences.

    params        one CircuitParams for every trial, or a sequence with
                  one per trial row
    levels        (n_trials, n_bits) combined drive levels per bit
    indicators    callables (x1, x2) -> bool array, scored per sample
    settings      decode settings, whose settle cut trims each bit window
    noise_seeds   per-trial seeds, consumed only by trials with
                  noise_d > 0

    All trials share the step grid, the drive phase and the circuit
    constants; they differ only in their logic levels, bias, drive
    amplitude f and noise. A trial with noise_d = 0 draws nothing.
    Residences count samples from the settle point of each bit window
    to its end.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 2 or levels.shape[1] < 1:
        raise ConfigError("levels must be 2-d (trials x bits), with a bit")
    n_tr, n_bits = levels.shape
    shared, bias, famp, noise_d = _trial_columns(params, n_tr)

    h = config.dt
    starts = bit_starts(transient, bit_duration, h, n_bits)
    spb = starts[1] - starts[0]
    settle_steps = settings.settle_cut(spb)
    kept = spb - settle_steps
    n_steps = starts[-1]

    step = _rk4_stepper(shared, float(x0[2]), h, bias, famp)
    bound = config.divergence_bound

    x1 = np.full(n_tr, float(x0[0]))
    x2 = np.full(n_tr, float(x0[1]))
    res = [np.zeros((n_tr, n_bits)) for _ in indicators]
    alive = np.ones(n_tr, dtype=bool)
    noisy = np.flatnonzero(noise_d > 0).tolist()
    if noisy:
        if noise_seeds is None or len(noise_seeds) != n_tr:
            raise ConfigError("noisy batch needs one seed per trial")
        noise_scale = np.sqrt(noise_d * h)
        rngs = [(t, np.random.default_rng(noise_seeds[t])) for t in noisy]
        rows = min(n_steps, max(1, _NOISE_VALUES // n_tr))
        # columns of trials without noise stay 0.0
        noise = np.zeros((rows, n_tr))
        noise_pos = rows
    segments = _segments(np.zeros(n_tr), levels.T, starts, n_steps)

    with np.errstate(over="ignore", invalid="ignore"):
        # segment -1 is the transient, which is never counted
        for k, (lev, lo, hi) in enumerate(segments, -1):
            count_from = lo + settle_steps if k >= 0 else hi
            for i in range(lo, hi):
                x1, x2 = step(x1, x2, i, lev)
                if noisy:
                    if noise_pos == rows:
                        m = min(rows, n_steps - i)
                        for t, r in rngs:
                            noise[:m, t] = r.standard_normal(m)
                        noise_pos = 0
                    x2 = x2 + noise_scale * noise[noise_pos]
                    noise_pos += 1
                j = i + 1
                if j % _CHECK_INTERVAL == 0 or j == n_steps:
                    # NaN and inf fail the comparison too
                    bad = ~((np.abs(x1) <= bound) & (np.abs(x2) <= bound))
                    if bad.any():
                        alive &= ~bad
                        x1 = np.where(bad, 0.0, x1)
                        x2 = np.where(bad, 0.0, x2)
                if i >= count_from:
                    for q, indicator in enumerate(indicators):
                        res[q][:, k] += indicator(x1, x2)

    return BatchResult(
        residences=[r / kept for r in res],
        diverged=~alive,
        x1=x1,
        x2=x2,
    )
