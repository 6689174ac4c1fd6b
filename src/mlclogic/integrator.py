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

Both stepping loops run in a small C kernel, `_kernel.c`, compiled on
first use into the package's `__pycache__` and called through ctypes.
It repeats `_rk4_stepper` operation by operation, so it returns what
the numpy loops return, bit for bit. Those loops stay as the oracle
and as the fallback: they run when the kernel cannot be built or
loaded, and for batch indicators that are not `Indicator` values.
`backend()` says which loops run, and why.

A noisy batch row draws its normals from `default_rng(seed)`. The
kernel draws them itself, one per step: it carries each noisy row's
PCG64 state, read from `PCG64(seed)`, and repeats numpy's ziggurat
`standard_normal` with numpy's own tables, so the values are numpy's.
The 128-bit state needs the compiler's `unsigned __int128`; without it
the kernel does not compile and the numpy loops run. NEP 19 lets numpy
change its stream, so before the kernel's first noisy batch 2**17 of
its draws must equal numpy's bit for bit, or the numpy loops run from
then on. Only those loops draw through a buffer. A noisy `integrate`
draws through numpy on either backend.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shutil
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .decode import DEFAULT_SETTINGS, RULE_KINDS, DecodeSettings, Indicator
from .dynamics import drift_network
from .errors import ConfigError, DivergedError
from .params import CircuitParams, check_count, check_finite, derive_weights
from .signals import bit_starts, grid_steps

DEFAULT_X0 = (0.1, 0.1, 0.0)

# Batch divergence checks run at this step interval. Growth rates of
# the unstable directions are slow enough that a trial cannot reach
# overflow from the bound within one interval.
_CHECK_INTERVAL = 200
# Most normals the numpy batch loop holds at once; its buffer is sized
# as if every trial drew, and holds a row for each trial that does.
# The kernel draws each normal when it adds it, and holds none.
_NOISE_VALUES = 1 << 17
# Most steps of a scalar run's noise drawn at once.
_SCALAR_CHUNK = 1 << 16

_SOURCE = Path(__file__).with_name("_kernel.c")
_CACHE = Path(__file__).with_name("__pycache__")
_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
# the kernel as "lib", or None with the "reason", once loaded, and
# "checked" once its normals are
_loaded = {}
# The normals check's draws: from this seed, 2**17 normals take the
# ziggurat's wedge path about 1,900 times and its tail path 42 times.
_CHECK_SEED = 0
_CHECK_DRAWS = 1 << 17
_CHECK_BLOCK = 1 << 12
_WORD = (1 << 64) - 1


def _pcg_words(bit_generator) -> list:
    """A PCG64's 128-bit state and increment as the kernel holds them:
    the state's high and low 64-bit word, then the increment's."""
    s = bit_generator.state["state"]
    return [
        s["state"] >> 64, s["state"] & _WORD, s["inc"] >> 64, s["inc"] & _WORD
    ]


def _check_normals(lib):
    """None when the kernel's normals from PCG64(seed) equal numpy's
    default_rng(seed).standard_normal, values and final state bit for
    bit; else the reason."""
    g = np.array(_pcg_words(np.random.PCG64(_CHECK_SEED)), dtype=np.uint64)
    rng = np.random.default_rng(_CHECK_SEED)
    # in blocks; drawn whole, the check raised peak memory by 4 MB
    got, want = np.empty(_CHECK_BLOCK), np.empty(_CHECK_BLOCK)
    same = True
    for _ in range(_CHECK_DRAWS // _CHECK_BLOCK):
        lib.normals(g.ctypes, _CHECK_BLOCK, got.ctypes)
        rng.standard_normal(out=want)
        same &= np.array_equal(got.view(np.uint64), want.view(np.uint64))
    if not same or g.tolist() != _pcg_words(rng.bit_generator):
        return f"the kernel's normals differ from numpy {np.__version__}'s"
    return None


def _build_kernel(cache: Path):
    """Load the kernel from `cache`, compiling it there first if needed.

    The library is named by the sha256 of the source and the flags. The
    compiler writes a temporary file that is then renamed into place,
    so processes that build at once do not clash. Returns (library,
    None), or (None, reason) when it cannot be built or loaded.
    """
    import subprocess
    import tempfile

    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        return None, f"no kernel source: {exc}"
    key = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()
    path = cache / f"_kernel-{key[:16]}.so"
    if not path.exists():
        cc = shutil.which("cc")
        if cc is None:
            return None, "no C compiler: cc is not on PATH"
        try:
            cache.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(".so", ".kernel-", cache)
            os.close(fd)
        except OSError as exc:
            return None, f"cannot write the kernel cache: {exc}"
        try:
            cmd = [cc, *_CFLAGS, "-o", tmp, str(_SOURCE), "-lm"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                lines = proc.stderr.strip().splitlines() or [""]
                err = next((x for x in lines if "error" in x), lines[-1])
                return None, f"cc exited {proc.returncode}: {err}"
            os.replace(tmp, path)
        except OSError as exc:
            return None, f"cannot run cc: {exc}"
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        return None, f"cannot load the kernel: {exc}"
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.seg.argtypes = (
        [i64] * 5 + [f64] * 3 + [ptr] * 7 + [f64] + [ptr] * 3 + [i64] * 3
        + [ptr] * 5 + [i64] * 2
    )
    lib.seg.restype = None
    lib.scal.argtypes = (
        [i64] * 5 + [f64] * 3 + [ptr] + [f64] * 2 + [ptr] * 2 + [f64] * 2
        + [ptr] * 2
    )
    lib.scal.restype = i64
    lib.isa.argtypes = ()
    lib.isa.restype = ctypes.c_char_p
    lib.normals.argtypes = (ptr, i64, ptr)
    lib.normals.restype = None
    return lib, None


def _kernel():
    """The compiled kernel, built on the first call, or None when the
    numpy loops run instead."""
    if not _loaded:
        _loaded["lib"], _loaded["reason"] = _build_kernel(_CACHE)
    return _loaded["lib"]


def _noise_kernel():
    """_kernel(), once its normals have passed `_check_normals`.

    The check runs on the first call, not when the kernel loads: it
    imports numpy.random, about 2 MB of peak memory that a
    deterministic run never needs. When it fails, the numpy loops run
    from then on.
    """
    lib = _kernel()
    if lib is not None and "checked" not in _loaded:
        _loaded["checked"] = True
        reason = _check_normals(lib)
        if reason:
            lib = _loaded["lib"] = None
            _loaded["reason"] = reason
    return lib


def backend() -> str:
    """Which stepping loops run: "C kernel (<isa>)", with the instruction
    set the batch step runs on, or "numpy: <reason>". It runs the
    kernel's normals check if no noisy batch has yet."""
    lib = _noise_kernel()
    if lib is not None:
        return f"C kernel ({lib.isa().decode()})"
    return f"numpy: {_loaded['reason']}"


def _weights(params: CircuitParams) -> np.ndarray:
    """The cell-network weights in the kernel's order, CnnWeights'."""
    return np.array(astuple(derive_weights(params)))


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


def _scalar_steps(
    step, x, lo, hi, level, noise, n_steps, stride, last, scale, bound, o1, o2
):
    """Steps lo .. hi-1 of one run from state x: the loop that `scal` in
    _kernel.c compiles, with the same arguments and result."""
    x1, x2 = float(x[0]), float(x[1])
    g = None if noise is None else noise.tolist()
    j = -1
    for i in range(lo, hi):
        x1, x2 = step(x1, x2, i, level)
        if g is not None:
            x2 = x2 + scale * g[i - lo]
        j = i + 1
        if not (abs(x1) <= bound and abs(x2) <= bound):
            break
        if j == n_steps:
            o1[last], o2[last] = x1, x2
        elif j % stride == 0:
            o1[j // stride], o2[j // stride] = x1, x2
        j = -1
    x[:] = x1, x2
    return j


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
    x = np.array([x1, x2])
    stride, last = config.stride, len(out_t) - 1
    lib = _kernel()
    if lib is None:
        step = _rk4_stepper(params, z0, h, params.bias, params.f)
    else:
        w = _weights(params)
    for level, lo, hi in segments:
        for a in range(lo, min(hi, n_steps), _SCALAR_CHUNK):
            b = min(a + _SCALAR_CHUNK, hi, n_steps)
            noise = rng.standard_normal(b - a) if noisy else None
            if lib is None:
                j = _scalar_steps(
                    step, x, a, b, level, noise, n_steps, stride, last,
                    noise_scale, bound, out_x1, out_x2,
                )
            else:
                j = lib.scal(
                    a, b, n_steps, stride, last, z0, params.omega, h,
                    w.ctypes, params.bias + level, params.f, x.ctypes,
                    None if noise is None else noise.ctypes,
                    noise_scale, bound, out_x1.ctypes, out_x2.ctypes,
                )
            if j >= 0:
                raise DivergedError(j * h, float(x[0]), float(x[1]), bound)

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


def _rule_columns(indicators):
    """Each indicator's variable (0 for x1, 1 for x2), rule kind as its
    index in RULE_KINDS, and band lo and hi, as the kernel reads them."""
    rules = [q.rule for q in indicators]
    return (
        np.array([q.var == "x2" for q in indicators], dtype=np.int64),
        np.array([RULE_KINDS.index(r.kind) for r in rules], dtype=np.int64),
        np.array([r.lo or 0.0 for r in rules], dtype=float),
        np.array([r.hi or 0.0 for r in rules], dtype=float),
    )


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
        np.array([getattr(p, name) for p in params], dtype=float)
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
    indicators    callables (x1, x2) -> bool array, scored per sample;
                  when all are Indicator values the compiled kernel
                  runs the batch, else the numpy loop does
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

    z0 = float(x0[2])
    bound = config.divergence_bound
    x1 = np.full(n_tr, float(x0[0]))
    x2 = np.full(n_tr, float(x0[1]))
    alive = np.ones(n_tr, dtype=bool)
    indicators = list(indicators)
    res = np.zeros((len(indicators), n_tr, n_bits))
    noisy = np.flatnonzero(noise_d > 0)
    scale = np.sqrt(noise_d * h)
    if len(noisy) and (noise_seeds is None or len(noise_seeds) != n_tr):
        raise ConfigError("noisy batch needs one seed per trial")
    seeds = [noise_seeds[t] for t in noisy]

    def numpy_steps(lev, a, b, count_from, count_to, k):
        """Steps a .. b-1 of bit k: the loop that `seg` in _kernel.c
        compiles."""
        u1, u2 = x1, x2
        for i in range(a, b):
            u1, u2 = step(u1, u2, i, lev)
            if buf is not None:
                if i % rows == 0:
                    m = min(rows, n_steps - i)
                    for c, r in enumerate(rngs):
                        r.standard_normal(out=buf[c, :m])
                # trials without noise add 0.0
                g = np.zeros(n_tr)
                g[noisy] = buf[:, i % rows]
                u2 = u2 + scale * g
            j = i + 1
            if j % _CHECK_INTERVAL == 0 or j == n_steps:
                # NaN and inf fail the comparison too
                bad = ~((np.abs(u1) <= bound) & (np.abs(u2) <= bound))
                if bad.any():
                    alive[bad] = False
                    u1 = np.where(bad, 0.0, u1)
                    u2 = np.where(bad, 0.0, u2)
            if count_from <= i < count_to:
                for q, indicator in enumerate(indicators):
                    res[q, :, k] += indicator(u1, u2)
        x1[:] = u1
        x2[:] = u2

    def kernel_steps(lev, a, b, count_from, count_to, k):
        lib.seg(
            n_tr, a, b, n_steps, _CHECK_INTERVAL, z0, shared.omega, h,
            w.ctypes, bias.ctypes, famp.ctypes, lev.ctypes, x1.ctypes,
            x2.ctypes, alive.ctypes, bound, pcg.ctypes if seeds else None,
            stream.ctypes, scale.ctypes, count_from, count_to, len(indicators),
            *(c.ctypes for c in rules), res.ctypes, n_bits, max(k, 0),
        )

    lib = None
    if all(type(q) is Indicator for q in indicators):
        lib = _noise_kernel() if seeds else _kernel()
    if lib is None:
        steps = numpy_steps
        step = _rk4_stepper(shared, z0, h, bias, famp)
        # one buffer row per noisy trial, refilled every `rows` steps
        buf, rows = None, n_steps
        if seeds:
            rngs = [np.random.default_rng(s) for s in seeds]
            rows = min(n_steps, max(1, _NOISE_VALUES // n_tr))
            buf = np.empty((len(seeds), rows))
    else:
        steps = kernel_steps
        w = _weights(shared)
        # each noisy trial's PCG64 state, carried from step to step
        pcg = np.array(
            [_pcg_words(np.random.PCG64(s)) for s in seeds], dtype=np.uint64
        )
        stream = np.full(n_tr, -1, dtype=np.int64)
        stream[noisy] = np.arange(len(noisy))
        rules = _rule_columns(indicators)

    with np.errstate(over="ignore", invalid="ignore"):
        # segment -1 is the transient, which is never counted
        columns = np.ascontiguousarray(levels.T)
        segments = _segments(np.zeros(n_tr), columns, starts, n_steps)
        for k, (lev, lo, hi) in enumerate(segments, -1):
            count_from = lo + settle_steps if k >= 0 else hi
            steps(lev, lo, hi, count_from, hi - 1, k)
            # both loops leave the window's last sample to this call, so
            # an indicator always sees the window's final state
            if k >= 0:
                for q, indicator in enumerate(indicators):
                    res[q, :, k] += indicator(x1, x2)

    return BatchResult(
        residences=[r / kept for r in res],
        diverged=~alive,
        x1=x1,
        x2=x2,
    )
