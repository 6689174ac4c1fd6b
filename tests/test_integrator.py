"""Integrator mechanics: grids, sampling, divergence, noise, batching."""

import os
import platform

import numpy as np
import pytest

import mlclogic.integrator as integrator
from mlclogic import (
    CircuitParams,
    ConfigError,
    DecodeRule,
    DecodeSettings,
    DivergedError,
    EmptySegmentError,
    Indicator,
    IntegratorConfig,
    LogicProgram,
    batch_bit_residences,
    decode_bit,
    derive_seed,
    drift_circuit,
    gate_params,
    gate_spec,
    integrate,
    random_program,
    score_trial,
)
from mlclogic.experiments import DESK_BITS_PER_RUN

QUIET = CircuitParams(bias=0.0, f=0.0)


def tiny_program(channels=((1, 0), (0, 1)), transient=1.0):
    return LogicProgram(
        channels=channels, bit_duration=2.0, transient=transient
    )


def batch_final(p, n_trials, t_end, noise_seeds=None, x0=(0.1, 0.1, 0.0)):
    """BatchResult of n_trials trials held at I = 0 for t_end."""
    return batch_bit_residences(
        p,
        np.zeros((n_trials, 1)),
        bit_duration=t_end,
        transient=0.0,
        config=IntegratorConfig(),
        indicators=[],
        noise_seeds=noise_seeds,
        x0=x0,
    )


class TestGridAndSampling:
    def test_origin_is_stationary_without_drive(self):
        traj = integrate((0.0, 0.0, 0.0), QUIET, None, 1.0)
        assert traj.x1[-1] == 0.0
        assert traj.x2[-1] == 0.0

    def test_time_is_exact_grid(self):
        traj = integrate((0.1, 0.1, 0.0), QUIET, None, 1.0)
        assert np.array_equal(traj.t, np.arange(101) * 0.01)
        assert traj.t[-1] == 1.0

    def test_stride_includes_first_and_last(self):
        cfg = IntegratorConfig(stride=7)
        traj = integrate((0.1, 0.1, 0.0), QUIET, None, 1.0, cfg)
        # samples at steps 0, 7, ..., 98, plus the final step 100
        assert len(traj) == 16
        assert traj.t[0] == 0.0
        assert traj.t[-1] == 1.0
        assert traj.t[1] == pytest.approx(0.07)

    def test_t_end_off_grid_rejected(self):
        with pytest.raises(ConfigError):
            integrate((0.1, 0.1, 0.0), QUIET, None, 1.005)

    def test_program_off_grid_rejected(self):
        prog = LogicProgram(
            channels=((1,), (0,)), bit_duration=0.015, transient=1.0
        )
        with pytest.raises(ConfigError):
            integrate((0.1, 0.1, 0.0), QUIET, prog, 2.0)

    def test_logic_level_recording(self):
        prog = LogicProgram(
            channels=((1, 0), (1, 1)),
            delta=0.2,
            bit_duration=0.1,
            transient=0.2,
        )
        cfg = IntegratorConfig(dt=0.1)
        traj = integrate((0.1, 0.1, 0.0), QUIET, prog, 0.5, cfg)
        # samples 0,1 transient; 2 bit0 (1,1)->+0.4; 3 bit1 (0,1)->0;
        # 4,5 past the last bit hold its level
        assert traj.i_level == pytest.approx(
            [0.0, 0.0, 0.4, 0.0, 0.0, 0.0]
        )

    def test_forcing_column_matches_definition(self):
        p = CircuitParams(bias=0.3, f=0.5)
        traj = integrate((0.1, 0.1, 0.0), p, None, 2.0)
        expected = 0.3 + 0.5 * np.sin(traj.t)
        assert traj.f_det == pytest.approx(expected, abs=1e-12)


class TestEquilibria:
    def test_converges_to_outer_well(self):
        p = CircuitParams(bias=0.01, f=0.0)
        traj = integrate((0.1, 0.1, 0.0), p, None, 400.0)
        assert traj.x1[-1] == pytest.approx(1.1025467, abs=1e-5)

    def test_center_is_unstable_saddle(self):
        # the inner equilibrium repels: a nudge grows instead of decaying
        p = QUIET
        traj = integrate((0.01, 0.0, 0.0), p, None, 60.0)
        assert abs(traj.x1[-1]) > 1.0

    def test_decay_on_stable_parameters(self):
        # positive inner slope makes the origin attracting
        p = CircuitParams(a=0.5, b=0.5, f=0.0)
        traj = integrate((0.3, 0.2, 0.0), p, None, 60.0)
        assert abs(traj.x1[-1]) < 1e-6
        assert abs(traj.x2[-1]) < 1e-6

    def test_mirror_symmetry_of_wells(self):
        p_pos = CircuitParams(bias=0.01, f=0.0)
        p_neg = CircuitParams(bias=-0.01, f=0.0)
        tp = integrate((0.1, 0.1, 0.0), p_pos, None, 400.0)
        tn = integrate((-0.1, -0.1, 0.0), p_neg, None, 400.0)
        assert tn.x1[-1] == pytest.approx(-tp.x1[-1], abs=1e-12)


class TestDivergence:
    def test_bound_crossing_raises(self):
        cfg = IntegratorConfig(divergence_bound=0.5)
        p = CircuitParams(bias=0.01, f=0.0)
        with pytest.raises(DivergedError) as err:
            integrate((0.1, 0.1, 0.0), p, None, 400.0, cfg)
        assert err.value.t > 0
        assert max(abs(err.value.x1), abs(err.value.x2)) > 0.5

    def test_phase_variable_exempt_from_bound(self):
        # z grows without limit and must not trip the divergence check
        p = CircuitParams(omega=100.0, f=0.1, bias=0.0)
        traj = integrate((0.1, 0.1, 0.0), p, None, 20.0)
        assert 100.0 * traj.t[-1] > 1e3  # phase far beyond the bound
        assert abs(traj.x1[-1]) < 1e3

    def test_batch_flags_diverged_trials(self):
        cfg = IntegratorConfig(divergence_bound=0.5)
        p = CircuitParams(bias=0.01, f=0.0)
        # both trials drift into the well at |x1| > 0.5 and get flagged
        levels = np.array([[0.0], [0.0]])
        result = batch_bit_residences(
            p,
            levels,
            bit_duration=400.0,
            transient=0.0,
            config=cfg,
            indicators=[Indicator("x1", DecodeRule("SIGN_POS"))],
            x0=(0.1, 0.1, 0.0),
        )
        assert result.diverged.all()


class TestStepConsistency:
    def test_single_step_matches_integrate(self):
        # a textbook RK4 step in the circuit form, with the drive taken
        # at the start, midpoint and end of the step
        p = gate_params("OR")
        h = 0.01

        def rhs(x, t):
            force = p.bias + p.f * np.sin(p.omega * t)
            return np.array(drift_circuit(x[0], x[1], force, p), dtype=float)

        x = np.array([0.1, 0.1])
        k1 = rhs(x, 0.0)
        k2 = rhs(x + 0.5 * h * k1, 0.5 * h)
        k3 = rhs(x + 0.5 * h * k2, 0.5 * h)
        k4 = rhs(x + h * k3, h)
        ref = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        traj = integrate((0.1, 0.1, 0.0), p, None, h)
        assert traj.t[-1] == pytest.approx(h)
        assert [traj.x1[-1], traj.x2[-1]] == pytest.approx(ref, abs=1e-15)


class TestNoise:
    def test_deterministic_run_consumes_no_draws(self):
        rng = np.random.default_rng(0)
        integrate((0.1, 0.1, 0.0), QUIET, None, 1.0, rng=rng)
        fresh = np.random.default_rng(0)
        assert rng.standard_normal() == fresh.standard_normal()

    def test_noisy_run_needs_rng(self):
        with pytest.raises(ConfigError):
            integrate((0.1, 0.1, 0.0), CircuitParams(noise_d=0.2), None, 1.0)

    def test_same_seed_reproduces(self):
        p = CircuitParams(noise_d=0.2)
        t1 = integrate(
            (0.1, 0.1, 0.0), p, None, 5.0, rng=np.random.default_rng(5)
        )
        t2 = integrate(
            (0.1, 0.1, 0.0), p, None, 5.0, rng=np.random.default_rng(5)
        )
        assert np.array_equal(t1.x1, t2.x1)
        assert np.array_equal(t1.x2, t2.x2)

    def test_different_seeds_differ(self):
        p = CircuitParams(noise_d=0.2)
        t1 = integrate(
            (0.1, 0.1, 0.0), p, None, 5.0, rng=np.random.default_rng(5)
        )
        t2 = integrate(
            (0.1, 0.1, 0.0), p, None, 5.0, rng=np.random.default_rng(6)
        )
        assert not np.array_equal(t1.x2, t2.x2)

    def test_noise_enters_x2_only_per_step(self):
        # with the x2 drift zeroed, x1 feels noise only through coupling
        p = CircuitParams(
            a=1.0, b=1.0, beta=0.0, f=0.0, bias=0.0, noise_d=0.1
        )
        traj = integrate(
            (0.0, 0.0, 0.0), p, None, 0.01, rng=np.random.default_rng(1)
        )
        g = np.random.default_rng(1).standard_normal()
        assert traj.x2[-1] == pytest.approx(
            np.sqrt(0.1 * 0.01) * g, abs=1e-15
        )
        assert traj.x1[-1] == 0.0

    def test_variance_grows_at_rate_d(self):
        # beta=0 with a=b=1 leaves dx2 = noise alone, so over n steps
        # Var(x2) = D * t; 4000 trials pin the estimate within 5 %
        d = 0.04
        p = CircuitParams(a=1.0, b=1.0, beta=0.0, f=0.0, noise_d=d)
        seeds = [derive_seed(123, "noise", 0, j) for j in range(4000)]
        x2 = batch_final(p, 4000, 100.0, seeds, x0=(0.0, 0.0, 0.0)).x2
        assert float(np.var(x2)) == pytest.approx(d * 100.0, rel=0.05)


class TestBatchScalarConsistency:
    def test_deterministic_final_state_identical(self):
        p = gate_params("OR")
        batch = batch_final(p, 1, 5.0)
        traj = integrate((0.1, 0.1, 0.0), p, None, 5.0)
        assert batch.x1[0] == traj.x1[-1]
        assert batch.x2[0] == traj.x2[-1]

    def test_noisy_final_state_identical(self):
        p = gate_params("OR", noise_d=0.3)
        batch = batch_final(p, 1, 5.0, noise_seeds=[777])
        traj = integrate(
            (0.1, 0.1, 0.0), p, None, 5.0, rng=np.random.default_rng(777)
        )
        assert batch.x1[0] == traj.x1[-1]
        assert batch.x2[0] == traj.x2[-1]

    def test_residences_identical_across_paths(self):
        # both paths cut bit windows on one grid, with or without a
        # transient and a settle cut
        p = gate_params("OR")
        gate = gate_spec("OR")
        for transient in (1.0, 0.0):
            for settle_fraction in (0.0, 0.5):
                prog = tiny_program(transient=transient)
                traj = integrate((0.1, 0.1, 0.0), p, prog, prog.end_time)
                scalar = score_trial(
                    traj, prog, gate, DecodeSettings(settle_fraction)
                )
                result = batch_bit_residences(
                    p,
                    np.array([prog.levels()]),
                    bit_duration=prog.bit_duration,
                    transient=prog.transient,
                    config=IntegratorConfig(),
                    indicators=[gate.indicator()],
                    settings=DecodeSettings(settle_fraction),
                )
                batch_res = result.residences[0][0]
                scalar_res = [b.residence for b in scalar.bits]
                assert list(batch_res) == scalar_res

    def test_empty_window_raises_as_in_decode_bit(self):
        # one step per bit: a 0.6 settle cut keeps none of its sample
        settings = DecodeSettings(0.6)
        with pytest.raises(EmptySegmentError) as scalar:
            decode_bit(np.array([1.0]), DecodeRule("SIGN_POS"), settings)
        with pytest.raises(EmptySegmentError) as batch:
            batch_bit_residences(
                gate_params("OR"),
                np.zeros((1, 1)),
                bit_duration=IntegratorConfig().dt,
                transient=0.0,
                config=IntegratorConfig(),
                indicators=[gate_spec("OR").indicator()],
                settings=settings,
            )
        assert str(batch.value) == str(scalar.value)

    def test_small_noise_buffer_draws_the_same_stream(self, monkeypatch):
        # a buffer refilled every 3 steps, the last fill partial, holds
        # the same normals as the default one; only the numpy loops
        # have a buffer
        monkeypatch.setattr(integrator, "_kernel", lambda: None)
        p = gate_params("OR", noise_d=0.3)
        prog = tiny_program()

        def run():
            return batch_bit_residences(
                p,
                np.array([prog.levels()] * 3),
                bit_duration=prog.bit_duration,
                transient=prog.transient,
                config=IntegratorConfig(),
                indicators=[gate_spec("OR").indicator()],
                noise_seeds=[5, 6, 7],
            )

        default = run()
        monkeypatch.setattr(integrator, "_NOISE_VALUES", 9)
        small = run()
        assert np.array_equal(small.residences[0], default.residences[0])
        assert np.array_equal(small.x1, default.x1)
        assert np.array_equal(small.x2, default.x2)
        assert len(set(default.x2)) == 3

    def test_batch_trials_independent(self):
        # identical rows must produce identical residences
        p = gate_params("OR")
        prog = tiny_program()
        levels = np.array([prog.levels(), prog.levels()])
        result = batch_bit_residences(
            p,
            levels,
            bit_duration=prog.bit_duration,
            transient=prog.transient,
            config=IntegratorConfig(),
            indicators=[gate_spec("OR").indicator()],
        )
        assert np.array_equal(
            result.residences[0][0], result.residences[0][1]
        )


# rows that mix D = 0 and D = 0.003, two drive amplitudes and two biases
MIXED_ROWS = [
    gate_params("OR", noise_d=0.0),
    gate_params("OR", noise_d=0.003),
    gate_params("OR", f=0.16, noise_d=0.0),
    gate_params("OR", f=0.16, noise_d=0.003),
    gate_params("AND", noise_d=0.003),
]
MIXED_LEVELS = np.array(
    [[0.4, -0.4], [0.0, 0.4], [-0.4, 0.0], [0.4, 0.4], [0.0, -0.4]]
)


def mixed_batch(params, levels, seeds):
    return batch_bit_residences(
        params,
        levels,
        bit_duration=2.0,
        transient=1.0,
        config=IntegratorConfig(),
        indicators=[gate_spec("OR").indicator(), lambda x1, x2: x2 > 0],
        noise_seeds=seeds,
    )


class TestPerTrialParams:
    def test_mixed_rows_match_separate_calls(self):
        seeds = [derive_seed(3, "noise", t) for t in range(len(MIXED_ROWS))]
        mixed = mixed_batch(MIXED_ROWS, MIXED_LEVELS, seeds)
        for t, p in enumerate(MIXED_ROWS):
            alone = mixed_batch(p, MIXED_LEVELS[t : t + 1], seeds[t : t + 1])
            for q in range(2):
                assert np.array_equal(
                    mixed.residences[q][t], alone.residences[q][0]
                )
            assert mixed.diverged[t] == alone.diverged[0]
            assert mixed.x1[t] == alone.x1[0]
            assert mixed.x2[t] == alone.x2[0]
        # the noise reached the noisy rows only
        quiet = mixed_batch(
            [gate_params("OR")] * 2, MIXED_LEVELS[:2], seeds[:2]
        )
        assert mixed.x2[0] == quiet.x2[0]
        assert mixed.x2[1] != quiet.x2[1]

    def test_mixed_rows_with_small_noise_buffer(self, monkeypatch):
        # only the numpy loops have a noise buffer
        monkeypatch.setattr(integrator, "_kernel", lambda: None)
        seeds = [11, 12, 13, 14, 15]
        default = mixed_batch(MIXED_ROWS, MIXED_LEVELS, seeds)
        monkeypatch.setattr(integrator, "_NOISE_VALUES", 9)
        small = mixed_batch(MIXED_ROWS, MIXED_LEVELS, seeds)
        for q in range(2):
            assert np.array_equal(small.residences[q], default.residences[q])
        assert np.array_equal(small.diverged, default.diverged)
        assert np.array_equal(small.x1, default.x1)
        assert np.array_equal(small.x2, default.x2)

    def test_rows_must_share_circuit_constants(self):
        p = gate_params("OR")
        for other in (
            CircuitParams(beta=0.9, bias=p.bias),
            CircuitParams(omega=1.1, bias=p.bias),
        ):
            with pytest.raises(ConfigError):
                mixed_batch([p, other], MIXED_LEVELS[:2], [1, 2])
        for rows in ([p], [p] * 3):
            with pytest.raises(ConfigError):
                mixed_batch(rows, MIXED_LEVELS[:2], [1, 2])


class TestTrajectoryCsv:
    def test_format_and_round_trip(self, tmp_path):
        p = gate_params("OR")
        traj = integrate((0.1, 0.1, 0.0), p, None, 1.0)
        path = tmp_path / "trajectory.csv"
        traj.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,x1,x2,I,F_det"
        assert len(lines) == len(traj) + 1
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        # 17 significant digits round-trip float64 exactly
        assert np.array_equal(data[:, 1], traj.x1)
        assert np.array_equal(data[:, 2], traj.x2)


def on_both_backends(monkeypatch, run):
    """run() with the compiled kernel, then with the numpy loops forced."""
    if integrator._kernel() is None:
        pytest.skip(integrator.backend())
    kernel = run()
    with monkeypatch.context() as m:
        m.setattr(integrator, "_kernel", lambda: None)
        fallback = run()
    return kernel, fallback


def assert_same_batch(a, b):
    assert len(a.residences) == len(b.residences)
    for p, q in zip(a.residences, b.residences):
        assert np.array_equal(p, q)
    assert np.array_equal(a.diverged, b.diverged)
    assert a.x1.tobytes() == b.x1.tobytes()
    assert a.x2.tobytes() == b.x2.tobytes()


EVERY_RULE = [
    Indicator(var, rule)
    for var in ("x1", "x2")
    for rule in (
        DecodeRule("SIGN_POS"),
        DecodeRule("SIGN_NEG"),
        DecodeRule("BAND", -0.5, 1.05),
        DecodeRule("BAND_COMPLEMENT", -0.5, 1.05),
    )
]


class TestBackendParity:
    """The compiled kernel returns what the numpy loops return, bit for
    bit: residences, divergence flags, final states and trajectories."""

    @pytest.mark.slow
    def test_desk_program_deterministic_and_noisy(self, monkeypatch):
        prog = random_program(DESK_BITS_PER_RUN, seed=1)
        rows = [gate_params("OR"), gate_params("OR", noise_d=0.002)]

        def run():
            return batch_bit_residences(
                rows,
                np.array([prog.levels()] * 2),
                bit_duration=prog.bit_duration,
                transient=prog.transient,
                config=IntegratorConfig(),
                indicators=[gate_spec("OR").indicator()],
                noise_seeds=[1, 2],
            )

        kernel, fallback = on_both_backends(monkeypatch, run)
        assert_same_batch(kernel, fallback)
        # the noisy row misdecodes some bits, so the rows differ
        assert not np.array_equal(*kernel.residences[0])

    def test_every_rule_kind_on_both_variables(self, monkeypatch):
        seeds = [derive_seed(4, "noise", t) for t in range(len(MIXED_ROWS))]
        kernel, fallback = on_both_backends(
            monkeypatch,
            lambda: batch_bit_residences(
                MIXED_ROWS,
                MIXED_LEVELS,
                bit_duration=2.0,
                transient=1.0,
                config=IntegratorConfig(),
                indicators=EVERY_RULE,
                noise_seeds=seeds,
            ),
        )
        assert_same_batch(kernel, fallback)
        # each band, on either variable, holds on some samples only
        for r in kernel.residences[2:4] + kernel.residences[6:]:
            assert 0 < r.sum() < r.size

    def test_xnor_calibration_bands(self, monkeypatch):
        # the 62 bands calibrate_xnor_band scores
        grid = np.round(np.arange(1.0, 1.61, 0.01), 10).tolist()
        bands = [Indicator("x2", DecodeRule("BAND", -t, t)) for t in grid]
        kernel, fallback = on_both_backends(
            monkeypatch,
            lambda: batch_bit_residences(
                gate_params("XOR"),
                np.array([[0.4, 0.0, -0.4], [0.0, 0.0, 0.4]]),
                bit_duration=3.0,
                transient=1.0,
                config=IntegratorConfig(),
                indicators=bands,
            ),
        )
        assert len(bands) == 62
        assert_same_batch(kernel, fallback)

    def test_rules_at_their_edges(self, monkeypatch):
        # undriven from the origin the state stays at exactly 0.0, on
        # the closed edge of each band
        edges = [
            Indicator(var, DecodeRule(kind, lo, hi))
            for var in ("x1", "x2")
            for kind in ("BAND", "BAND_COMPLEMENT")
            for lo, hi in ((0.0, 1.0), (-1.0, 0.0))
        ]
        kernel, fallback = on_both_backends(
            monkeypatch,
            lambda: batch_bit_residences(
                QUIET,
                np.zeros((1, 1)),
                bit_duration=1.0,
                transient=0.0,
                config=IntegratorConfig(),
                indicators=edges + EVERY_RULE,
                x0=(0.0, 0.0, 0.0),
            ),
        )
        assert_same_batch(kernel, fallback)
        held = [float(r[0, 0]) for r in kernel.residences]
        assert held == [1, 1, 0, 0] * 2 + [0, 0, 1, 0] * 2

    # the last bound check falls after 6,300 steps, and after 150
    @pytest.mark.parametrize("bit, transient", [(30.0, 3.0), (0.75, 0.0)])
    def test_diverging_rows(self, monkeypatch, bit, transient):
        # a large bias pushes rows 1 and 4 past the bound; row 4 is noisy
        rows = [
            gate_params("OR"),
            CircuitParams(bias=5.0),
            gate_params("OR", noise_d=0.002),
        ] * 2
        rows[4] = CircuitParams(bias=5.0, noise_d=0.01)
        kernel, fallback = on_both_backends(
            monkeypatch,
            lambda: batch_bit_residences(
                rows,
                np.zeros((6, 2)),
                bit_duration=bit,
                transient=transient,
                config=IntegratorConfig(divergence_bound=3.0),
                indicators=EVERY_RULE[:3],
                noise_seeds=list(range(6)),
            ),
        )
        assert_same_batch(kernel, fallback)
        assert kernel.diverged.tolist() == [0, 1, 0, 0, 1, 0]

    # every tail length of 2-, 4- and 8-lane row loops, and past them
    @pytest.mark.parametrize("width", [*range(1, 18), 31, 33, 65])
    def test_batch_widths(self, monkeypatch, width):
        # rows cycle through quiet, noisy, a second drive amplitude and
        # a noisy row that a large bias pushes past the bound
        cycle = [
            gate_params("OR"),
            gate_params("OR", noise_d=0.003),
            gate_params("OR", f=0.16),
            CircuitParams(bias=5.0, noise_d=0.01),
        ]
        rows = [cycle[t % 4] for t in range(width)]
        levels = np.array(
            [[0.4 * ((t + b) % 3 - 1) for b in range(2)] for t in range(width)]
        )
        kernel, fallback = on_both_backends(
            monkeypatch,
            lambda: batch_bit_residences(
                rows,
                levels,
                bit_duration=2.0,
                transient=1.0,
                config=IntegratorConfig(divergence_bound=3.0),
                indicators=EVERY_RULE,
                noise_seeds=[derive_seed(5, "noise", t) for t in range(width)],
            ),
        )
        assert_same_batch(kernel, fallback)
        assert kernel.diverged.tolist() == [t % 4 == 3 for t in range(width)]

    @pytest.mark.parametrize("stride", [1, 3, 7])
    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_integrate(self, monkeypatch, stride, noise):
        prog = tiny_program(channels=((1, 0, 1), (0, 1, 1)))
        kernel, fallback = on_both_backends(
            monkeypatch,
            lambda: integrate(
                (0.1, 0.1, 0.0),
                gate_params("OR", noise_d=noise),
                prog,
                prog.end_time + 0.5,
                IntegratorConfig(stride=stride),
                rng=np.random.default_rng(9),
            ),
        )
        for name in ("t", "x1", "x2", "i_level", "f_det"):
            assert getattr(kernel, name).tobytes() == getattr(
                fallback, name
            ).tobytes()

    def test_diverging_integrate(self, monkeypatch):
        def run():
            with pytest.raises(DivergedError) as err:
                integrate(
                    (0.1, 0.1, 0.0),
                    CircuitParams(bias=5.0, noise_d=0.01),
                    None,
                    40.0,
                    IntegratorConfig(divergence_bound=3.0),
                    rng=np.random.default_rng(2),
                )
            e = err.value
            return e.t, e.x1, e.x2, e.bound, str(e)

        kernel, fallback = on_both_backends(monkeypatch, run)
        assert kernel == fallback

    def test_backend_names_the_instruction_set(self):
        if integrator._kernel() is None:
            pytest.skip(integrator.backend())
        try:
            with open("/proc/cpuinfo") as f:
                flags = set(f.read().split())
        except OSError:
            pytest.skip("no /proc/cpuinfo to read the CPU's flags from")
        # the clone the loader picks: the kernel is cloned for avx2
        # only on x86-64 with glibc
        cloned = (
            platform.machine() == "x86_64"
            and platform.libc_ver()[0] == "glibc"
        )
        expected = "avx2" if cloned and "avx2" in flags else "default"
        # one worker per usable core, at most 8
        if hasattr(os, "sched_getaffinity"):
            workers = min(len(os.sched_getaffinity(0)), 8)
        else:
            workers = min(os.cpu_count() or 1, 8)
        noun = "worker" if workers == 1 else "workers"
        want = f"C kernel ({expected}, {workers} {noun})"
        assert integrator.backend() == want

    def test_build_flags_keep_ieee_arithmetic(self):
        # bit identity needs nothing fused or reordered, and the cached
        # library must load on any CPU of its architecture
        assert "-ffp-contract=off" in integrator._CFLAGS
        for flag in (
            "-ffast-math",
            "-Ofast",
            "-funsafe-math-optimizations",
            "-march=native",
        ):
            assert flag not in integrator._CFLAGS

    @pytest.mark.parametrize("cc", ["missing", "failing"])
    def test_fallback_without_a_compiler(self, monkeypatch, tmp_path, cc):
        prog = tiny_program()

        def run():
            traj = integrate(
                (0.1, 0.1, 0.0),
                gate_params("OR", noise_d=0.01),
                prog,
                prog.end_time,
                rng=np.random.default_rng(3),
            )
            batch = mixed_batch(
                MIXED_ROWS, MIXED_LEVELS, list(range(len(MIXED_ROWS)))
            )
            return traj, batch

        traj, batch = run()
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        if cc == "failing":
            # a cc that writes part of its output file, then fails
            fake = bin_dir / "cc"
            fake.write_text(
                '#!/bin/sh\nwhile [ "$1" != -o ]; do shift; done\n'
                'echo partial > "$2"\nexit 1\n'
            )
            fake.chmod(0o755)
        cache = tmp_path / "cache"
        monkeypatch.setenv("PATH", str(bin_dir))
        monkeypatch.setattr(integrator, "_CACHE", cache)
        monkeypatch.setattr(integrator, "_loaded", {})
        assert integrator.backend().startswith("numpy: ")
        assert ("cc is not on PATH" in integrator.backend()) == (cc == "missing")
        traj2, batch2 = run()
        assert_same_batch(batch, batch2)
        assert traj.x2.tobytes() == traj2.x2.tobytes()
        assert not cache.exists() or not list(cache.iterdir())


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
WORD = (1 << 64) - 1
# beyond this the ziggurat's values come from its tail path only
TAIL_EDGE = 3.6541528853610088


def unchecked_kernel():
    """The kernel as it loads, before the normals check these tests
    repeat, so that they fail where the check would fall back."""
    lib, reason = integrator._build_kernel(integrator._CACHE)
    if lib is None:
        pytest.skip(reason)
    return lib


def kernel_normals(lib, bit_generator, n):
    """n of the kernel's normals from bit_generator's state, which is
    left as it was, and the kernel's state after them."""
    g = np.array(integrator._pcg_words(bit_generator), dtype=np.uint64)
    out = np.empty(n)
    lib.normals(g.ctypes, n, out.ctypes)
    return out, g.tolist()


def pcg64_with_next_output(raw):
    """A PCG64 whose next 64-bit output is raw."""
    inc = 0x5851F42D4C957F2D14057B7EF767814F
    # after the step the state is (hi, lo), and the output is
    # hi ^ lo rotated right by hi's top six bits
    hi = 0xA5A5A5A5A5A5A5A5
    rot = hi >> 58
    lo = hi ^ ((raw << rot | raw >> (64 - rot)) & WORD)
    state = (hi << 64 | lo) - inc
    state = state * pow(PCG64_MULTIPLIER, -1, 1 << 128) % (1 << 128)
    bg = np.random.PCG64()
    bg.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bg


class TestKernelNormals:
    """The kernel's noise draws are numpy's default_rng standard
    normals, value for value and state for state."""

    def test_stream_equals_numpy(self):
        lib = unchecked_kernel()
        tail = 0
        for seed in (1, 2, 2**40 + 3, derive_seed(7, "noise", 0)):
            got, state = kernel_normals(lib, np.random.PCG64(seed), 1 << 19)
            rng = np.random.default_rng(seed)
            want = rng.standard_normal(1 << 19)
            assert got.tobytes() == want.tobytes()
            assert state == integrator._pcg_words(rng.bit_generator)
            tail += int((np.abs(got) > TAIL_EDGE).sum())
        # about 2.6e-4 of all draws, some 550 here
        assert tail > 100

    # the first output's low byte is the ziggurat layer, bit 8 the sign
    # and bits 9-60 the value: layer 1 always leaves its rectangle for
    # the wedge test, and layer 0's largest value lies in the tail
    @pytest.mark.parametrize(
        "raw, path",
        [
            (0x0123456789ABCD01, "wedge"),
            (0xFEDCBA9876543201, "wedge"),
            ((1 << 61) - (1 << 9), "tail"),
            ((1 << 61) - (1 << 8), "tail"),
        ],
    )
    def test_slow_paths(self, raw, path):
        lib = unchecked_kernel()
        assert pcg64_with_next_output(raw).random_raw() == raw
        bg = pcg64_with_next_output(raw)
        first, state = kernel_normals(lib, bg, 1)
        got, _ = kernel_normals(lib, bg, 64)
        rng = np.random.Generator(bg)
        assert got.tobytes() == rng.standard_normal(64).tobytes()
        # the first value drew more than its one 64-bit output
        one = pcg64_with_next_output(raw)
        one.advance(1)
        assert state != integrator._pcg_words(one)
        assert (abs(first[0]) > TAIL_EDGE) == (path == "tail")

    def test_failed_check_runs_the_numpy_loops(self, monkeypatch):
        unchecked_kernel()
        seeds = [derive_seed(8, "noise", t) for t in range(len(MIXED_ROWS))]

        def run():
            return batch_bit_residences(
                MIXED_ROWS,
                MIXED_LEVELS,
                bit_duration=2.0,
                transient=1.0,
                config=IntegratorConfig(),
                indicators=EVERY_RULE,
                noise_seeds=seeds,
            )

        kernel = run()
        real = np.random.default_rng
        monkeypatch.setattr(integrator, "_loaded", {})
        with monkeypatch.context() as m:
            # numpy's reference draws come from another seed
            m.setattr(np.random, "default_rng", lambda seed: real(seed + 1))
            assert integrator.backend() == (
                "numpy: the kernel's normals differ from numpy "
                f"{np.__version__}'s"
            )
        assert integrator._kernel() is None
        assert_same_batch(kernel, run())

    def test_state_carried_across_many_bits(self, monkeypatch):
        # 13 segments of 30 steps each, so each noisy row's state passes
        # through 13 calls of the kernel
        prog = random_program(12, seed=4)
        rows = [gate_params("OR", noise_d=d) for d in (0.0, 0.01, 0.02)] * 2
        kernel, fallback = on_both_backends(
            monkeypatch,
            lambda: batch_bit_residences(
                rows,
                np.array([prog.levels()] * 6),
                bit_duration=0.3,
                transient=0.3,
                config=IntegratorConfig(),
                indicators=EVERY_RULE,
                noise_seeds=[derive_seed(9, "noise", t) for t in range(6)],
            ),
        )
        assert_same_batch(kernel, fallback)
        # quiet rows repeat each other, noisy ones do not
        assert kernel.x2[0] == kernel.x2[3]
        assert len(set(kernel.x2[[1, 2, 4, 5]])) == 4

    def test_without_int128_the_numpy_loops_run(self, monkeypatch, tmp_path):
        if integrator.shutil.which("cc") is None:
            pytest.skip("no C compiler")
        flags = (*integrator._CFLAGS, "-U__SIZEOF_INT128__")
        monkeypatch.setattr(integrator, "_CFLAGS", flags)
        monkeypatch.setattr(integrator, "_CACHE", tmp_path)
        monkeypatch.setattr(integrator, "_loaded", {})
        reason = integrator.backend()
        assert reason.startswith("numpy: cc exited ")
        assert "the noise draws need unsigned __int128" in reason



def worker_batch(width):
    """A batch of `width` rows: quiet and noisy rows mixed, every fifth
    row pushed past the bound (quiet and noisy by turns), and quiet
    rows that repeat one another every 15 rows."""
    rows = [
        [
            gate_params("OR"),
            gate_params("OR", noise_d=0.003),
            gate_params("OR", f=0.16),
            gate_params("OR", noise_d=0.003),
            CircuitParams(bias=5.0, noise_d=0.01 * (t // 5 % 2)),
        ][t % 5]
        for t in range(width)
    ]
    levels = np.array(
        [[0.4 * ((t + b) % 3 - 1) for b in range(2)] for t in range(width)]
    )
    return batch_bit_residences(
        rows,
        levels,
        bit_duration=2.0,
        transient=1.0,
        config=IntegratorConfig(divergence_bound=3.0),
        indicators=EVERY_RULE,
        noise_seeds=[derive_seed(6, "noise", t) for t in range(width)],
    )


def on_workers(monkeypatch, workers, run):
    """run() with the kernel stepping every segment on `workers` threads."""
    with monkeypatch.context() as m:
        m.setattr(integrator, "_WORKERS", workers)
        m.setattr(integrator, "_THREAD_MIN", 0)
        return run()


def seg_outputs(lib, width, noisy, workers):
    """Every array `seg` writes, as bytes, after 300 steps of `width`
    rows from a call on `workers` threads: odd rows noisy when `noisy`,
    every fifth row pushed past the bound, and every seventh flagged
    before the call."""
    p = gate_params("OR")
    t = np.arange(width)
    bias = np.where(t % 5 == 4, 5.0, p.bias)
    famp = np.full(width, p.f)
    level = 0.4 * (t % 3 - 1.0)
    x1 = np.full(width, 0.1)
    x2 = np.full(width, 0.1)
    alive = t % 7 != 6
    drawing = t[t % 2 == 1] if noisy else t[:0]
    stream = np.full(width, -1, dtype=np.int64)
    stream[drawing] = np.arange(len(drawing))
    scale = np.where(stream >= 0, np.sqrt(0.003 * 0.01), 0.0)
    pcg = np.array(
        [integrator._pcg_words(np.random.PCG64(int(s))) for s in drawing],
        dtype=np.uint64,
    )
    rules = integrator._rule_columns(EVERY_RULE)
    res = np.zeros((len(EVERY_RULE), width, 2))
    lib.seg(
        width, 0, 300, 300, 50, 0.0, p.omega, 0.01,
        integrator._weights(p).ctypes,
        *(c.ctypes for c in (bias, famp, level, x1, x2, alive)), 3.0,
        pcg.ctypes if len(drawing) else None, stream.ctypes, scale.ctypes,
        100, 300, len(EVERY_RULE), *(c.ctypes for c in rules), res.ctypes,
        2, 1, workers,
    )
    return [a.tobytes() for a in (x1, x2, alive, pcg, res)]


def kernel_or_skip():
    lib = integrator._kernel()
    if lib is None:
        pytest.skip(integrator.backend())
    return lib


WORKER_WIDTHS = [*range(1, 18), 33, 257]


class TestWorkers:
    """A kernel batch returns the same bits on any number of threads,
    and a quiet row that repeats another returns that row's result."""

    @pytest.mark.parametrize("width", WORKER_WIDTHS)
    def test_batch_on_one_two_and_three_workers(self, monkeypatch, width):
        kernel_or_skip()
        one, two, three = (
            on_workers(monkeypatch, n, lambda: worker_batch(width))
            for n in (1, 2, 3)
        )
        assert_same_batch(one, two)
        assert_same_batch(one, three)
        assert one.diverged.tolist() == [t % 5 == 4 for t in range(width)]

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("width", WORKER_WIDTHS)
    def test_seg_carries_the_same_state(self, width, noisy):
        lib = kernel_or_skip()
        one = seg_outputs(lib, width, noisy, 1)
        assert seg_outputs(lib, width, noisy, 2) == one
        assert seg_outputs(lib, width, noisy, 3) == one
        # every noisy row drew, every fifth row left the bound, and
        # rows flagged before stayed flagged
        start = [
            integrator._pcg_words(np.random.PCG64(s))
            for s in range(1, width, 2)
        ]
        if noisy and width > 1:
            words = np.frombuffer(one[3], dtype=np.uint64).reshape(-1, 4)
            assert all(a != b for a, b in zip(words.tolist(), start))
        flagged = {*range(4, width, 5), *range(6, width, 7)}
        assert one[2].count(0) == len(flagged)

    def test_more_workers_than_rows(self):
        lib = kernel_or_skip()
        assert seg_outputs(lib, 2, True, 8) == seg_outputs(lib, 2, True, 1)
        assert seg_outputs(lib, 3, True, 100) == seg_outputs(lib, 3, True, 1)

    def test_duplicates_match_the_numpy_loops(self, monkeypatch):
        kernel, fallback = on_both_backends(
            monkeypatch,
            lambda: on_workers(monkeypatch, 2, lambda: worker_batch(33)),
        )
        assert_same_batch(kernel, fallback)
        # rows 0, 15 and 30 repeat one another, as do 2, 17 and 32
        assert kernel.x2[0] == kernel.x2[15] == kernel.x2[30]
        assert kernel.x2[2] == kernel.x2[17] == kernel.x2[32]

    def test_quiet_repeats_step_once(self):
        rows = [gate_params("OR", noise_d=d) for d in (0, 0.1, 0, 0, 0.1, 0)]
        bias, famp, noise_d = (
            np.array([getattr(p, k) for p in rows])
            for k in ("bias", "f", "noise_d")
        )
        levels = np.array([[0.2], [0.2], [0.2], [-0.2], [0.2], [0.2]])
        keep, inverse = integrator._distinct_rows(
            bias, famp, noise_d, levels
        )
        # noisy rows 1 and 4 never merge; quiet rows 2 and 5 repeat 0
        assert keep.tolist() == [0, 1, 3, 4]
        assert inverse.tolist() == [0, 1, 0, 2, 3, 0]
        assert integrator._distinct_rows(
            bias[:2], famp[:2], noise_d[:2], levels[:2]
        ) == (None, None)
