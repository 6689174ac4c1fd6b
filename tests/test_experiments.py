"""P(logic) estimation, sweeps, the latch experiment, and intervals."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlclogic.experiments as experiments
from mlclogic import (
    CANONICAL,
    ConfigError,
    ForbiddenInputError,
    IntegratorConfig,
    LATCH_DELTA,
    LatchResult,
    PLogicEstimate,
    XNOR_BAND_HALF_WIDTH,
    LogicProgram,
    calibrate_xnor_band,
    derive_seed,
    estimate_plogic,
    export_phase_portrait,
    gate_params,
    gate_spec,
    integrate,
    random_program,
    run_latch_experiment,
    score_residences,
    sweep,
    wilson_interval,
)

FAST = dict(bit_duration=2.0, transient=1.0)
GOLDEN = Path(__file__).parent / "golden"


class TestWilsonInterval:
    def test_golden_all_successes(self):
        lo, hi = wilson_interval(20, 20)
        assert lo == pytest.approx(0.83887, abs=1e-4)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_golden_no_successes(self):
        lo, hi = wilson_interval(0, 20)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(0.16113, abs=1e-4)

    def test_symmetry(self):
        lo1, hi1 = wilson_interval(15, 20)
        lo2, hi2 = wilson_interval(5, 20)
        assert lo1 == pytest.approx(1 - hi2, abs=1e-12)
        assert hi1 == pytest.approx(1 - lo2, abs=1e-12)

    @given(
        n=st.integers(min_value=1, max_value=500),
        s=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=300)
    def test_endpoints_solve_score_equation(self, n, s):
        if s > n:
            s = n
        z = 1.96
        p_hat = s / n
        lo, hi = wilson_interval(s, n)
        assert 0.0 <= lo <= p_hat <= hi <= 1.0
        for c in (lo, hi):
            if 0.0 < c < 1.0:
                assert (p_hat - c) ** 2 == pytest.approx(
                    z * z * c * (1 - c) / n, abs=1e-9
                )

    def test_narrows_with_trials(self):
        lo1, hi1 = wilson_interval(8, 10)
        lo2, hi2 = wilson_interval(80, 100)
        assert hi2 - lo2 < hi1 - lo1

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            wilson_interval(5, 0)
        with pytest.raises(ConfigError):
            wilson_interval(7, 5)


class TestEstimatePlogic:
    def test_real_or_point(self):
        est = estimate_plogic(
            "OR", n_sets=2, n_runs_per_set=1, bits_per_run=3, base_seed=42
        )
        assert est.trials == 2
        assert est.successes == 2
        assert est.p_logic == 1.0
        assert est.diverged == 0

    def test_reproducible(self):
        kw = dict(
            n_sets=2,
            n_runs_per_set=2,
            bits_per_run=2,
            base_seed=11,
            **FAST,
        )
        p = gate_params("OR", noise_d=0.3)
        e1 = estimate_plogic("OR", p, **kw)
        e2 = estimate_plogic("OR", p, **kw)
        assert e1.successes == e2.successes
        assert e1.p_logic == e2.p_logic

    def test_ci_brackets_estimate(self):
        est = estimate_plogic(
            "OR",
            gate_params("OR", noise_d=0.5),
            n_sets=3,
            n_runs_per_set=2,
            bits_per_run=2,
            base_seed=1,
            **FAST,
        )
        assert est.ci_lo <= est.p_logic <= est.ci_hi

    def test_counts_validated(self):
        for bad in (
            {"n_sets": 0},
            {"n_sets": 2.5},
            {"n_runs_per_set": "2"},
            {"bits_per_run": None},
        ):
            with pytest.raises(ConfigError):
                estimate_plogic("OR", **bad)

    def test_latch_gate_uses_latch_delta_by_default(self):
        # mechanics only: DIFF2 programs must avoid (1,1) and thread holds
        est = estimate_plogic(
            "SR_HIGH",
            n_sets=2,
            n_runs_per_set=1,
            bits_per_run=4,
            base_seed=3,
            **FAST,
        )
        assert est.trials == 2

    def test_operating_point_carries_the_encoding_step(self):
        assert gate_params("SR_HIGH").delta == LATCH_DELTA
        assert gate_params("SR_LOW").delta == LATCH_DELTA
        assert gate_params("OR").delta == CANONICAL.delta

    def test_programs_drawn_at_params_delta(self, monkeypatch):
        deltas = []
        draw = experiments.random_program

        def capture(*args, **kwargs):
            deltas.append(kwargs["delta"])
            return draw(*args, **kwargs)

        monkeypatch.setattr(experiments, "random_program", capture)
        for gate in ("SR_HIGH", "OR"):
            estimate_plogic(
                gate,
                gate_params(gate, delta=0.1),
                n_sets=2,
                n_runs_per_set=1,
                bits_per_run=2,
                **FAST,
            )
        assert deltas == [0.1] * 4


class TestSweep:
    def test_report_structure(self, tmp_path):
        rep = sweep(
            "OR",
            "noise",
            [0.0, 0.5],
            n_sets=2,
            n_runs_per_set=1,
            bits_per_run=2,
            base_seed=7,
            **FAST,
        )
        assert rep.gate == "OR"
        assert rep.axis == "noise"
        assert rep.axis_values == [0.0, 0.5]
        assert len(rep.points) == 2

        csv_path = tmp_path / "report.csv"
        rep.write_csv(csv_path)
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "axis_value,trials,successes,p_logic,ci_lo,ci_hi"
        assert len(lines) == 3

        json_path = tmp_path / "report.json"
        rep.write_json(json_path)
        loaded = json.loads(json_path.read_text())
        assert loaded["gate"] == "OR"
        assert len(loaded["points"]) == 2
        assert "diverged" in loaded["points"][0]

    def test_points_reproducible_in_isolation(self):
        kw = dict(
            n_sets=2, n_runs_per_set=2, bits_per_run=2, base_seed=19, **FAST
        )
        rep = sweep("OR", "noise", [0.2, 0.6], **kw)
        solo = estimate_plogic(
            "OR",
            gate_params("OR", noise_d=0.6),
            n_sets=2,
            n_runs_per_set=2,
            bits_per_run=2,
            base_seed=derive_seed(19, "sweep", "noise", 1),
            **FAST,
        )
        assert rep.points[1].successes == solo.successes

    def test_every_point_matches_isolation_in_one_batch(self, monkeypatch):
        # D = 0 sits among noisy points; the forcing sweep moves f
        calls = []
        original = experiments.batch_bit_residences

        def counting(*args, **kwargs):
            calls.append(args[1].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "batch_bit_residences", counting)
        kw = dict(n_sets=2, n_runs_per_set=2, bits_per_run=2, **FAST)
        for gate, axis, values in (
            ("OR", "noise", [0.0, 0.001, 0.003, 0.3]),
            ("XOR", "forcing", [0.1, 0.16, 0.2]),
        ):
            calls.clear()
            rep = sweep(gate, axis, values, base_seed=23, **kw)
            assert calls == [(len(values) * 4, 2)]
            key = "noise_d" if axis == "noise" else "f"
            for i, v in enumerate(values):
                solo = estimate_plogic(
                    gate,
                    gate_params(gate, **{key: v}),
                    base_seed=derive_seed(23, "sweep", axis, i),
                    **kw,
                )
                assert rep.points[i].to_dict() == solo.to_dict()

    def test_counts_validated_before_integrating(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("integrated before checking the counts")

        monkeypatch.setattr(experiments, "batch_bit_residences", fail)
        for bad in (
            {"n_sets": 2.5},
            {"n_runs_per_set": "2"},
            {"bits_per_run": None},
        ):
            with pytest.raises(ConfigError):
                sweep("OR", "noise", [0.0, 0.1], **bad)

    def test_forcing_axis_moves_drive(self):
        rep = sweep(
            "OR",
            "forcing",
            [0.0, 0.1],
            n_sets=1,
            n_runs_per_set=1,
            bits_per_run=2,
            base_seed=5,
            **FAST,
        )
        assert len(rep.points) == 2

    def test_axis_validation(self):
        with pytest.raises(ConfigError):
            sweep("OR", "temperature", [0.1, 0.2])
        with pytest.raises(ConfigError):
            sweep("OR", "noise", [0.5, 0.2])
        with pytest.raises(ConfigError):
            sweep("OR", "noise", [])


class TestLatchExperiment:
    def test_real_latch_run(self):
        prog = LogicProgram(
            channels=((1, 0, 0, 0), (0, 0, 1, 0)),
            combiner="DIFF2",
            delta=LATCH_DELTA,
        )
        result = run_latch_experiment(prog)
        assert result.high.success
        assert result.low.success
        assert result.success
        assert result.complementary()
        # set, hold, reset, hold
        assert [b.decoded for b in result.high.bits] == [1, 1, 0, 0]
        assert [b.decoded for b in result.low.bits] == [0, 0, 1, 1]

    def test_rejects_forbidden_pair(self):
        prog = LogicProgram(
            channels=((1, 1), (0, 1)), combiner="DIFF2", **FAST
        )
        with pytest.raises(ForbiddenInputError):
            run_latch_experiment(prog)

    def test_rejects_wrong_combiner(self):
        prog = LogicProgram(channels=((1, 0), (0, 1)), **FAST)
        with pytest.raises(ConfigError):
            run_latch_experiment(prog)

    def test_result_serializes(self):
        prog = LogicProgram(
            channels=((1, 0), (0, 1)), combiner="DIFF2", **FAST
        )
        result = run_latch_experiment(prog)
        d = result.to_dict()
        assert set(d) == {"success", "complementary", "high", "low"}
        json.dumps(d)  # must be JSON clean


class TestPhasePortrait:
    def test_labels_follow_program(self):
        prog = LogicProgram(channels=((1, 0), (1, 1)), **FAST)
        params = gate_params("OR")
        portrait = export_phase_portrait(prog, params)
        assert portrait.bits.shape[1] == 2
        # 2 bits of 2.0 at dt 0.01: 400 post-transient samples
        assert len(portrait.x1) == 400
        assert tuple(portrait.bits[0]) == (1, 1)
        assert tuple(portrait.bits[-1]) == (0, 1)

    def test_label_at_a_bit_edge(self):
        # bit 0 (1,1) drives +0.4 over steps 100..299, bit 1 (0,0) -0.4
        # from step 300; sample 300 is the state after step 299
        prog = LogicProgram(channels=((1, 0), (1, 0)), **FAST)
        params = gate_params("OR")
        portrait = export_phase_portrait(prog, params)
        traj = integrate((0.1, 0.1, 0.0), params, prog, prog.end_time)
        # portrait row r holds sample r + 101
        assert tuple(portrait.bits[199]) == (1, 1)
        assert tuple(portrait.bits[200]) == (0, 0)
        assert portrait.x1[199] == traj.x1[300]
        # integrate's I column shows the input of the step that starts
        # at the sample, so it is already bit 1's at sample 300
        assert traj.i_level[299] == pytest.approx(0.4)
        assert traj.i_level[300] == pytest.approx(-0.4)

    def test_stride_labels_match_stride_one(self):
        prog = LogicProgram(channels=((1, 0, 1), (1, 0, 0)), **FAST)
        params = gate_params("OR")
        full = export_phase_portrait(prog, params)
        strided = export_phase_portrait(
            prog, params, IntegratorConfig(stride=3)
        )
        # stride 3 samples steps 102, 105, ..., 699 and the last, 700
        steps = np.r_[np.arange(102, 700, 3), 700]
        assert np.array_equal(strided.bits, full.bits[steps - 101])
        assert np.array_equal(strided.x1, full.x1[steps - 101])

    def test_csv_format(self, tmp_path):
        prog = LogicProgram(channels=((1, 0), (1, 1)), **FAST)
        portrait = export_phase_portrait(prog, gate_params("OR"))
        path = tmp_path / "phase.csv"
        portrait.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x1,x2,bit_ch1,bit_ch2"
        assert len(lines) == 401

    def test_three_channel_labels(self, tmp_path):
        prog = LogicProgram(
            channels=((1, 0), (1, 1), (0, 0)), combiner="SUM3", **FAST
        )
        portrait = export_phase_portrait(prog, gate_params("OR3"))
        path = tmp_path / "phase3.csv"
        portrait.write_csv(path)
        header = path.read_text().split("\n")[0]
        assert header == "x1,x2,bit_ch1,bit_ch2,bit_ch3"


class TestNoiseGenerator:
    """A noisy phase portrait or latch run draws only from the rng it
    is handed, and refuses to run without one."""

    def phase_run(self, rng):
        prog = LogicProgram(channels=((1, 0), (1, 1)), **FAST)
        params = gate_params("OR", noise_d=0.05)
        return export_phase_portrait(prog, params, rng=rng).x2.tolist()

    def latch_run(self, rng):
        prog = LogicProgram(
            channels=((1, 0), (0, 1)), combiner="DIFF2", delta=LATCH_DELTA,
            **FAST,
        )
        # noise strong enough that two streams give different residences
        params = gate_params("SR_HIGH", noise_d=2.0, delta=LATCH_DELTA)
        return run_latch_experiment(prog, params, rng=rng).to_dict()

    def test_noisy_run_needs_rng(self):
        for run in (self.phase_run, self.latch_run):
            with pytest.raises(ConfigError):
                run(None)

    def test_equal_seeds_reproduce_and_seeds_differ(self):
        for run in (self.phase_run, self.latch_run):
            first = run(np.random.default_rng(1))
            assert run(np.random.default_rng(1)) == first
            assert run(np.random.default_rng(2)) != first


class TestXnorCalibration:
    def test_default_grid_brackets_the_packaged_band(self):
        best, table = calibrate_xnor_band(
            n_programs=4, bits_per_run=2, transient=93.38
        )
        thetas = [theta for theta, _ in table]
        # np.arange(1.0, 1.61, 0.01) lets 1.61 in: 62 half-widths
        assert len(thetas) == 62
        assert thetas[0] == 1.0 and thetas[-1] == 1.61
        runs = []
        for i, (_, agreement) in enumerate(table):
            if agreement == 1.0:
                if runs and runs[-1][-1] == i - 1:
                    runs[-1].append(i)
                else:
                    runs.append([i])
        longest = max(runs, key=len)
        assert best == thetas[(longest[0] + longest[-1]) // 2]
        assert thetas[longest[0]] <= XNOR_BAND_HALF_WIDTH
        assert XNOR_BAND_HALF_WIDTH <= thetas[longest[-1]]


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(42, "program", 3) == derive_seed(42, "program", 3)

    def test_distinct_roles_distinct_streams(self):
        seen = {
            derive_seed(42, "program", 0),
            derive_seed(42, "program", 1),
            derive_seed(42, "noise", 0, 0),
            derive_seed(42, "noise", 0, 1),
            derive_seed(42, "noise", 1, 0),
            derive_seed(43, "program", 0),
        }
        assert len(seen) == 6

    def test_fits_in_64_bits(self):
        for tag in range(100):
            assert 0 <= derive_seed(7, "x", tag) < 2**64


class TestProgramLevels:
    """The drive levels the estimators feed to the engine."""

    def test_or_levels_are_three_valued(self):
        prog = random_program(50, combiner="SUM2", seed=0, delta=0.2)
        levels = set(np.round(prog.levels(), 10))
        assert levels <= {-0.4, 0.0, 0.4}

    def test_latch_levels_are_three_valued(self):
        prog = random_program(
            50, combiner="DIFF2", seed=0, delta=LATCH_DELTA
        )
        levels = set(np.round(prog.levels(), 10))
        assert levels <= {-0.1, 0.0, 0.1}


class TestFrozenSerialisation:
    """The write_json text of each record type, byte for byte, as kept
    in tests/golden. Nothing here is integrated, so the text does not
    depend on the platform's libm."""

    BITS = [(0, 0), (1, 0), (1, 1), (0, 0), (0, 1)]

    def records(self):
        # one indeterminate bit, one forbidden pair, a leading hold
        high = score_residences(
            gate_spec("SR_HIGH"), self.BITS, [0.95, 0.99, 0.97, 0.5, 0.02]
        )
        low = score_residences(
            gate_spec("SR_LOW"), self.BITS, [0.05, 0.01, 0.03, 0.5, 0.98]
        )
        lo, hi = wilson_interval(7, 10)
        estimate = PLogicEstimate(
            trials=10, successes=7, diverged=0, p_logic=0.7, ci_lo=lo, ci_hi=hi
        )
        return {
            "outcome.json": high.to_dict(),
            "latch.json": LatchResult(high=high, low=low).to_dict(),
            "estimate.json": estimate.to_dict(),
        }

    def test_write_json_text_is_frozen(self, tmp_path):
        for name, record in self.records().items():
            experiments.write_json(tmp_path / name, record)
            text = (tmp_path / name).read_text()
            assert text == (GOLDEN / name).read_text(), name
