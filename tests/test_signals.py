"""Logic program encoding, sampling, and random program draws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlclogic import (
    ArityMismatchError,
    CircuitParams,
    ConfigError,
    IntegratorConfig,
    LogicProgram,
    combine,
    encode_channel,
    level_for_bits,
    integrate,
    random_program,
    read_program_csv,
)
from mlclogic.signals import bit_starts, grid_steps

BITS = st.integers(min_value=0, max_value=1)


def level_column(program, t_end, dt):
    """The logic input integrate applies at each step 0..t_end/dt,
    read from its recorded level column with an undriven circuit."""
    traj = integrate(
        (0.1, 0.1, 0.0),
        CircuitParams(bias=0.0, f=0.0),
        program,
        t_end,
        IntegratorConfig(dt=dt),
    )
    return traj.i_level


class TestBitStarts:
    def test_one_start_per_bit_then_the_end(self):
        starts = bit_starts(93.38, 100.53, 0.01, 4)
        assert len(starts) == 5
        assert starts[0] == 9338
        assert {b - a for a, b in zip(starts, starts[1:])} == {10053}

    def test_zero_transient_starts_bit_zero_at_step_zero(self):
        assert bit_starts(0.0, 2.0, 0.5, 3) == [0, 4, 8, 12]

    def test_rejects_off_grid_and_non_finite_timing(self):
        for transient, bit_duration in (
            (1.005, 2.0),
            (1.0, 2.005),
            (float("nan"), 2.0),
            (1.0, float("nan")),
            (1.0, float("inf")),
            (1e308, 2.0),
            (1.0, 1e308),
            (-1.0, 2.0),
            (1.0, 0.0),
        ):
            with pytest.raises(ConfigError):
                bit_starts(transient, bit_duration, 0.01, 2)

    def test_step_counts_fit_the_kernel(self):
        # 2**62 steps fit a signed 64-bit step index, 2**63 do not
        assert grid_steps(2.0**62, 1.0, "t") == 2**62
        assert bit_starts(0.0, 2.0**61, 1.0, 2)[-1] == 2**62
        with pytest.raises(ConfigError, match="2\\*\\*63 - 1"):
            grid_steps(2.0**63, 1.0, "t")
        # each bit fits, but the program's end step does not
        with pytest.raises(ConfigError, match="the program"):
            bit_starts(0.0, 2.0**62, 1.0, 2)
        with pytest.raises(ConfigError, match="transient"):
            bit_starts(1e17, 2.0, 0.01, 1)


class TestEncoding:
    def test_encode_channel(self):
        assert encode_channel(1, 0.2) == 0.2
        assert encode_channel(0, 0.2) == -0.2

    def test_encode_rejects_nonbits(self):
        with pytest.raises(ConfigError):
            encode_channel(2, 0.2)

    def test_sum2_levels(self):
        assert level_for_bits((0, 0), "SUM2", 0.2) == pytest.approx(-0.4)
        assert level_for_bits((0, 1), "SUM2", 0.2) == pytest.approx(0.0)
        assert level_for_bits((1, 0), "SUM2", 0.2) == pytest.approx(0.0)
        assert level_for_bits((1, 1), "SUM2", 0.2) == pytest.approx(0.4)

    def test_diff2_levels(self):
        # set drives +2*delta, reset -2*delta, hold lands on 0
        assert level_for_bits((1, 0), "DIFF2", 0.05) == pytest.approx(0.1)
        assert level_for_bits((0, 1), "DIFF2", 0.05) == pytest.approx(-0.1)
        assert level_for_bits((0, 0), "DIFF2", 0.05) == pytest.approx(0.0)

    def test_sum3_levels(self):
        assert level_for_bits((1, 1, 1), "SUM3", 0.2) == pytest.approx(0.6)
        assert level_for_bits((0, 0, 0), "SUM3", 0.2) == pytest.approx(-0.6)
        assert level_for_bits((1, 0, 0), "SUM3", 0.2) == pytest.approx(-0.2)

    def test_combine_arity_checked(self):
        with pytest.raises(ArityMismatchError):
            combine([0.2, 0.2, 0.2], "SUM2")
        with pytest.raises(ArityMismatchError):
            combine([0.2], "DIFF2")
        with pytest.raises(ConfigError):
            combine([0.2, 0.2], "PROD2")

    @given(b1=BITS, b2=BITS, delta=st.floats(min_value=0.01, max_value=1.0))
    def test_sum2_symmetric(self, b1, b2, delta):
        assert level_for_bits((b1, b2), "SUM2", delta) == pytest.approx(
            level_for_bits((b2, b1), "SUM2", delta)
        )


class TestLogicProgram:
    def prog(self):
        return LogicProgram(
            channels=((1, 0, 1), (0, 0, 1)),
            combiner="SUM2",
            delta=0.2,
            bit_duration=2.0,
            transient=1.0,
        )

    def test_shape(self):
        p = self.prog()
        assert p.n_bits == 3
        assert p.n_channels == 2
        assert p.end_time == pytest.approx(7.0)
        assert p.bit(0) == (1, 0)
        assert p.bit_tuples() == [(1, 0), (0, 0), (1, 1)]

    def test_levels(self):
        p = self.prog()
        assert p.levels() == pytest.approx([0.0, -0.4, 0.4])

    def test_level_at_transient_is_zero(self):
        levels = level_column(self.prog(), 1.0, 0.001)
        assert levels[0] == 0.0
        assert levels[999] == 0.0

    def test_level_at_bit_edges(self):
        levels = level_column(self.prog(), 7.0, 0.5)
        # a bit edge belongs to the bit that starts there
        assert levels[2] == pytest.approx(0.0)
        assert levels[6] == pytest.approx(-0.4)
        assert levels[10] == pytest.approx(0.4)

    def test_level_at_holds_past_end(self):
        levels = level_column(self.prog(), 20.0, 0.5)
        assert levels[14] == pytest.approx(0.4)
        assert levels[40] == pytest.approx(0.4)

    @given(
        data=st.data(),
        n_bits=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_level_at_matches_active_bit(self, data, n_bits):
        ch1 = data.draw(
            st.lists(BITS, min_size=n_bits, max_size=n_bits)
        )
        ch2 = data.draw(
            st.lists(BITS, min_size=n_bits, max_size=n_bits)
        )
        p = LogicProgram(
            channels=(tuple(ch1), tuple(ch2)),
            bit_duration=2.0,
            transient=1.0,
        )
        # dt = 0.5 keeps every step time exact in binary
        levels = level_column(p, p.end_time + 2.0, 0.5)
        for i, lev in enumerate(levels):
            # zero through the transient, then the active bit's level,
            # the last bit holding past the end
            t = i * 0.5
            k = min(int((t - 1.0) / 2.0), n_bits - 1)
            assert lev == (0.0 if t < 1.0 else p.level(k))

    def test_validation(self):
        with pytest.raises(ConfigError):
            LogicProgram(channels=((1, 0), (0,)))
        with pytest.raises(ConfigError):
            LogicProgram(channels=((1, 2), (0, 0)))
        with pytest.raises(ArityMismatchError):
            LogicProgram(channels=((1, 0),), combiner="SUM2")
        with pytest.raises(ConfigError):
            LogicProgram(channels=((), ()))


class TestRandomProgram:
    def test_reproducible(self):
        p1 = random_program(20, seed=5)
        p2 = random_program(20, seed=5)
        assert p1.channels == p2.channels
        p3 = random_program(20, seed=6)
        assert p1.channels != p3.channels

    def test_latch_mode_never_draws_forbidden_pair(self):
        p = random_program(1000, combiner="DIFF2", seed=1)
        assert (1, 1) not in p.bit_tuples()

    def test_latch_mode_keeps_other_pairs_roughly_uniform(self):
        p = random_program(3000, combiner="DIFF2", seed=2)
        counts = {}
        for b in p.bit_tuples():
            counts[b] = counts.get(b, 0) + 1
        assert set(counts) == {(0, 0), (0, 1), (1, 0)}
        for v in counts.values():
            assert 800 < v < 1200

    def test_sum2_roughly_uniform(self):
        p = random_program(4000, combiner="SUM2", seed=3)
        flat = [b for pair in p.bit_tuples() for b in pair]
        ones = sum(flat)
        assert 3700 < ones < 4300

    def test_three_channel(self):
        p = random_program(10, combiner="SUM3", seed=4)
        assert p.n_channels == 3


class TestProgramCsv:
    def test_round_trip(self, tmp_path):
        p = random_program(17, combiner="SUM2", seed=9)
        path = tmp_path / "program.csv"
        p.write_csv(path)
        q = read_program_csv(path)
        assert q.channels == p.channels

    def test_header_and_rows(self, tmp_path):
        p = LogicProgram(channels=((1, 0), (0, 1)))
        path = tmp_path / "program.csv"
        p.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "bit_index,ch1,ch2"
        assert lines[1] == "0,1,0"
        assert lines[2] == "1,0,1"

    def test_three_channel_round_trip(self, tmp_path):
        p = random_program(5, combiner="SUM3", seed=11)
        path = tmp_path / "p3.csv"
        p.write_csv(path)
        q = read_program_csv(path, combiner="SUM3")
        assert q.channels == p.channels

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1\n0,1\n")
        with pytest.raises(ConfigError):
            read_program_csv(path)
