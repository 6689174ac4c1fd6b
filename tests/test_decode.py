"""Oracle truth tables, latch threading, and bit decoding."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlclogic import (
    ArityMismatchError,
    ConfigError,
    DecodeRule,
    DecodeSettings,
    EmptySegmentError,
    ForbiddenInputError,
    GATES,
    INDETERMINATE,
    Indicator,
    decode_bit,
    gate_spec,
    oracle,
    score_residences,
)
from mlclogic.decode import expected_outputs

PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1)]
TRIPLES = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
SR_SYMBOLS = [(0, 0), (0, 1), (1, 0)]


class TestTruthTables:
    def test_two_input_gates(self):
        expected = {
            "OR": [0, 1, 1, 1],
            "NOR": [1, 0, 0, 0],
            "AND": [0, 0, 0, 1],
            "NAND": [1, 1, 1, 0],
            "XOR": [0, 1, 1, 0],
            "XNOR": [1, 0, 0, 1],
        }
        for kind, outs in expected.items():
            assert [oracle(kind, b) for b in PAIRS] == outs, kind

    def test_three_input_gates(self):
        for bits in TRIPLES:
            assert oracle("OR3", bits) == (1 if any(bits) else 0)
            assert oracle("AND3", bits) == (1 if all(bits) else 0)

    def test_arity_enforced(self):
        with pytest.raises(ArityMismatchError):
            oracle("OR", (1, 0, 1))
        with pytest.raises(ArityMismatchError):
            oracle("OR3", (1, 0))
        with pytest.raises(ArityMismatchError):
            oracle("SR_HIGH", (1,))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            oracle("NOPE", (0, 1))

    def test_registry_truth_by_count_of_ones(self):
        # the latch alone has no table: its output threads its state
        for spec in GATES.values():
            assert (spec.truth is None) == (spec.combiner == "DIFF2")
            if spec.truth is None:
                continue
            assert len(spec.truth) == spec.n_inputs + 1, spec.kind
            for bits in itertools.product((0, 1), repeat=spec.n_inputs):
                assert oracle(spec.kind, bits) == spec.truth[sum(bits)]


class TestOracleAlgebra:
    """Complement and composition identities across the registry."""

    def test_complement_pairs(self):
        for b in PAIRS:
            assert oracle("NOR", b) == 1 - oracle("OR", b)
            assert oracle("NAND", b) == 1 - oracle("AND", b)
            assert oracle("XNOR", b) == 1 - oracle("XOR", b)

    def test_xor_composition(self):
        for b in PAIRS:
            assert oracle("XOR", b) == (
                oracle("OR", b) & oracle("NAND", b)
            )

    def test_de_morgan(self):
        for b in PAIRS:
            assert oracle("NOR", b) == (
                (1 - b[0]) & (1 - b[1])
            )
            assert oracle("NAND", b) == (
                (1 - b[0]) | (1 - b[1])
            )

    def test_three_input_folds(self):
        for bits in TRIPLES:
            assert oracle("OR3", bits) == oracle(
                "OR", (oracle("OR", bits[:2]), bits[2])
            )
            assert oracle("AND3", bits) == oracle(
                "AND", (oracle("AND", bits[:2]), bits[2])
            )


class TestLatchOracle:
    def test_set_and_reset(self):
        assert oracle("SR_HIGH", (1, 0)) == 1
        assert oracle("SR_HIGH", (0, 1)) == 0
        assert oracle("SR_LOW", (1, 0)) == 0
        assert oracle("SR_LOW", (0, 1)) == 1

    def test_hold_threads_previous_output(self):
        assert oracle("SR_HIGH", (0, 0), prev_q=1) == 1
        assert oracle("SR_HIGH", (0, 0), prev_q=0) == 0
        assert oracle("SR_LOW", (0, 0), prev_q=1) == 1
        assert oracle("SR_LOW", (0, 0), prev_q=0) == 0

    def test_hold_needs_previous(self):
        with pytest.raises(ConfigError):
            oracle("SR_HIGH", (0, 0))

    def test_forbidden_pair(self):
        with pytest.raises(ForbiddenInputError):
            oracle("SR_HIGH", (1, 1))
        with pytest.raises(ForbiddenInputError):
            oracle("SR_LOW", (1, 1), prev_q=0)

    def test_low_is_complement_of_high(self):
        for bits in SR_SYMBOLS:
            for prev in (0, 1):
                high = oracle("SR_HIGH", bits, prev_q=prev)
                low = oracle("SR_LOW", bits, prev_q=1 - prev)
                assert low == 1 - high

    @given(
        seq=st.lists(st.sampled_from(SR_SYMBOLS), min_size=1, max_size=30),
        q0=st.integers(min_value=0, max_value=1),
    )
    @settings(max_examples=200)
    def test_hold_chain_property(self, seq, q0):
        # threading the oracle equals a reference fold of latch semantics
        q = q0
        for bits in seq:
            out = oracle("SR_HIGH", bits, prev_q=q)
            if bits == (1, 0):
                q = 1
            elif bits == (0, 1):
                q = 0
            assert out == q

    def test_hold_chain_exhaustive_short(self):
        # all input words of length 3 over the allowed symbols
        for s0 in SR_SYMBOLS:
            for s1 in SR_SYMBOLS:
                for s2 in SR_SYMBOLS:
                    q = 1
                    for bits in (s0, s1, s2):
                        out = oracle("SR_HIGH", bits, prev_q=q)
                        ref = (
                            1
                            if bits == (1, 0)
                            else 0 if bits == (0, 1) else q
                        )
                        assert out == ref
                        q = out


class TestExpectedOutputs:
    def test_stateless_gate(self):
        outs = expected_outputs("OR", [(0, 0), (1, 0), (1, 1)])
        assert outs == [0, 1, 1]

    def test_latch_anchored_at_first_decoded_bit(self):
        seq = [(0, 0), (1, 0), (0, 0), (0, 1), (0, 0)]
        outs = expected_outputs("SR_HIGH", seq, first_decoded=1)
        assert outs == [1, 1, 1, 0, 0]
        outs = expected_outputs("SR_HIGH", seq, first_decoded=0)
        assert outs == [0, 1, 1, 0, 0]

    def test_latch_leading_hold_unverifiable_without_anchor(self):
        outs = expected_outputs("SR_HIGH", [(0, 0), (1, 0)], first_decoded=None)
        assert outs == [None, 1]

    def test_forbidden_pair_breaks_thread(self):
        seq = [(1, 0), (1, 1), (0, 0), (0, 1)]
        outs = expected_outputs("SR_HIGH", seq)
        assert outs == [1, None, None, 0]

    @given(
        seq=st.lists(st.sampled_from(PAIRS), max_size=8),
        anchor=st.sampled_from([None, 0, 1]),
    )
    def test_latch_outputs_fold_and_complement(self, seq, anchor):
        def flip(q):
            return None if q is None else 1 - q

        low = expected_outputs("SR_LOW", seq, anchor)
        high = expected_outputs("SR_HIGH", seq, flip(anchor))
        assert low == [flip(q) for q in high]
        # set gives 1, reset 0, hold keeps q, a forbidden pair loses it
        q, ref = anchor, []
        for pair in seq:
            q = {(1, 0): 1, (0, 1): 0, (0, 0): q, (1, 1): None}[pair]
            ref.append(q)
        assert expected_outputs("SR_HIGH", seq, anchor) == ref


class TestDecodeRule:
    def test_sign_rules(self):
        pos = DecodeRule("SIGN_POS")
        neg = DecodeRule("SIGN_NEG")
        v = np.array([-1.0, -0.1, 0.0, 0.1, 1.0])
        assert list(pos.holds(v)) == [False, False, False, True, True]
        assert list(neg.holds(v)) == [True, True, False, False, False]

    def test_band_rules(self):
        band = DecodeRule("BAND", -1.5, 1.5)
        comp = DecodeRule("BAND_COMPLEMENT", -1.5, 1.5)
        v = np.array([-2.0, -1.5, 0.0, 1.5, 2.0])
        assert list(band.holds(v)) == [False, True, True, True, False]
        assert list(comp.holds(v)) == [True, False, False, False, True]

    def test_band_needs_ordered_limits(self):
        with pytest.raises(ConfigError):
            DecodeRule("BAND", 1.0, -1.0)
        with pytest.raises(ConfigError):
            DecodeRule("BAND", None, 1.0)

    @given(
        v=st.floats(min_value=-10, max_value=10, allow_nan=False),
        lo=st.floats(min_value=-5, max_value=0),
        hi=st.floats(min_value=0.1, max_value=5),
    )
    def test_band_and_complement_partition(self, v, lo, hi):
        band = DecodeRule("BAND", lo, hi)
        comp = DecodeRule("BAND_COMPLEMENT", lo, hi)
        assert bool(band.holds(v)) != bool(comp.holds(v))


class TestDecodeBit:
    def test_clean_one(self):
        v = np.concatenate([np.full(50, -1.0), np.full(50, 1.0)])
        decoded, res = decode_bit(v, DecodeRule("SIGN_POS"))
        assert decoded == 1
        assert res == 1.0

    def test_clean_zero(self):
        v = np.full(100, -1.0)
        decoded, res = decode_bit(v, DecodeRule("SIGN_POS"))
        assert decoded == 0
        assert res == 0.0

    def test_indeterminate(self):
        v = np.concatenate([np.full(30, 1.0), np.full(30, -1.0)])
        decoded, res = decode_bit(
            v, DecodeRule("SIGN_POS"), DecodeSettings(settle_fraction=0.0)
        )
        assert decoded is INDETERMINATE
        assert res == pytest.approx(0.5)

    def test_settle_trimming(self):
        # first half wrong, second half right: settle hides the start
        v = np.concatenate([np.full(50, -1.0), np.full(50, 1.0)])
        decoded, _ = decode_bit(
            v, DecodeRule("SIGN_POS"), DecodeSettings(settle_fraction=0.5)
        )
        assert decoded == 1
        decoded, _ = decode_bit(
            v, DecodeRule("SIGN_POS"), DecodeSettings(settle_fraction=0.0)
        )
        assert decoded is INDETERMINATE

    def test_threshold_boundary(self):
        v = np.concatenate([np.full(90, 1.0), np.full(10, -1.0)])
        s = DecodeSettings(settle_fraction=0.0, agreement_threshold=0.9)
        decoded, res = decode_bit(v, DecodeRule("SIGN_POS"), s)
        assert res == pytest.approx(0.9)
        assert decoded == 1  # residence >= threshold counts

    def test_empty_segment(self):
        with pytest.raises(EmptySegmentError):
            decode_bit(np.array([]), DecodeRule("SIGN_POS"))

    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100)
    def test_residence_counts_samples(self, data, n):
        signs = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        v = np.array([1.0 if s else -1.0 for s in signs])
        s = DecodeSettings(settle_fraction=0.0)
        _, res = decode_bit(v, DecodeRule("SIGN_POS"), s)
        assert res == pytest.approx(sum(signs) / n)


class TestScoreResidences:
    def test_all_match(self):
        gate = gate_spec("OR")
        bits = [(0, 0), (1, 0), (1, 1)]
        out = score_residences(gate, bits, [0.02, 0.98, 1.0])
        assert out.success
        assert [b.decoded for b in out.bits] == [0, 1, 1]
        assert [b.expected for b in out.bits] == [0, 1, 1]

    def test_single_miss_fails_trial(self):
        gate = gate_spec("OR")
        bits = [(0, 0), (1, 0), (1, 1)]
        out = score_residences(gate, bits, [0.02, 0.3, 1.0])
        assert not out.success
        assert out.bits[1].decoded is INDETERMINATE
        assert not out.bits[1].match

    def test_wrong_well_fails(self):
        gate = gate_spec("OR")
        out = score_residences(gate, [(1, 0)], [0.01])
        assert not out.success
        assert out.bits[0].decoded == 0

    def test_latch_threading(self):
        gate = gate_spec("SR_HIGH")
        bits = [(1, 0), (0, 0), (0, 1), (0, 0)]
        out = score_residences(gate, bits, [0.99, 0.99, 0.01, 0.01])
        assert out.success
        assert [b.expected for b in out.bits] == [1, 1, 0, 0]

    def test_latch_anchor_from_leading_hold(self):
        gate = gate_spec("SR_HIGH")
        bits = [(0, 0), (0, 0), (1, 0)]
        out = score_residences(gate, bits, [0.99, 0.99, 0.99])
        assert out.success
        out = score_residences(gate, bits, [0.01, 0.01, 0.99])
        assert out.success  # latched low initially is equally valid

    def test_latch_inconsistent_hold_fails(self):
        gate = gate_spec("SR_HIGH")
        bits = [(1, 0), (0, 0)]
        out = score_residences(gate, bits, [0.99, 0.01])
        assert not out.success

    def test_forbidden_pair_flagged(self):
        gate = gate_spec("SR_HIGH")
        bits = [(1, 0), (1, 1), (1, 0)]
        out = score_residences(gate, bits, [0.99, 0.99, 0.99])
        assert not out.success
        assert out.bits[1].forbidden
        assert not out.bits[1].match
        assert out.bits[2].match

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            score_residences(gate_spec("OR"), [(0, 0)], [0.5, 0.5])


class TestIndicator:
    def test_gate_indicator_is_a_value(self):
        rng = np.random.default_rng(5)
        x1, x2 = rng.normal(0.0, 2.0, size=(2, 200))
        for spec in GATES.values():
            ind = spec.indicator()
            assert ind == spec.indicator()
            assert hash(ind) == hash(spec.indicator())
            assert (ind.var, ind.rule) == (spec.decode_var, spec.rule)
            values = x1 if spec.decode_var == "x1" else x2
            assert np.array_equal(ind(x1, x2), spec.rule.holds(values))

    def test_unknown_variable(self):
        with pytest.raises(ConfigError):
            Indicator("x3", DecodeRule("SIGN_POS"))


class TestRegistry:
    def test_known_gates(self):
        assert set(GATES) == {
            "OR",
            "NOR",
            "AND",
            "NAND",
            "XOR",
            "XNOR",
            "OR3",
            "AND3",
            "SR_HIGH",
            "SR_LOW",
        }

    def test_lookup_case_insensitive(self):
        assert gate_spec("or").kind == "OR"
        assert gate_spec("Xor").kind == "XOR"

    def test_unknown_gate(self):
        with pytest.raises(ConfigError):
            gate_spec("XAND")

    def test_complement_gates_share_operating_point(self):
        for a, b in (("OR", "NOR"), ("AND", "NAND"), ("XOR", "XNOR")):
            ga, gb = gate_spec(a), gate_spec(b)
            assert ga.bias == gb.bias
            assert ga.f == gb.f
            assert ga.decode_var == "x1"
            assert gb.decode_var == "x2"

    def test_mirror_gates_have_opposite_bias(self):
        assert gate_spec("AND").bias == -gate_spec("OR").bias
        assert gate_spec("AND3").bias == -gate_spec("OR3").bias

    def test_latch_operates_unbiased(self):
        assert gate_spec("SR_HIGH").bias == 0.0
        assert gate_spec("SR_HIGH").combiner == "DIFF2"
        assert gate_spec("SR_LOW").combiner == "DIFF2"

    def test_three_input_arity(self):
        assert gate_spec("OR3").n_inputs == 3
        assert gate_spec("OR").n_inputs == 2
