import itertools
from fractions import Fraction

import numpy as np
import pytest

from vlclink import codes
from vlclink.codes import (FramingError, NO_PUNCTURE, PuncturePattern,
                           RATE_23_PUNCTURE, apply_puncture, insert_erasures)


@pytest.fixture(scope="module")
def cc():
    return codes.build_outer_cc()


@pytest.fixture(scope="module")
def sp():
    return codes.build_split_phase()


@pytest.fixture(scope="module")
def bmc():
    return codes.build_bmc()


@pytest.fixture(scope="module")
def lut():
    return codes.build_4b6b()


@pytest.mark.parametrize("builder", [
    codes.build_outer_cc, codes.build_split_phase, codes.build_bmc,
    codes.build_manchester, codes.build_4b6b])
def test_builders_share_one_read_only_spec(builder):
    spec = builder()
    assert builder() is spec
    arrays = ([spec.table] if isinstance(spec, codes.LutCodeSpec)
              else [spec.next_state, spec.output_bits])
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_spec_copies_its_arrays():
    ns = np.array([[0, 1], [1, 0]])
    spec = codes.TrellisSpec(name="t", num_states=2, outputs_per_step=1,
                             next_state=ns, output_bits=ns[..., None])
    ns[0, 0] = 1
    assert spec.next_state[0, 0] == 0 and ns.flags.writeable


def encode_manchester(v):
    return codes.encode_lut(codes.build_manchester(), v)


class TestOuterCC:

    def test_structure(self, cc):
        assert cc.num_states == 4
        assert cc.next_state.shape == (4, 2)     # one input bit per step
        assert cc.outputs_per_step == 2
        assert cc.termination == "tail-to-zero"

    def test_zero_input(self, cc):
        out = codes.encode(cc, np.zeros(8, dtype=int))
        assert out.shape == (20,)   # 16 code bits + 4 termination bits
        assert not out.any()

    def test_systematic_and_impulse_response(self, cc):
        u = np.zeros(8, dtype=int)
        u[0] = 1
        out = codes.encode(cc, u).reshape(-1, 2)
        # hand-traced: fb=u+s1+s2, parity=fb+s2, state=(fb,s1)
        sys_expected = [1, 0, 0, 0, 0, 0, 0, 0]
        parity_expected = [1, 1, 1, 0, 1, 1, 0, 1]
        assert out[:8, 0].tolist() == sys_expected
        assert out[:8, 1].tolist() == parity_expected

    def test_tail_terminates(self, cc):
        rng = np.random.default_rng(0)
        tails = cc.tail_table()
        for s0 in range(4):
            s = s0
            for a in tails[s0]:
                s = cc.next_state[s, a]
            assert s == 0

    def test_linearity(self, cc):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 2, 16)
        b = rng.integers(0, 2, 16)
        ca, cb = codes.encode(cc, a), codes.encode(cc, b)
        cab = codes.encode(cc, a ^ b)
        assert ((ca ^ cb) == cab).all()


class TestSplitPhase:

    def test_hand_trace(self, sp):
        out = codes.encode(sp, np.array([1, 0, 1]))
        assert out.tolist() == [1, 0, 1, 0, 0, 1]

    def test_all_zeros_repeats_01(self, sp):
        out = codes.encode(sp, np.zeros(5, dtype=int))
        assert out.tolist() == [0, 1] * 5

    def test_per_pair_balance(self, sp):
        rng = np.random.default_rng(2)
        v = rng.integers(0, 2, 1000)
        out = codes.encode(sp, v).reshape(-1, 2)
        assert (out.sum(axis=1) == 1).all()

    def test_differential_property(self, sp):
        """Flipping one input bit flips all subsequent output pairs."""
        rng = np.random.default_rng(3)
        v = rng.integers(0, 2, 20)
        w = v.copy()
        w[7] ^= 1
        a = codes.encode(sp, v).reshape(-1, 2)
        b = codes.encode(sp, w).reshape(-1, 2)
        assert (a[:7] == b[:7]).all()
        assert (a[7:] != b[7:]).all()


class TestBmc:

    def test_hand_trace(self, bmc):
        assert codes.encode(bmc, np.array([0])).tolist() == [1, 1]
        assert codes.encode(bmc, np.array([1])).tolist() == [1, 0]
        assert bmc.next_state[0, 0] == 1
        assert bmc.next_state[0, 1] == 0

    def test_run_length_random_stream(self, bmc):
        rng = np.random.default_rng(4)
        v = rng.integers(0, 2, 10 ** 6)
        out = codes.encode(bmc, v)
        assert _max_run(out) <= 2


class TestManchester:

    def test_map(self):
        out = encode_manchester(np.array([0, 1, 1]))
        assert out.tolist() == [0, 1, 1, 0, 1, 0]

    def test_empty(self):
        assert encode_manchester(np.zeros(0, dtype=int)).size == 0

    def test_exact_balance(self):
        rng = np.random.default_rng(5)
        v = rng.integers(0, 2, 9999)
        out = encode_manchester(v)
        assert out.mean() == 0.5


class TestLut4b6b:

    def test_rate(self, lut):
        out = codes.encode_lut(lut, np.zeros(8, dtype=int))
        assert out.shape == (12,)

    def test_exact_balance(self, lut):
        rng = np.random.default_rng(6)
        v = rng.integers(0, 2, 4 * 500)
        out = codes.encode_lut(lut, v)
        assert out.mean() == 0.5

    def test_run_length_random_stream(self, lut):
        rng = np.random.default_rng(7)
        v = rng.integers(0, 2, 10 ** 6)
        out = codes.encode_lut(lut, v)
        assert _max_run(out) <= 4

    def test_framing_error(self, lut):
        with pytest.raises(FramingError):
            codes.encode_lut(lut, np.zeros(6, dtype=int))

    def test_table_validation_rejects_unbalanced(self):
        bad = codes.build_4b6b().table.copy()
        bad[0] = [1, 1, 1, 1, 0, 0]
        bad[0, 5] = 1   # weight 4
        with pytest.raises(ValueError):
            codes.LutCodeSpec(name="bad", input_width=4, output_width=6,
                              table=bad)


def _max_run(bits):
    bits = np.asarray(bits)
    change = np.flatnonzero(np.diff(bits)) + 1
    edges = np.concatenate([[0], change, [bits.size]])
    return int(np.diff(edges).max())


@pytest.mark.parametrize("builder,bound", [
    (lambda v: codes.encode(codes.build_split_phase(), v), 2),
    (lambda v: codes.encode(codes.build_bmc(), v), 2),
    (encode_manchester, 2),
])
def test_run_length_exhaustive_short_inputs(builder, bound):
    for n in range(1, 13):
        for bits in itertools.product([0, 1], repeat=n):
            assert _max_run(builder(np.array(bits))) <= bound


def test_run_length_exhaustive_4b6b():
    lut = codes.build_4b6b()
    for n in (4, 8, 12):
        for idx in range(1 << n):
            bits = (idx >> np.arange(n - 1, -1, -1)) & 1
            assert _max_run(codes.encode_lut(lut, bits)) <= 4


def test_rate_identity_no_fractional_frames():
    sp = codes.build_split_phase()
    rng = np.random.default_rng(8)
    for n in (1, 7, 64):
        v = rng.integers(0, 2, n)
        assert codes.encode(sp, v).size == 2 * n
        assert encode_manchester(v).size == 2 * n


def test_encoders_deterministic():
    rng = np.random.default_rng(9)
    v = rng.integers(0, 2, 64)
    for tr in (codes.build_split_phase(), codes.build_bmc(),
               codes.build_outer_cc()):
        assert (codes.encode(tr, v) == codes.encode(tr, v)).all()


@pytest.mark.parametrize("bits", [[-1, 0], [0, 2], [0.5, 0], [1, np.nan]])
def test_trellis_encoder_rejects_non_bits(bits):
    for tr in (codes.build_split_phase(), codes.build_bmc(),
               codes.build_outer_cc()):
        with pytest.raises(ValueError, match="bits 0 and 1"):
            codes.encode(tr, bits)


@pytest.mark.parametrize("bits", [[0, 0, 1, 2], [0, 0, 0, -1],
                                  [0, 0, 0, 0.5], [1, 0, 1, np.inf]])
def test_lut_encoder_rejects_non_bits(bits):
    for spec in (codes.build_4b6b(), codes.build_manchester()):
        with pytest.raises(ValueError, match="bits 0 and 1"):
            codes.encode_lut(spec, bits)


def test_encoders_accept_bits_of_any_dtype():
    v = np.array([1, 0, 0, 1, 1, 1, 0, 0])
    for x in (v.astype(bool), v.astype(np.uint8), v.astype(np.float64)):
        assert (codes.encode(codes.build_split_phase(), x)
                == codes.encode(codes.build_split_phase(), v)).all()
        assert (codes.encode_lut(codes.build_4b6b(), x)
                == codes.encode_lut(codes.build_4b6b(), v)).all()


def encode_per_step(spec, bits, tail=True):
    """The trellis encoder one step at a time from state 0, one block per
    row, with the tail steps of a tail-to-zero code unless `tail` is
    False: labels (B, n_total * outputs_per_step) and the states each
    block ends in before its tail."""
    rows, ends = [], []
    for row in np.atleast_2d(bits):
        s, labels = 0, []
        for a in row:
            labels.extend(spec.output_bits[s, a])
            s = spec.next_state[s, a]
        ends.append(s)
        if tail and spec.termination == "tail-to-zero":
            for a in spec.tail_table()[s]:
                labels.extend(spec.output_bits[s, a])
                s = spec.next_state[s, a]
        rows.append(labels)
    return np.array(rows, dtype=np.uint8), np.array(ends)


TRELLIS_BUILDERS = [codes.build_outer_cc, codes.build_split_phase,
                    codes.build_bmc]


class TestChunkedEncoder:
    """codes.encode runs the encoder as a scan in chunks (codes._run); it
    must give the per-step encoder's labels bit for bit."""

    @pytest.mark.parametrize("builder", TRELLIS_BUILDERS)
    def test_any_chunk_matches_per_step(self, builder):
        # chunk 1, chunks that leave a remainder, chunk = n and chunk > n
        spec = builder()
        rng = np.random.default_rng(40)
        for n in (1, 2, 7, 16, 17, 50):
            bits = rng.integers(0, 2, (3, n))
            want, want_ends = encode_per_step(spec, bits, tail=False)
            for chunk in (1, 3, 4, 7, n, n + 5):
                out, ends = codes._run(spec, bits, chunk)
                np.testing.assert_array_equal(out.reshape(3, -1), want)
                np.testing.assert_array_equal(ends, want_ends)

    @pytest.mark.parametrize("builder", TRELLIS_BUILDERS)
    @pytest.mark.parametrize("shape", [(103,), (1, 1000), (5, 400), (8, 257),
                                       (64, 37), (3, 1), (2, 0)])
    def test_encode_matches_per_step(self, builder, shape):
        """1-D input, long blocks whose length the chunk does not divide,
        a wide, short batch (one chunk), one step and none; the outer
        code adds its tail."""
        spec = builder()
        bits = np.random.default_rng(41).integers(0, 2, shape)
        want, _ = encode_per_step(spec, bits)
        got = codes.encode(spec, bits)
        assert got.shape == (want[0].shape if len(shape) == 1
                             else want.shape)
        np.testing.assert_array_equal(np.atleast_2d(got), want)


class TestPuncture:

    def test_matrix_semantics(self):
        c = np.array([10, 20, 30, 40])   # [s1, p1, s2, p2]
        # systematic bits always survive; every second parity bit is dropped
        assert apply_puncture(c, RATE_23_PUNCTURE).tolist() == [10, 20, 30]

    def test_all_ones_identity(self):
        c = np.arange(8)
        x = np.random.default_rng(11).normal(size=8)
        for pat in (PuncturePattern(keep=np.ones((2, 2), dtype=bool)),
                    NO_PUNCTURE):
            assert (apply_puncture(c, pat) == c).all()
            assert (insert_erasures(x, pat, 8) == x).all()
            # the mother code's rate 1/2 is kept
            assert Fraction(pat.period, pat.kept_per_period) \
                == Fraction(1, 2)

    def test_insert_erasures_inverse(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=16)
        kept = apply_puncture(x, RATE_23_PUNCTURE)
        back = insert_erasures(kept, RATE_23_PUNCTURE, 16)
        mask = RATE_23_PUNCTURE.mask(16)
        assert (back[mask] == x[mask]).all()
        assert (back[~mask] == 0).all()

    def test_rate(self):
        assert RATE_23_PUNCTURE.kept_per_period == 3
        # 2 input bits per period over 3 kept bits -> rate 2/3
        assert RATE_23_PUNCTURE.period / RATE_23_PUNCTURE.kept_per_period \
            == pytest.approx(2 / 3)

    def test_length_mismatch(self):
        with pytest.raises(FramingError):
            apply_puncture(np.zeros(6), RATE_23_PUNCTURE)
        with pytest.raises(FramingError):
            insert_erasures(np.zeros(4), RATE_23_PUNCTURE, 8)

    def test_empty_column_rejected(self):
        with pytest.raises(ValueError):
            PuncturePattern(keep=np.array([[True, False], [True, False]]))
