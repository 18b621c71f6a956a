import itertools

import numpy as np
import pytest

from vlclink import exitchart, pipeline, siso
from vlclink.channel import ebn0_to_sigma2
from vlclink.pipeline import (SCHEMES, make_chain, make_interleaver, receive,
                              transmit)


class TestInterleaver:

    def test_roundtrip(self):
        il = make_interleaver(1000, seed=4)
        x = np.random.default_rng(0).normal(size=1000)
        np.testing.assert_array_equal(il.invert(il.apply(x)), x)

    def test_deterministic(self):
        a = make_interleaver(512, seed=9)
        b = make_interleaver(512, seed=9)
        np.testing.assert_array_equal(a.perm, b.perm)

    def test_full_scale_length(self):
        il = make_interleaver(32768, seed=1)
        assert np.sort(il.perm).tolist() == list(range(32768))


def full_size_chains():
    """The four overall-rate-1/3 schemes at full operating size, plus the
    rate-1/4 60%-dimming scheme with its 512-bit message."""
    sizes = {"cc-4b6b": 16382, "cc-manchester": 21844, "cc-bmc": 21844,
             "cc-split-phase": 21844, "cc-split-phase-dim60": 512}
    return {s: make_chain(s, k=k, iterations=100) for s, k in sizes.items()}


class TestChainConfig:

    def test_builtin_rates(self):
        cfgs = full_size_chains()
        assert set(cfgs) == set(SCHEMES)
        assert float(cfgs["cc-split-phase"].ideal_rate) == pytest.approx(1/3)
        assert float(cfgs["cc-4b6b"].ideal_rate) == pytest.approx(1/3)
        assert float(cfgs["cc-bmc"].ideal_rate) == pytest.approx(1/3)
        assert float(cfgs["cc-manchester"].ideal_rate) == pytest.approx(1/3)
        assert float(cfgs["cc-split-phase-dim60"].ideal_rate) \
            == pytest.approx(1/4)

    def test_4b6b_inner_rate(self):
        code = pipeline.INNER_CODES["4b6b"]
        assert code.rate == pytest.approx(2/3)
        assert code.encode(np.zeros((1, 8), np.uint8)).shape == (1, 12)

    def test_builtin_operating_sizes(self):
        cfgs = full_size_chains()
        assert abs(cfgs["cc-split-phase"].n - 32768) <= 4
        assert cfgs["cc-4b6b"].n == 32768
        assert cfgs["cc-split-phase-dim60"].k_user == 512
        assert cfgs["cc-split-phase-dim60"].d == 0.6

    def test_stage_length_identity(self):
        """Lengths obey the outer/inner/dimming rate product exactly."""
        for scheme in SCHEMES:
            cfg = make_chain(scheme, k=120)
            assert cfg.n == round(cfg.n_steps / float(cfg.outer_rate))
            assert cfg.n_line == round(cfg.n_steps / float(cfg.ideal_rate))
            assert cfg.dim.frame_len == cfg.n_line  # dimming keeps length

    def test_d60_frame_budget(self):
        cfg = make_chain("cc-split-phase-dim60", k=512)
        # 512 info + 2 tail -> 1028 coded -> 2056 transmitted symbols
        assert cfg.n_line == 2056

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            make_chain("cc-8b10b", k=64)

    @pytest.mark.parametrize("k, iterations", [(0, 30), (-5, 30), (64, 0),
                                               (64, -1)])
    def test_counts_below_one_rejected(self, k, iterations):
        with pytest.raises(ValueError, match="must be >= 1"):
            make_chain("cc-split-phase", k=k, iterations=iterations)

    def test_padding_is_minimal(self):
        """k_pad is the smallest k' >= k that frames, by rules written out
        here: the rate-1/2 memory-2 outer code adds 2 tail steps; the
        rate-2/3 puncture has period 2 and keeps 3 of every 4 code bits;
        4B6B maps 4 interleaver bits to 6 line bits, the other inner codes
        1 bit to 2; the line frame is even (whole pairs for dimming)."""
        punctured = {"cc-4b6b": False, "cc-split-phase-dim60": False}
        symbol = {"cc-4b6b": (4, 6)}        # (input bits, line bits)

        def frames(scheme, k_pad):
            steps = k_pad + 2
            if punctured.get(scheme, True):
                if steps % 2:
                    return False
                n = 3 * steps // 2
            else:
                n = 2 * steps
            q_in, q_out = symbol.get(scheme, (1, 2))
            return n % q_in == 0 and n // q_in * q_out % 2 == 0

        for scheme in SCHEMES:
            for k in range(1, 201):
                want = next(kp for kp in itertools.count(k)
                            if frames(scheme, kp))
                assert make_chain(scheme, k).k_pad == want, (scheme, k)


class TestTransmitReceive:

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_noiseless_roundtrip(self, scheme):
        cfg = make_chain(scheme, k=96, iterations=4)
        rng = np.random.default_rng(21)
        u = rng.integers(0, 2, (3, 96)).astype(np.uint8)
        y = transmit(u, cfg, 1e-4, rng)
        u_hat, trace = receive(y, cfg, 1e-4, true_u=u)
        assert (u_hat == u).all()

    def test_noiseless_single_iteration(self):
        cfg = make_chain("cc-split-phase", k=96, iterations=1,
                         genie_stopping=False)
        rng = np.random.default_rng(22)
        u = rng.integers(0, 2, (1, 96)).astype(np.uint8)
        y = transmit(u, cfg, 1e-4, rng)
        u_hat, _ = receive(y, cfg, 1e-4, true_u=u)
        assert (u_hat == u).all()

    def test_determinism(self):
        cfg = make_chain("cc-split-phase", k=200, iterations=5)
        s2 = ebn0_to_sigma2(5.0, 1 / 3, 0.5)
        u = np.random.default_rng(23).integers(0, 2, (2, 200)).astype(np.uint8)
        y = transmit(u, cfg, s2, np.random.default_rng(99))
        a, ta = receive(y, cfg, s2, true_u=u)
        b, tb = receive(y, cfg, s2, true_u=u)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(ta.iterations, tb.iterations)

    def test_manchester_no_iterative_gain(self):
        """Memoryless inner code: iteration 10 equals iteration 1."""
        cfg = make_chain("cc-manchester", k=400, iterations=10,
                         genie_stopping=False)
        s2 = ebn0_to_sigma2(6.0, 1 / 3, 0.5)
        rng = np.random.default_rng(24)
        u = rng.integers(0, 2, (6, 400)).astype(np.uint8)
        y = transmit(u, cfg, s2, rng)
        _, trace = receive(y, cfg, s2, true_u=u)
        np.testing.assert_array_equal(trace.ber[0], trace.ber[-1])

    def test_genie_stopping_neutral(self):
        cfg_on = make_chain("cc-split-phase", k=300, iterations=12,
                            genie_stopping=True)
        cfg_off = make_chain("cc-split-phase", k=300, iterations=12,
                             genie_stopping=False)
        s2 = ebn0_to_sigma2(6.0, 1 / 3, 0.5)
        rng = np.random.default_rng(25)
        u = rng.integers(0, 2, (8, 300)).astype(np.uint8)
        y = transmit(u, cfg_on, s2, rng)
        a, tr_on = receive(y, cfg_on, s2, true_u=u)
        b, tr_off = receive(y, cfg_off, s2, true_u=u)
        np.testing.assert_array_equal(a, b)
        assert tr_on.iterations.mean() < tr_off.iterations.mean()

    def test_trace_improves_above_threshold(self):
        """Iterations help: above threshold nearly every block ends at (and
        never goes below then leaves) its trace minimum.  Strict per-
        iteration monotonicity does not hold mid-waterfall."""
        cfg = make_chain("cc-split-phase", k=2000, iterations=12,
                         genie_stopping=False)
        s2 = ebn0_to_sigma2(6.0, 1 / 3, 0.5)
        rng = np.random.default_rng(26)
        u = rng.integers(0, 2, (20, 2000)).astype(np.uint8)
        y = transmit(u, cfg, s2, rng)
        _, trace = receive(y, cfg, s2, true_u=u)
        final_is_min = trace.ber[-1] <= trace.ber.min(axis=0) + 1e-12
        improved = trace.ber[-1] <= trace.ber[0]
        assert (final_is_min & improved).mean() >= 0.95

    def test_wrong_length_rejected(self):
        cfg = make_chain("cc-split-phase", k=96)
        from vlclink.codes import FramingError
        with pytest.raises(FramingError):
            receive(np.zeros((1, cfg.n_line + 2)), cfg, 1.0)
        with pytest.raises(FramingError):
            transmit(np.zeros((1, 95), dtype=np.uint8), cfg, 1.0,
                     np.random.default_rng(0))

    def test_d60_high_snr_roundtrip(self):
        cfg = make_chain("cc-split-phase-dim60", k=512, iterations=8)
        rng = np.random.default_rng(27)
        u = rng.integers(0, 2, (5, 512)).astype(np.uint8)
        y = transmit(u, cfg, 1e-3, rng)
        u_hat, _ = receive(y, cfg, 1e-3, true_u=u)
        assert (u_hat == u).all()

    def test_d60_transmitted_ones_fraction(self):
        cfg = make_chain("cc-split-phase-dim60", k=512)
        rng = np.random.default_rng(28)
        u = rng.integers(0, 2, (4, 512)).astype(np.uint8)
        tx = pipeline.encode_chain(u, cfg)["tx"]
        for row in tx:
            assert abs(row.mean() - 0.6) <= 1 / cfg.n_line


def _waterfall_batch():
    """8 split-phase blocks at 5.0 dB: six stop at iterations 2 to 7, two
    never converge in 12."""
    cfg = make_chain("cc-split-phase", k=300, iterations=12,
                     genie_stopping=True)
    s2 = ebn0_to_sigma2(5.0, 1 / 3, 0.5)
    rng = np.random.default_rng(29)
    u = rng.integers(0, 2, (8, 300)).astype(np.uint8)
    return cfg, s2, u, transmit(u, cfg, s2, rng)


class TestActiveSet:
    """Genie-stopped blocks leave the receiver's working batch."""

    def test_batch_equals_blocks_alone(self):
        cfg, s2, u, y = _waterfall_batch()
        u_hat, trace = receive(y, cfg, s2, true_u=u)
        assert len(set(trace.iterations.tolist())) >= 5
        for b in range(len(u)):
            u_b, trace_b = receive(y[b], cfg, s2, true_u=u[b])
            np.testing.assert_array_equal(u_b[0], u_hat[b])
            assert trace_b.iterations[0] == trace.iterations[b]

    def test_only_live_blocks_decoded(self, monkeypatch):
        cfg, s2, u, y = _waterfall_batch()
        widths = []
        decode = siso.bcjr_decode

        def spy(trellis, gamma):
            widths.append(gamma.shape[0])
            return decode(trellis, gamma)
        monkeypatch.setattr(siso, "bcjr_decode", spy)
        _, trace = receive(y, cfg, s2, true_u=u)
        its = trace.iterations
        assert widths == [int((its >= it).sum())
                          for it in range(1, trace.executed + 1)]
        assert widths[0] == 8 and widths[-1] < 8
        for b, n in enumerate(its):
            assert (trace.ber[n - 1:, b] == 0).all() or n == cfg.iterations
            assert (trace.ber[:n - 1, b] > 0).all()

    def test_collect_trace_with_genie_stopping(self):
        cfg, s2, u, y = _waterfall_batch()
        u_hat, trace = receive(y, cfg, s2, true_u=u, collect_trace=True)
        u_plain, plain = receive(y, cfg, s2, true_u=u)
        np.testing.assert_array_equal(u_hat, u_plain)
        np.testing.assert_array_equal(trace.iterations, plain.iterations)
        np.testing.assert_array_equal(trace.ber, plain.ber)
        for rows in (trace.mi_prior_inner, trace.mi_ext_inner,
                     trace.mi_ext_outer, trace.ber):
            assert rows.shape == (trace.executed, len(u))
            for b, n in enumerate(trace.iterations):
                # a frozen block keeps its stopping iteration's values
                assert (rows[n:, b] == rows[n - 1, b]).all()
        assert (trace.mi_ext_outer[0] > 0).all()
        with pytest.raises(ValueError, match="true_u"):
            receive(y, cfg, s2, collect_trace=True)


class TestInnerCodeDispatch:
    """Each inner code decodes through its siso function, looked up on the
    module at call time, so a wrapper installed there sees every call."""

    DECODER = {"split-phase": "bcjr_extrinsic", "bmc": "bcjr_extrinsic",
               "manchester": "map_lut", "4b6b": "map_lut"}

    def _spy(self, monkeypatch):
        called = []
        for name in set(self.DECODER.values()):
            def spy(*args, _name=name, _fn=getattr(siso, name), **kwargs):
                called.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(siso, name, spy)
        return called

    @pytest.mark.parametrize("inner", sorted(DECODER))
    def test_receive_and_inner_curve(self, monkeypatch, inner):
        called = self._spy(monkeypatch)
        cfg = make_chain(f"cc-{inner}", k=32, iterations=2)
        rng = np.random.default_rng(30)
        u = rng.integers(0, 2, (2, 32)).astype(np.uint8)
        receive(transmit(u, cfg, 0.3, rng), cfg, 0.3, true_u=u)
        assert set(called) == {self.DECODER[inner]}
        called.clear()
        exitchart.inner_curve(inner, 0.3, grid=[0.0, 0.5], samples=256)
        assert called == [self.DECODER[inner]] * 2
