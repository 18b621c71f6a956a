import numpy as np
import pytest

from vlclink import codes, siso
from vlclink.siso import (bcjr_decode, bcjr_extrinsic, clamp_llr,
                          gamma_table_llr, gamma_table_ook, map_lut)

import oracles
from oracles import gamma_llr, gamma_ook


class TestGammaOok:

    def test_direct_substitution(self):
        assert gamma_ook(1.0, [1], 0, 0.0, 0.5) == pytest.approx(1.0)
        assert gamma_ook(1.0, [0], 0, 0.0, 0.5) == pytest.approx(-1.0)

    def test_prior_term_vanishes_for_zero_input(self):
        a = gamma_ook(0.3, [1], 0, 7.5, 1.0)
        b = gamma_ook(0.3, [1], 0, -2.0, 1.0)
        assert a == b

    def test_bad_sigma2(self):
        with pytest.raises(ValueError):
            gamma_ook(1.0, [1], 0, 0.0, 0.0)

    @pytest.mark.parametrize("builder", [codes.build_split_phase,
                                         codes.build_bmc])
    def test_table_matches_scalar_metric(self, builder):
        trellis = builder()
        rng = np.random.default_rng(26)
        y = rng.normal(0.5, 1.0, (2, 10))
        prior = rng.normal(0, 3, (2, 5))
        g = gamma_table_ook(trellis, y, prior, 0.7)
        for b, l, s, a in np.ndindex(g.shape):
            want = gamma_ook(y[b, 2 * l:2 * l + 2],
                             trellis.output_bits[s, a], a, prior[b, l], 0.7)
            assert g[b, l, s, a] == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestGammaLlr:

    def test_all_zero(self):
        assert gamma_llr([1, 0], [0.0, 0.0]) == 0.0

    def test_single_label_bit(self):
        assert gamma_llr([1], [10.0]) == pytest.approx(10.0)
        assert gamma_llr([0], [10.0]) == 0.0


class TestBcjrAgainstOracle:

    @pytest.mark.parametrize("builder", [codes.build_split_phase,
                                         codes.build_bmc])
    def test_inner_codes(self, builder):
        trellis = builder()
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            sigma2 = float(rng.uniform(0.2, 2.0))
            v = rng.integers(0, 2, n)
            c = codes.encode(trellis, v)
            y = c + rng.normal(0, np.sqrt(sigma2), size=c.shape)
            prior = rng.normal(0, 2, n)
            got = bcjr_extrinsic(trellis, observations=y, prior=prior,
                                 sigma2=sigma2)[0]
            want = oracles.exhaustive_inner_extrinsic(trellis, y, prior,
                                                      sigma2)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_outer_cc_six_bit_blocks(self):
        cc = codes.build_outer_cc()
        rng = np.random.default_rng(12)
        for _ in range(10):
            k = 6
            cp = rng.normal(0, 1.5, (k + 2, 2))
            res = bcjr_decode(cc, gamma_table_llr(cc, cp[None]))
            le = res.app_output[0] - clamp_llr(cp)
            want_code, want_app = oracles.exhaustive_outer_extrinsic(cc, cp, k)
            np.testing.assert_allclose(le, want_code, atol=1e-9)
            np.testing.assert_allclose(res.app_input[0, :k], want_app,
                                       atol=1e-9)


class TestBcjrProperties:

    def test_noiseless_limit_recovers_input(self):
        sp = codes.build_split_phase()
        rng = np.random.default_rng(13)
        v = rng.integers(0, 2, 32)
        y = codes.encode(sp, v).astype(float)
        le = bcjr_extrinsic(sp, observations=y, prior=np.zeros(32),
                            sigma2=1e-6)[0]
        assert ((le > 0).astype(int) == v).all()

    def test_no_evidence_gives_zero(self):
        sp = codes.build_split_phase()
        le = bcjr_extrinsic(sp, observations=np.zeros(16),
                            prior=np.zeros(8), sigma2=0.7)[0]
        np.testing.assert_allclose(le, 0.0, atol=1e-12)

    def test_zero_length(self):
        sp = codes.build_split_phase()
        le = bcjr_extrinsic(sp, observations=np.zeros(0),
                            prior=np.zeros(0), sigma2=1.0)
        assert le.size == 0

    def test_nonfinite_rejected(self):
        sp = codes.build_split_phase()
        y = np.zeros(8)
        y[3] = np.inf
        with pytest.raises(ValueError):
            bcjr_extrinsic(sp, observations=y, prior=np.zeros(4), sigma2=1.0)
        for sigma2 in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="sigma2"):
                bcjr_extrinsic(sp, observations=np.zeros(8),
                               prior=np.zeros(4), sigma2=sigma2)
            with pytest.raises(ValueError, match="sigma2"):
                map_lut(codes.build_4b6b(), np.zeros(6), sigma2=sigma2)
            with pytest.raises(ValueError, match="sigma2"):
                map_lut(codes.build_manchester(), np.zeros(4), sigma2=sigma2)
        # fewer observations than one section: still checked
        with pytest.raises(ValueError, match="observations"):
            bcjr_extrinsic(sp, observations=None, sigma2=1.0)
        with pytest.raises(ValueError, match="lengths"):
            bcjr_extrinsic(sp, observations=np.zeros(1), sigma2=1.0)
        with pytest.raises(ValueError, match="sigma2"):
            bcjr_extrinsic(sp, observations=np.zeros(0), prior=np.zeros(0),
                           sigma2=np.nan)
        code_prior = np.zeros((1, 10, 2))
        code_prior[0, 4, 1] = np.nan
        with pytest.raises(ValueError, match="code prior"):
            gamma_table_llr(codes.build_outer_cc(), code_prior)

    def test_extrinsic_exclusion_finite_difference(self):
        """d L_E(v_l) / d L_A(v_l) is zero for trellis decoders."""
        sp = codes.build_split_phase()
        rng = np.random.default_rng(14)
        n = 10
        v = rng.integers(0, 2, n)
        c = codes.encode(sp, v)
        y = c + rng.normal(0, 0.8, size=c.shape)
        prior = rng.normal(0, 1, n)
        eps = 1e-5
        for l in (0, 4, 9):
            hi, lo = prior.copy(), prior.copy()
            hi[l] += eps
            lo[l] -= eps
            le_hi = bcjr_extrinsic(sp, observations=y, prior=hi,
                                   sigma2=0.64)[0][l]
            le_lo = bcjr_extrinsic(sp, observations=y, prior=lo,
                                   sigma2=0.64)[0][l]
            assert abs((le_hi - le_lo) / (2 * eps)) < 1e-6

    def test_path_probability_conservation(self):
        cc = codes.build_outer_cc()
        rng = np.random.default_rng(15)
        cp = rng.normal(0, 2, (1, 50, 2))
        tot = total_log_prob(
            siso.bcjr_forward_backward(cc, gamma_table_llr(cc, cp)))
        assert np.ptp(tot) < 1e-6

    def test_long_block_stability(self):
        """10^5-section block with strong LLRs stays finite and sane."""
        sp = codes.build_split_phase()
        rng = np.random.default_rng(16)
        n = 100_000
        v = rng.integers(0, 2, n)
        y = codes.encode(sp, v) + rng.normal(0, 0.5, 2 * n)
        prior = rng.normal(0, 5, n)
        le = bcjr_extrinsic(sp, observations=y, prior=prior, sigma2=0.25)
        assert np.isfinite(le).all()


def total_log_prob(ws):
    """LSE over states of the unnormalised alpha + beta, per section: the
    same for every section of a consistent decode pass."""
    return (np.logaddexp.reduce(ws.alpha + ws.beta, axis=-1)
            + ws.alpha_norm + ws.beta_norm)


def plain_forward_backward(trellis, gamma):
    """The per-section alpha/beta recursion, one section per step."""
    B, n, S, A = gamma.shape
    in_state, in_input = trellis.incoming()
    alpha = np.full((B, n + 1, S), -np.inf)
    alpha[:, 0, 0] = 0.0
    alpha_norm = np.zeros((B, n + 1))
    for l in range(n):
        cand = alpha[:, l][:, in_state] + gamma[:, l][:, in_state, in_input]
        nxt = np.logaddexp.reduce(cand, axis=-1)
        m = nxt.max(axis=-1)
        alpha[:, l + 1] = nxt - m[:, None]
        alpha_norm[:, l + 1] = alpha_norm[:, l] + m
    beta = np.zeros((B, n + 1, S))
    beta_norm = np.zeros((B, n + 1))
    if trellis.termination == "tail-to-zero":
        beta[:, n, 1:] = -np.inf
    for l in range(n - 1, -1, -1):
        cand = gamma[:, l] + beta[:, l + 1][:, trellis.next_state]
        cur = np.logaddexp.reduce(cand, axis=-1)
        m = cur.max(axis=-1)
        beta[:, l] = cur - m[:, None]
        beta_norm[:, l] = beta_norm[:, l + 1] + m
    return alpha, beta, alpha_norm, beta_norm


def chunked_decode(trellis, gamma, chunk):
    """Workspace and input/label APPs with a forced scan chunk length."""
    ws = siso._forward_backward(trellis, gamma, chunk)
    post = siso._posteriors(trellis, ws)
    app_in = siso._llr_from_partition(post, siso._input_mask(trellis))
    app_out = np.stack([
        siso._llr_from_partition(post, trellis.output_bits[:, :, j] == 1)
        for j in range(trellis.outputs_per_step)], axis=-1)
    return ws, app_in, app_out


def split_phase_gamma(rng, B, n, sigma2, prior_scale=2.0):
    sp = codes.build_split_phase()
    v = rng.integers(0, 2, (B, n))
    y = codes.encode(sp, v) + rng.normal(0, np.sqrt(sigma2), (B, 2 * n))
    return sp, gamma_table_ook(sp, y, rng.normal(0, prior_scale, (B, n)),
                               sigma2)


def outer_gamma(rng, B, n, prior_scale=1.5):
    cc = codes.build_outer_cc()
    return cc, gamma_table_llr(cc, rng.normal(0, prior_scale, (B, n, 2)))


CHUNK = 8
SCAN_LENGTHS = (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK,
                2 * CHUNK + 1, 203)


def assert_same_decode(trellis, gamma, chunk):
    """A chunked scan agrees with the one-chunk recursion to 1e-9."""
    n = gamma.shape[1]
    ws1, in1, out1 = chunked_decode(trellis, gamma, n)
    ws, app_in, app_out = chunked_decode(trellis, gamma, chunk)
    for got, want in ((ws.alpha, ws1.alpha), (ws.beta, ws1.beta)):
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        np.testing.assert_allclose(got, want, atol=1e-9)
    for got, want in ((ws.alpha_norm, ws1.alpha_norm),
                      (ws.beta_norm, ws1.beta_norm)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(app_in, in1, atol=1e-9)
    np.testing.assert_allclose(app_out, out1, atol=1e-9)


class TestChunkedScan:

    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("code", ["split-phase", "outer"])
    def test_matches_one_chunk(self, code, B):
        rng = np.random.default_rng(21)
        for n in SCAN_LENGTHS:
            trellis, gamma = (split_phase_gamma(rng, B, n, 0.4)
                              if code == "split-phase"
                              else outer_gamma(rng, B, n))
            for chunk in (1, 3, CHUNK):
                assert_same_decode(trellis, gamma, chunk)

    def test_one_chunk_is_the_plain_recursion(self):
        rng = np.random.default_rng(22)
        for trellis, gamma in (split_phase_gamma(rng, 3, 203, 0.4),
                               outer_gamma(rng, 3, 203)):
            ws = siso._forward_backward(trellis, gamma, 203)
            want = plain_forward_backward(trellis, gamma)
            for got, w in zip((ws.alpha, ws.beta, ws.alpha_norm,
                               ws.beta_norm), want):
                np.testing.assert_array_equal(got, w)

    def test_clamped_priors(self):
        """Priors beyond +-50; chunk 1 is shorter than the outer code's
        memory, so its transfers keep -inf entries."""
        rng = np.random.default_rng(23)
        sp = codes.build_split_phase()
        v = rng.integers(0, 2, (3, 203))
        y = codes.encode(sp, v) + rng.normal(0, 0.6, (3, 406))
        prior = rng.choice([-1e3, 1e3], (3, 203))
        assert_same_decode(sp, gamma_table_ook(sp, y, prior, 0.36), CHUNK)
        cc = codes.build_outer_cc()
        gamma = gamma_table_llr(cc, rng.choice([-1e3, 1e3], (3, 203, 2)))
        assert_same_decode(cc, gamma, CHUNK)
        assert_same_decode(cc, gamma, 1)

    def test_huge_metrics(self):
        """sigma^2 = 1e-6: metrics near 1e6 per section, offsets near 1e8,
        and the losing state near -1e6 (probability 0)."""
        rng = np.random.default_rng(24)
        sp, gamma = split_phase_gamma(rng, 3, 203, 1e-6, prior_scale=50.0)
        assert_same_decode(sp, gamma, CHUNK)
        assert_same_decode(sp, gamma, 1)

    def test_path_probability_conservation_across_chunks(self):
        rng = np.random.default_rng(25)
        for trellis, gamma in (split_phase_gamma(rng, 2, 203, 0.4),
                               outer_gamma(rng, 2, 203)):
            tot = total_log_prob(siso._forward_backward(trellis, gamma,
                                                        CHUNK))
            assert (np.ptp(tot, axis=-1) < 1e-9 * np.abs(tot).max()).all()

    def test_chunking_follows_the_call_shape(self):
        # long desk-sized blocks are split; wide short EXIT calls are not
        assert siso._chunk_length(8193, 8, 2, 2) < 8193 // 2
        assert siso._chunk_length(5462, 8, 4, 2) < 5462 // 2
        assert siso._chunk_length(256, 400, 2, 2) == 256
        assert siso._chunk_length(130, 770, 4, 2) == 130


class TestLogSumExp:
    """siso._logsumexp against np.logaddexp.reduce over the last axis."""

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 8])
    def test_matches_logaddexp_reduce(self, width):
        rng = np.random.default_rng(27)
        x = rng.normal(0, 5, (50, 7, width))
        some_inf = x.copy()
        some_inf[rng.random(x.shape) < 0.3] = -np.inf
        some_inf[..., 0] = 1.5          # no row of only -inf
        huge = x + rng.choice([-1e6, 1e6], (50, 7, 1))
        for case in (x, some_inf, huge):
            np.testing.assert_allclose(siso._logsumexp(case),
                                       np.logaddexp.reduce(case, axis=-1),
                                       rtol=1e-12, atol=0)

    def test_all_neg_inf_rows(self):
        x = np.full((3, 4), -np.inf)
        x[1, 2] = -7.0
        got = siso._logsumexp(x)
        np.testing.assert_array_equal(got, [-np.inf, -7.0, -np.inf])


class TestManchesterMap:

    def test_matches_oracle(self):
        rng = np.random.default_rng(17)
        n = 12
        v = rng.integers(0, 2, n)
        manchester = codes.build_manchester()
        y = codes.encode_lut(manchester, v) + rng.normal(0, 0.7, 2 * n)
        got = map_lut(manchester, y, sigma2=0.49)[0]
        want = oracles.exhaustive_manchester_extrinsic(y, np.zeros(n), 0.49)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_prior_independence_exact(self):
        rng = np.random.default_rng(18)
        y = rng.normal(0.5, 1, 16)
        manchester = codes.build_manchester()
        a = map_lut(manchester, y, prior=np.zeros(8), sigma2=1.0)
        b = map_lut(manchester, y, prior=rng.normal(0, 10, 8), sigma2=1.0)
        np.testing.assert_array_equal(a, b)


class TestLutMap:

    def test_matches_oracle(self):
        lut = codes.build_4b6b()
        rng = np.random.default_rng(19)
        for _ in range(10):
            v = rng.integers(0, 2, 8)
            sigma2 = float(rng.uniform(0.2, 2.0))
            y = codes.encode_lut(lut, v) + rng.normal(0, np.sqrt(sigma2), 12)
            prior = rng.normal(0, 2, 8)
            got = map_lut(lut, y, prior, sigma2=sigma2)[0]
            want = oracles.exhaustive_lut_extrinsic(lut, y, prior, sigma2)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_noiseless_hard_decision(self):
        lut = codes.build_4b6b()
        rng = np.random.default_rng(20)
        v = rng.integers(0, 2, 16)
        y = codes.encode_lut(lut, v).astype(float)
        le = map_lut(lut, y, sigma2=1e-4)[0]
        assert ((le > 0).astype(int) == v).all()

    def test_framing_mismatch(self):
        lut = codes.build_4b6b()
        with pytest.raises(ValueError):
            map_lut(lut, np.zeros(10), sigma2=1.0)
