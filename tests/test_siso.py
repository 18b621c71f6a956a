import warnings

import numpy as np
import pytest

from vlclink import codes, siso
from vlclink.siso import (bcjr_decode, bcjr_extrinsic, clamp_llr,
                          gamma_table_llr, gamma_table_ook, map_lut)

import oracles
from oracles import gamma_llr, gamma_ook


class TestGammaOok:

    def test_direct_substitution(self):
        assert gamma_ook(1.0, [1], 0, 0.0, 0.5) == 0.0
        assert gamma_ook(1.0, [0], 0, 0.0, 0.5) == pytest.approx(-1.0)
        assert gamma_ook([0.2, 0.9], [1, 1], 1, 3.0, 0.5) == pytest.approx(
            3.0 - 0.65)

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
        """Equal up to one constant per section: the table leaves out
        -|y|^2 / (2 sigma^2), which is the same for every transition."""
        trellis = builder()
        rng = np.random.default_rng(26)
        y = rng.normal(0.5, 1.0, (2, 10))
        prior = rng.normal(0, 3, (2, 5))
        g = gamma_table_ook(trellis, y, prior, 0.7)
        want = np.empty_like(g)
        for b, l, s, a in np.ndindex(g.shape):
            want[b, l, s, a] = gamma_ook(y[b, 2 * l:2 * l + 2],
                                         trellis.output_bits[s, a], a,
                                         prior[b, l], 0.7)
        diff = g - want
        np.testing.assert_allclose(
            diff, np.broadcast_to(diff[..., :1, :1], diff.shape),
            rtol=0, atol=1e-12)


class TestGammaLlr:

    def test_all_zero(self):
        assert gamma_llr([1, 0], [0.0, 0.0]) == 0.0

    def test_single_label_bit(self):
        assert gamma_llr([1], [10.0]) == pytest.approx(10.0)
        assert gamma_llr([0], [10.0]) == 0.0

    @pytest.mark.parametrize("builder", [codes.build_outer_cc,
                                         codes.build_bmc])
    def test_table_matches_scalar_metric(self, builder):
        trellis = builder()
        rng = np.random.default_rng(27)
        prior = rng.normal(0, 30, (3, 7, 2))    # some beyond the clamp
        prior[rng.random(prior.shape) < 0.2] = 0.0
        g = gamma_table_llr(trellis, prior)
        assert g.shape == (3, 7, trellis.num_states, 2)
        for b, l, s, a in np.ndindex(g.shape):
            want = gamma_llr(trellis.output_bits[s, a], prior[b, l])
            assert g[b, l, s, a] == pytest.approx(want, rel=1e-12, abs=1e-12)


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

    def test_bmc_long_block(self):
        """A 4 x 400 BMC block at sigma^2 = 0.3 against the log-domain
        recursion on the oracle's Gaussian metric: BMC labels weigh 0, 1
        or 2, so a metric exact only for one label weight fails here."""
        bmc = codes.build_bmc()
        rng = np.random.default_rng(32)
        v = rng.integers(0, 2, (4, 400))
        y = codes.encode(bmc, v) + rng.normal(0, np.sqrt(0.3), (4, 800))
        prior = rng.normal(0, 2, (4, 400))
        gamma = np.empty((4, 400, 2, 2))
        for b, l, s, a in np.ndindex(gamma.shape):
            gamma[b, l, s, a] = gamma_ook(y[b, 2 * l:2 * l + 2],
                                          bmc.output_bits[s, a], a,
                                          prior[b, l], 0.3)
        want = plain_decode(bmc, gamma)[3][..., 0] - clamp_llr(prior)
        got = bcjr_extrinsic(bmc, observations=y, prior=prior, sigma2=0.3)
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
        for trellis in (codes.build_split_phase(), codes.build_bmc()):
            le = bcjr_extrinsic(trellis,
                                observations=np.full(16, 0.5),
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
                map_lut(codes.build_4b6b(), np.zeros(6), np.zeros(4),
                        sigma2=sigma2)
            with pytest.raises(ValueError, match="sigma2"):
                map_lut(codes.build_manchester(), np.zeros(4), np.zeros(2),
                        sigma2=sigma2)
        # fewer observations than one section: still checked
        with pytest.raises(ValueError, match="observations"):
            bcjr_extrinsic(sp, observations=None, prior=np.zeros(0),
                           sigma2=1.0)
        with pytest.raises(ValueError, match="lengths"):
            bcjr_extrinsic(sp, observations=np.zeros(1), prior=np.zeros(0),
                           sigma2=1.0)
        with pytest.raises(ValueError, match="sigma2"):
            bcjr_extrinsic(sp, observations=np.zeros(0), prior=np.zeros(0),
                           sigma2=np.nan)
        code_prior = np.zeros((1, 10, 2))
        code_prior[0, 4, 1] = np.nan
        with pytest.raises(ValueError, match="code prior"):
            gamma_table_llr(codes.build_outer_cc(), code_prior)

    @pytest.mark.parametrize("bad", ["nan", "+inf", "all -inf"])
    def test_nonfinite_metric_table(self, bad):
        """A metric table given directly is checked by its section maxima:
        a NaN, a +inf or a section with every edge at -inf is refused by
        name, with no floating-point warning.  A -inf beside finite edges
        is a forbidden edge, and decodes."""
        cc = codes.build_outer_cc()
        g = gamma_table_llr(cc, np.random.default_rng(33).normal(
            0, 1.5, (2, 12, 2)))
        g[1, 5, 2, 1] = -np.inf
        bcjr_decode(cc, g)
        if bad == "all -inf":
            g[1, 5] = -np.inf
        else:
            g[0, 7, 3, 0] = float(bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="metric table"):
                bcjr_decode(cc, g)

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
        assert_states_conserved(
            cc, siso.bcjr_forward_backward(cc, gamma_table_llr(cc, cp)))

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


def state_posteriors(trellis, ws):
    """Per section l, the state posterior at boundary l three ways:
    alpha * beta there, and the marginals of the transition posteriors of
    the sections on either side (source states of section l, destination
    states of section l - 1); each (B, n - 1, S), normalised to sum 1."""
    post = transition_posteriors(trellis, ws)
    S = trellis.num_states
    into = np.zeros(post.shape[:2] + (S,))
    for s, a in np.ndindex(S, 2):
        into[:, :, trellis.next_state[s, a]] += post[:, :, s, a]
    here = ws.alpha * ws.beta
    return [x / x.sum(axis=-1, keepdims=True)
            for x in (here[:, 1:-1], post.sum(axis=-1)[:, 1:], into[:, :-1])]


def assert_states_conserved(trellis, ws):
    """A consistent decode pass gives every section boundary the same
    state posterior from alpha * beta and from the sections around it."""
    here, out_of, into = state_posteriors(trellis, ws)
    np.testing.assert_allclose(out_of, here, rtol=0, atol=1e-12)
    np.testing.assert_allclose(into, here, rtol=0, atol=1e-12)


def transition_posteriors(trellis, ws):
    """alpha * weight * beta' of every transition, normalised per section
    to sum 1: (B, n, S, A), in input order (ws.weights lists each state's
    edges by destination, siso._edge_order)."""
    order, _ = siso._edge_order(trellis)
    weights = np.take_along_axis(
        ws.weights, np.argsort(order, axis=1)[None, None], axis=-1)
    post = (ws.alpha[:, :-1, :, None] * weights
            * ws.beta[:, 1:][:, :, trellis.next_state])
    return post / post.sum(axis=(2, 3), keepdims=True)


def incoming(trellis):
    """(prev_state, input) pairs feeding each state, shape (S, 2) each;
    the trellis must be regular (every state entered by two edges)."""
    S = trellis.num_states
    buckets = [[] for _ in range(S)]
    for s, a in np.ndindex(S, 2):
        buckets[trellis.next_state[s, a]].append((s, a))
    assert all(len(b) == 2 for b in buckets), f"{trellis.name} not regular"
    return (np.array([[p[0] for p in b] for b in buckets]),
            np.array([[p[1] for p in b] for b in buckets]))


def plain_forward_backward(trellis, gamma):
    """The per-section alpha/beta recursion in the log domain, one section
    per step: the reference the probability-domain scan is checked
    against.  Returns max-normalised log alpha and beta and the offsets
    taken out."""
    B, n, S, A = gamma.shape
    in_state, in_input = incoming(trellis)
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


def bit_masks(trellis):
    """The input bit's mask, then each label bit's, over (S, A)."""
    return [siso._input_mask(trellis)] + [
        trellis.output_bits[:, :, j] == 1
        for j in range(trellis.outputs_per_step)]


def plain_decode(trellis, gamma):
    """Log alpha and beta, transition posteriors (normalised per section)
    and input/label LLRs of the log-domain reference."""
    alpha, beta, _, _ = plain_forward_backward(trellis, gamma)
    post = (alpha[:, :-1, :, None] + gamma
            + beta[:, 1:][:, :, trellis.next_state])
    B, n, S, A = post.shape
    flat = post.reshape(B, n, S * A)
    total = np.logaddexp.reduce(flat, axis=-1)
    llrs = []
    for mask in bit_masks(trellis):
        m = np.broadcast_to(mask, (S, A)).reshape(S * A)
        llrs.append(np.logaddexp.reduce(flat[..., m], axis=-1)
                    - np.logaddexp.reduce(flat[..., ~m], axis=-1))
    return (alpha, beta, np.exp(post - total[..., None, None]),
            np.stack(llrs, axis=-1))


def chunked_decode(trellis, gamma, chunk, *boundary_chunks):
    """Workspace and input/label APPs with a forced scan chunk length (and
    those of the first levels of the boundary pass)."""
    ws = siso._forward_backward(trellis, gamma, chunk, *boundary_chunks)
    llr = siso._app_llrs(trellis, ws, siso._posterior_masks(trellis, True),
                         "test metric")
    return ws, llr[..., 0], llr[..., 1:]


class TestPosteriorMasks:
    """The mask matrix of the posteriors is built once per trellis and
    mask set, read-only, and is the matrix the masks give."""

    @pytest.mark.parametrize("build", [codes.build_split_phase,
                                       codes.build_bmc,
                                       codes.build_outer_cc])
    def test_built_once_from_the_masks(self, build):
        trellis = build()
        S, A = trellis.next_state.shape
        order, _ = siso._edge_order(trellis)
        for outputs, masks in ((False, bit_masks(trellis)[:1]),
                               (True, bit_masks(trellis))):
            matrix = siso._posterior_masks(trellis, outputs)
            assert siso._posterior_masks(trellis, outputs) is matrix
            assert not matrix.flags.writeable
            ones = np.array([np.broadcast_to(m, (S, A))[
                np.arange(S)[:, None], order].ravel() for m in masks])
            np.testing.assert_array_equal(matrix, np.vstack([ones, ~ones]))


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
SCAN_LENGTHS = (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK,
                2 * CHUNK + 1, 203)


def assert_same_decode(trellis, gamma, chunk):
    """A chunked scan agrees with the one-chunk recursion: the same zero
    state weights, the others and the LLRs to 1e-9."""
    n = gamma.shape[1]
    ws1, in1, out1 = chunked_decode(trellis, gamma, n)
    ws, app_in, app_out = chunked_decode(trellis, gamma, chunk)
    for got, want in ((ws.alpha, ws1.alpha), (ws.beta, ws1.beta)):
        np.testing.assert_array_equal(got == 0, want == 0)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
    np.testing.assert_allclose(app_in, in1, atol=1e-9)
    np.testing.assert_allclose(app_out, out1, atol=1e-9)


def assert_matches_log_domain(trellis, gamma, chunk, *boundary_chunks):
    """The scan against the log-domain reference where metrics may exceed
    the range of a double: a state weight is 0 exactly where the
    reference's exponentiates to 0 (its -inf, or a loser by ~1e6), and
    the LLRs agree once clipped at +-LLR_CLAMP, the most a decoder
    downstream reads."""
    ws, app_in, app_out = chunked_decode(trellis, gamma, chunk,
                                         *boundary_chunks)
    alpha, beta, _, llr = plain_decode(trellis, gamma)
    for got, log_want in ((ws.alpha, alpha), (ws.beta, beta)):
        # no reference weight near the underflow edge, where rounding
        # could decide between 0 and a subnormal
        assert not ((log_want < -700) & (log_want > -800)).any()
        np.testing.assert_array_equal(got == 0, np.exp(log_want) == 0)
        np.testing.assert_allclose(got, np.exp(log_want), rtol=1e-9, atol=0)
    np.testing.assert_allclose(clamp_llr(app_in), clamp_llr(llr[..., 0]),
                               atol=1e-9)
    np.testing.assert_allclose(clamp_llr(app_out), clamp_llr(llr[..., 1:]),
                               atol=1e-9)


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
            ws, app_in, app_out = chunked_decode(trellis, gamma, 203)
            alpha, beta, post, llr = plain_decode(trellis, gamma)
            np.testing.assert_allclose(transition_posteriors(trellis, ws),
                                       post, rtol=0, atol=1e-9)
            np.testing.assert_allclose(app_in, llr[..., 0], atol=1e-9)
            np.testing.assert_allclose(app_out, llr[..., 1:], atol=1e-9)

    def test_clamped_priors(self):
        """Priors beyond +-50; chunk 1 is shorter than the outer code's
        memory, so its transfers keep zero entries."""
        rng = np.random.default_rng(23)
        sp = codes.build_split_phase()
        v = rng.integers(0, 2, (3, 203))
        y = codes.encode(sp, v) + rng.normal(0, 0.6, (3, 406))
        prior = rng.choice([-1e3, 1e3], (3, 203))
        assert_matches_log_domain(sp, gamma_table_ook(sp, y, prior, 0.36),
                                  CHUNK)
        cc = codes.build_outer_cc()
        gamma = gamma_table_llr(cc, rng.choice([-1e3, 1e3], (3, 203, 2)))
        assert_matches_log_domain(cc, gamma, CHUNK)
        assert_matches_log_domain(cc, gamma, 1)

    def test_huge_metrics(self):
        """sigma^2 = 1e-6: metrics near 1e6 per section, and the losing
        state near -1e6 (probability 0)."""
        rng = np.random.default_rng(24)
        sp, gamma = split_phase_gamma(rng, 3, 203, 1e-6, prior_scale=50.0)
        assert_matches_log_domain(sp, gamma, CHUNK)
        assert_matches_log_domain(sp, gamma, 1)

    @pytest.mark.parametrize("chunk", [1, CHUNK, 203])
    def test_noiseless_limit_any_chunking(self, chunk):
        """Split-phase at sigma^2 = 1e-6 without priors: nearly every LLR
        saturates, whatever the chunking."""
        rng = np.random.default_rng(28)
        sp, gamma = split_phase_gamma(rng, 2, 203, 1e-6, prior_scale=0.0)
        assert_matches_log_domain(sp, gamma, chunk)

    def test_path_probability_conservation_across_chunks(self):
        rng = np.random.default_rng(25)
        for trellis, gamma in (split_phase_gamma(rng, 2, 203, 0.4),
                               outer_gamma(rng, 2, 203)):
            assert_states_conserved(
                trellis, siso._forward_backward(trellis, gamma, CHUNK))

    def test_boundary_pass_recurses(self, monkeypatch):
        """Chunks of 2, then boundary chunks of 2 and 3: the boundary pass
        runs the scan three levels below the sections (on 101, 50 and 16
        chunk transfers), and alpha, beta and the LLRs still match the
        log-domain reference."""
        levels, scan = [], siso._scan

        def spy(w, *args):
            levels.append(w.shape[1])
            return scan(w, *args)

        monkeypatch.setattr(siso, "_scan", spy)
        rng = np.random.default_rng(26)
        for trellis, gamma in (split_phase_gamma(rng, 2, 203, 0.4),
                               outer_gamma(rng, 2, 203)):
            levels.clear()
            assert_matches_log_domain(trellis, gamma, 2, 2, 3)
            assert levels[:4] == [203, 101, 50, 16]

    def test_one_copy_per_level(self, monkeypatch):
        """Each level of the scan copies its chunks once, time-major in
        the weights' own edge order, and its remainder once: 203 sections
        in chunks of 8 (25 chunks and 3 left over), their 25 transfers in
        chunks of 4 (6 and 1), then those 6 in one chunk."""
        copies, time_major = [], siso._time_major

        def spy(w):
            copies.append(w.shape)
            return time_major(w)

        monkeypatch.setattr(siso, "_time_major", spy)
        rng = np.random.default_rng(29)
        for trellis, gamma in (split_phase_gamma(rng, 2, 203, 0.4),
                               outer_gamma(rng, 2, 203)):
            copies.clear()
            assert_matches_log_domain(trellis, gamma, 8, 4, 6)
            S, A = trellis.num_states, 2
            assert copies == [(2, 25, 8, S, A), (2, 1, 3, S, A),
                              (2, 6, 4, S, S), (2, 1, 1, S, S),
                              (2, 1, 6, S, S)]

    @pytest.mark.parametrize("code", ["split-phase", "outer"])
    def test_backward_transfers_are_transposed(self, code):
        """Across each chunk, the backward recursion from the unit vector
        of end state s gives beta[s0] = the weight of the paths s0 -> s:
        the transpose of the forward transfer phase 1 computes, which the
        backward pass therefore reuses."""
        rng = np.random.default_rng(27)
        B, K, c = 2, 5, CHUNK
        trellis, gamma = (split_phase_gamma(rng, B, K * c, 0.4)
                          if code == "split-phase"
                          else outer_gamma(rng, B, K * c))
        S, A = trellis.num_states, 2
        order, dest = siso._edge_order(trellis)
        w = siso._section_weights(gamma, order)
        forward = siso._chunk_transfers(
            siso._time_major(w.reshape(B, K, c, S, A)))
        backward = np.empty((B, K, S, S))
        for k, s in np.ndindex(K, S):
            v = np.zeros((B, S))
            v[:, s] = 1.0
            for l in range(c * (k + 1) - 1, c * k - 1, -1):
                v = (w[:, l] * v[:, dest]).sum(axis=-1)
            backward[:, k, :, s] = v
        backward /= backward.max(axis=(2, 3), keepdims=True)
        np.testing.assert_allclose(forward, backward, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [0, 1])
    def test_shortest_blocks(self, n):
        rng = np.random.default_rng(32)
        for trellis, gamma in (split_phase_gamma(rng, 2, n, 0.4),
                               outer_gamma(rng, 2, n)):
            ws = siso.bcjr_forward_backward(trellis, gamma)
            assert ws.alpha.shape == (2, n + 1, trellis.num_states)
            assert_matches_log_domain(trellis, gamma, 1)

    def test_chunking_follows_the_call_shape(self):
        # long desk-sized blocks are split; wide short EXIT calls are not
        assert siso._chunk_length(8193, 8, 2, 2) < 8193 // 2
        assert siso._chunk_length(5462, 8, 4, 2) < 5462 // 2
        assert siso._chunk_length(256, 400, 2, 2) == 256
        assert siso._chunk_length(130, 770, 4, 2) == 130


class TestEdgeOrder:
    """The scan takes each state's edges by destination and needs the j-th
    edge of state s to enter state j*(S/A) + s//A."""

    @pytest.mark.parametrize("builder", [
        codes.build_outer_cc, codes.build_split_phase, codes.build_bmc])
    def test_library_trellises(self, builder):
        trellis = builder()
        order, dest = siso._edge_order(trellis)
        assert siso._edge_order(trellis)[0] is order      # computed once
        S = trellis.num_states
        np.testing.assert_array_equal(
            dest, np.take_along_axis(trellis.next_state, order, axis=1))
        np.testing.assert_array_equal(
            dest, [[j * (S // 2) + s // 2 for j in range(2)]
                   for s in range(S)])

    @pytest.mark.parametrize("S", [2, 4])
    def test_dense_trellis(self, S):
        order, dest = siso._destination_order(
            "dense", siso._dense_trellis(S))
        np.testing.assert_array_equal(order, np.indices((S, S))[1])
        np.testing.assert_array_equal(dest, siso._dense_trellis(S))

    def test_other_regular_trellis_refused(self):
        """Every state here is entered by two edges, but state 0's go to
        states 0 and 1, not 0 and 2."""
        odd = codes.TrellisSpec(
            name="odd", num_states=4, outputs_per_step=1,
            next_state=[[0, 1], [2, 3], [0, 1], [2, 3]],
            output_bits=[[[0], [1]]] * 4)
        gamma = gamma_table_llr(odd, np.zeros((1, 6, 1)))
        with pytest.raises(ValueError, match="trellis odd"):
            bcjr_decode(odd, gamma)


class TestNumericalContract:
    """The probability-domain BCJR's contract (see the siso docstring):
    exact while no state weight underflows, +-LLR_SAT where one side of an
    LLR does, ValueError where a whole state vector does."""

    def test_forced_bits_saturate(self):
        """k = 1: the tail drives the outer code back to state 0, so some
        code bits are the same on both paths; the reference gives them
        +-inf, the decoder +-LLR_SAT."""
        assert siso.LLR_SAT >= 700
        cc = codes.build_outer_cc()
        rng = np.random.default_rng(29)
        cp = rng.normal(0, 2, (1 + cc.memory, 2))
        res = bcjr_decode(cc, gamma_table_llr(cc, cp[None]))
        want, _ = oracles.exhaustive_outer_extrinsic(cc, cp, 1)
        forced = np.isinf(want)
        assert forced.any() and np.isfinite(res.app_output).all()
        np.testing.assert_array_equal(res.app_output[0][forced],
                                      np.sign(want[forced]) * siso.LLR_SAT)
        np.testing.assert_allclose(res.app_output[0][~forced] - cp[~forced],
                                   want[~forced], atol=1e-9)

    def test_underflowed_side_saturates(self):
        """Noiseless split-phase at sigma^2 = 1e-6, no priors: the
        alternative of every bit weighs exp(-1e6), which underflows."""
        sp = codes.build_split_phase()
        v = np.random.default_rng(30).integers(0, 2, (2, 64))
        y = codes.encode(sp, v).astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            le = bcjr_extrinsic(sp, observations=y, prior=np.zeros(v.shape),
                                sigma2=1e-6)
        np.testing.assert_array_equal(le, np.where(v == 1, siso.LLR_SAT,
                                                   -siso.LLR_SAT))

    def test_noisy_codewords_saturate(self):
        """BMC at sigma^2 = 1e-6 on noisy codewords: flipping any input bit
        changes at least one label bit, which costs about 5e5 nats, so
        every LLR saturates with the sign of the sent bit."""
        bmc = codes.build_bmc()
        rng = np.random.default_rng(31)
        v = rng.integers(0, 2, (2, 203))
        y = codes.encode(bmc, v) + rng.normal(0, 1e-3, (2, 406))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            le = bcjr_extrinsic(bmc, observations=y,
                                prior=np.zeros(v.shape), sigma2=1e-6)
        np.testing.assert_array_equal(le, np.where(v == 1, siso.LLR_SAT,
                                                   -siso.LLR_SAT))

    def test_collapse_raises(self):
        """All-ones BMC at sigma^2 = 1e-6: no codeword sends 11 twice in a
        row, so every path pays about 5e5 nats against the observation at
        every other section, and the weights across a section underflow
        for every state."""
        bmc = codes.build_bmc()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=r"bmc BCJR .* sigma2=1e-06.* underflowed"):
                bcjr_extrinsic(bmc, observations=np.ones((2, 406)),
                               prior=np.zeros((2, 203)), sigma2=1e-6)


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
        got = map_lut(manchester, y, np.zeros(n), sigma2=0.49)[0]
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
        le = map_lut(lut, y, np.zeros(16), sigma2=1e-4)[0]
        assert ((le > 0).astype(int) == v).all()

    def test_framing_mismatch(self):
        lut = codes.build_4b6b()
        with pytest.raises(ValueError):
            map_lut(lut, np.zeros(10), np.zeros(4), sigma2=1.0)
