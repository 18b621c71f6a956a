"""Soft-in/soft-out decoders.

Exact log-MAP BCJR over any TrellisSpec, with either the on-off-keying
channel transition metric (inner line-code decoders) or a pure a-priori
LLR metric (outer FEC decoder, which has no channel port).  Memoryless
block codes (Manchester, 4B6B) get direct per-symbol MAP marginalization.
Both inner decoders score OOK observations with one metric, _ook_metric.

All decoders are batched: leading axis = independent blocks.  LLR sign
convention is L = ln P(bit=1)/P(bit=0).  Priors are clamped to +-LLR_CLAMP
before exponentiation; the BCJR's extrinsic outputs subtract the clamped
prior, and map_lut leaves each bit's own prior out, so the exclusion is
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import check_sigma2
from .codes import LutCodeSpec, TrellisSpec

LLR_CLAMP = 50.0
_NEG = -np.inf


def clamp_llr(x: np.ndarray) -> np.ndarray:
    return np.clip(x, -LLR_CLAMP, LLR_CLAMP)


def _check_finite(name, x):
    if not np.isfinite(x).all():
        raise ValueError(f"non-finite values in {name}")


# ---------------------------------------------------------------------------
# Transition metrics
# ---------------------------------------------------------------------------

def _ook_metric(ys: np.ndarray, labels: np.ndarray,
                sigma2: float) -> np.ndarray:
    """OOK channel log-likelihood of each candidate label, shape (B, n, L).

    ys (B, n, w) observes n labels of w bits; labels (L, w) are the
    candidates.  (1/2 sigma^2) * sum_j (2 y_j c_j - y_j^2) over the bits
    c_j of a label, computed as y.c/sigma^2 - |y|^2/(2 sigma^2) without a
    (B, n, L, w) temporary.
    """
    g = (ys / sigma2) @ labels.astype(np.float64).T
    g -= np.einsum("bnj,bnj->bn", ys, ys)[..., None] / (2.0 * sigma2)
    return g


def gamma_table_ook(trellis: TrellisSpec, y: np.ndarray, prior: np.ndarray,
                    sigma2: float) -> np.ndarray:
    """Vectorized OOK metric table, shape (B, n_sections, S, A): the OOK
    metric of each transition's output label plus input_bit * prior."""
    check_sigma2(sigma2)
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    prior = np.atleast_2d(np.asarray(prior, dtype=np.float64))
    _check_finite("observations", y)
    _check_finite("prior", prior)
    B = y.shape[0]
    n_out = trellis.outputs_per_step
    n = y.shape[-1] // n_out
    if y.shape[-1] != n * n_out or prior.shape[-1] != n:
        raise ValueError("observation/prior lengths inconsistent with trellis")
    S, A, _ = trellis.output_bits.shape
    g = _ook_metric(y.reshape(B, n, n_out),
                    trellis.output_bits.reshape(S * A, n_out), sigma2)
    g = g.reshape(B, n, S, A)
    g[..., 1] += clamp_llr(prior)[..., None]
    return g


def gamma_table_llr(trellis: TrellisSpec,
                    code_prior: np.ndarray) -> np.ndarray:
    """Vectorized a-priori-only metric table, shape (B, n_sections, S, A).

    code_prior: (B, n_sections, outputs_per_step) LLRs on the label bits.
    """
    cp = clamp_llr(np.asarray(code_prior, dtype=np.float64))
    _check_finite("code prior", cp)
    c = trellis.output_bits.astype(np.float64)
    return np.einsum("blj,saj->blsa", cp, c)


# ---------------------------------------------------------------------------
# BCJR recursions
# ---------------------------------------------------------------------------

@dataclass
class DecoderWorkspace:
    """Forward/backward/transition metrics of one decode pass (log domain).

    alpha/beta are per-section max-normalized; the subtracted offsets are
    accumulated in alpha_norm/beta_norm so that e.g. the true forward
    metric is alpha + alpha_norm[..., None].
    """

    alpha: np.ndarray           # (B, n+1, S)
    beta: np.ndarray            # (B, n+1, S)
    gamma: np.ndarray           # (B, n, S, A)
    alpha_norm: np.ndarray      # (B, n+1)
    beta_norm: np.ndarray       # (B, n+1)


# Cost model of one forward + backward pass, chunk by chunk: a fixed cost
# per step of phases 1, 2 and 3 of _scan, plus a cost per element of that
# step's work arrays.  Fitted by non-negative least squares to
# _forward_backward timings of split-phase and the outer code (B = 1..770,
# n = 130..8193, median misfit 19 %) on a 2-core 2.1 GHz Xeon VM, Python
# 3.11, numpy 2.4.  The chunking it picks changes rounding only (1e-13).
_STEP_S = (33.5e-6, 19.8e-6, 21.0e-6)
_ELEMENT_S = (12.1e-9, 49.8e-9, 61.7e-9)


@lru_cache(maxsize=256)
def _chunk_length(n: int, B: int, S: int, A: int) -> int:
    """Chunk length the cost model rates fastest for gamma of shape
    (B, n, S, A): n (one chunk, the plain recursion) unless a split into
    K >= 2 chunks is predicted to be faster."""
    (o1, o2, o3), (e1, e2, e3) = _STEP_S, _ELEMENT_S
    c = np.arange(1, n // 2 + 1)
    K = n // c
    r = n - K * c
    cost = (c * (o1 + e1 * S * S * A * B * (K - 1))
            + (K - 1) * (o2 + e2 * S * S * B)
            + (c + r) * o3 + (c * K + r) * e3 * S * A * B)
    if not c.size or cost.min() >= n * (o3 + e3 * S * A * B):
        return n
    return int(c[np.argmin(cost)])


def bcjr_forward_backward(trellis: TrellisSpec,
                          gamma: np.ndarray) -> DecoderWorkspace:
    """Run the alpha/beta recursions with exact log-sum-exp merges, as a
    chunked scan whose chunk length the cost model picks from the shape."""
    B, n, S, A = gamma.shape
    return _forward_backward(trellis, gamma, _chunk_length(n, B, S, A))


def _forward_backward(trellis: TrellisSpec, gamma: np.ndarray,
                      chunk: int) -> DecoderWorkspace:
    """bcjr_forward_backward with a given chunk length (see _scan)."""
    B, n, S, A = gamma.shape
    in_state, in_input = trellis.incoming()

    alpha = np.full((B, n + 1, S), _NEG)
    alpha[:, 0, 0] = 0.0
    alpha_norm = np.zeros((B, n + 1))
    # gamma by (destination state, incoming edge), gathered once
    _scan(gamma[:, :, in_state, in_input], alpha, alpha_norm, in_state,
          chunk)

    # the backward pass is the same scan in reversed time
    beta = np.zeros((B, n + 1, S))
    beta_norm = np.zeros((B, n + 1))
    if trellis.termination == "tail-to-zero":
        beta[:, n, :] = _NEG
        beta[:, n, 0] = 0.0
    _scan(gamma[:, ::-1], beta[:, ::-1], beta_norm[:, ::-1],
          trellis.next_state, chunk)

    return DecoderWorkspace(alpha=alpha, beta=beta, gamma=gamma,
                            alpha_norm=alpha_norm, beta_norm=beta_norm)


def _scan(g, out, norm, src, chunk: int) -> None:
    """Exact log-semiring recursion over the time-ordered sections of g.

    Section l maps the metric out[:, l] to
        out[:, l+1][s] = LSE_a(out[:, l][src[s, a]] + g[:, l][s, a]),
    max-normalised with the offsets accumulated in norm.  out[:, 0] and
    norm[:, 0] hold the start; the rest is written.

    The first K = n // chunk chunks are scanned in three phases: (1) each
    chunk's end-to-end transfer from every start state, vectorised over
    chunks; (2) the same recursion over the chunk boundaries, on the dense
    trellis whose edge from state a to state s weighs the transfer a -> s;
    (3) the ordinary recursion inside every chunk from its true start
    metric, vectorised over chunks.  The n mod chunk remaining sections
    follow sequentially.  With chunk = n this is the plain per-section
    recursion.  Work arrays are state-major, (S, ..., B, K), so that numpy's
    inner loops run over blocks and chunks rather than over the few states.
    """
    B, n, S, A = g.shape
    chunk = max(1, min(chunk, n))
    K = n // chunk
    m = K * chunk
    # time-major views: (chunk, S, A, B, K), (chunk, S, B, K), (chunk, B, K)
    g_chunks = g[:, :m].reshape(B, K, chunk, S, A).transpose(2, 3, 4, 0, 1)
    out_chunks = out[:, 1:m + 1].reshape(B, K, chunk, S, copy=False)
    norm_chunks = norm[:, 1:m + 1].reshape(B, K, chunk, copy=False)
    cur, cur_norm = out[:, 0].T[..., None], norm[:, :1]
    if K > 1:
        trans = _chunk_transfers(g_chunks[..., :-1], src)
        starts, norms = np.empty((S, B, K)), np.empty((B, K))
        starts[..., :1], norms[:, :1] = cur, cur_norm
        _recurse(trans.transpose(3, 1, 0, 2)[..., None],
                 starts.transpose(2, 0, 1)[1:, ..., None],
                 norms.T[1:, :, None], cur, cur_norm, None)
        cur, cur_norm = starts, norms
    _recurse(g_chunks, out_chunks.transpose(2, 3, 0, 1),
             norm_chunks.transpose(2, 0, 1), cur, cur_norm, src)
    _recurse(g[:, m:].transpose(1, 2, 3, 0)[..., None],
             out[:, m + 1:].transpose(1, 2, 0)[..., None],
             norm[:, m + 1:].T[..., None],
             out[:, m].T[..., None], norm[:, m:m + 1], src)


# Stands for -inf in phase 1, whose log-add-exp needs finite inputs.  It
# absorbs every finite metric added to it, and exp(_FLOOR - x) is 0, so a
# path through it weighs nothing, exactly as through -inf.
_FLOOR = -1e300


def _logaddexp(x, y):
    """np.logaddexp of finite arrays through numpy's vectorised exp and
    log1p; np.logaddexp calls the scalar libm functions and is ~4x slower.
    Agrees with it to rounding (a few ulp of the larger input)."""
    out = np.subtract(x, y)
    np.abs(out, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, y)
    return out


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """Exact log-sum-exp of x (finite or -inf entries) over its last axis.

    max + log(sum exp(x - max)), through numpy's vectorised exp and log,
    with the max and the sum folded over the axis's slices; on the short
    axes of the posteriors this is several times faster than
    np.logaddexp.reduce, which calls the scalar libm functions and runs one
    inner loop per row.  Agrees with it to rounding.  A row of only -inf
    (or of values below _FLOOR, which weigh nothing) gives -inf, without a
    floating-point warning.
    """
    m = x[..., 0].copy()
    for i in range(1, x.shape[-1]):
        np.maximum(m, x[..., i], out=m)
    np.maximum(m, _FLOOR, out=m)        # all -inf rows: every exp is 0
    e = x - m[..., None]
    np.exp(e, out=e)
    total = e[..., 0].copy()
    for i in range(1, x.shape[-1]):
        total += e[..., i]
    out = np.full(total.shape, _NEG)
    np.log(total, out=out, where=total > 0)
    out += m
    return out


def _chunk_transfers(g, src) -> np.ndarray:
    """Phase 1: T[s0, s, b, k] = LSE over the paths through chunk k of
    block b that start in state s0 and end in state s (unnormalised)."""
    c, S, A, B, K = g.shape
    trans = np.full((S, S, B, K), _FLOOR)
    trans[np.arange(S), np.arange(S)] = 0.0
    for t in range(c):
        cand = trans[:, src] + g[t][None]
        trans = cand[:, :, 0]
        for a in range(1, A):
            trans = _logaddexp(trans, cand[:, :, a])
    return trans


def _recurse(g, out, norm, cur, cur_norm, src) -> None:
    """Phases 2 and 3: the per-section recursion, in all K chunks at once.

    g (c, S, A, B, K); cur (S, B, K) and cur_norm (B, K) are the chunk
    starts; out (c, S, B, K) and norm (c, B, K) receive each section's
    normalised metric and accumulated offset.  src (S, A) is the state
    input a of state s comes from; None (cur[None] broadcasts) stands for
    the dense trellis of phase 2, where input a comes from state a.  The
    binary np.logaddexp over the inputs' slices is bit-identical to
    np.logaddexp.reduce over the input axis, and cheaper.
    """
    for t in range(g.shape[0]):
        cand = cur[src] + g[t]
        nxt = cand[:, 0]
        for a in range(1, cand.shape[1]):
            nxt = np.logaddexp(nxt, cand[:, a])
        m = nxt.max(axis=0)
        cur = nxt - m
        cur_norm = cur_norm + m
        out[t] = cur
        norm[t] = cur_norm


def _posteriors(trellis: TrellisSpec, ws: DecoderWorkspace) -> np.ndarray:
    """Per-transition joint log metrics alpha + gamma + beta', (B, n, S, A)."""
    return (ws.alpha[:, :-1, :, None] + ws.gamma
            + ws.beta[:, 1:][:, :, trellis.next_state])


def _llr_from_partition(post: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """LSE over transitions with bit=1 minus LSE over bit=0."""
    B, n, S, A = post.shape
    flat = post.reshape(B, n, S * A)
    m = np.broadcast_to(mask, (S, A)).reshape(S * A).astype(bool)
    return _logsumexp(flat[..., m]) - _logsumexp(flat[..., ~m])


@dataclass
class BcjrResult:
    app_input: np.ndarray       # (B, n) a-posteriori LLRs of input bits
    app_output: np.ndarray      # (B, n, n_out) a-posteriori LLRs of label bits


def _input_mask(trellis: TrellisSpec) -> np.ndarray:
    return np.broadcast_to([False, True], (trellis.num_states, 2))


def bcjr_decode(trellis: TrellisSpec, gamma: np.ndarray) -> BcjrResult:
    ws = bcjr_forward_backward(trellis, gamma)
    post = _posteriors(trellis, ws)
    input_mask = _input_mask(trellis)
    app_in = _llr_from_partition(post, input_mask)
    # a label bit equal to the input bit on every transition (the RSC
    # systematic bit) has the input's APP
    label_masks = [trellis.output_bits[:, :, j] == 1
                   for j in range(trellis.outputs_per_step)]
    app_out = np.stack([
        app_in if (mask == input_mask).all()
        else _llr_from_partition(post, mask)
        for mask in label_masks], axis=-1)
    return BcjrResult(app_input=app_in, app_output=app_out)


def bcjr_extrinsic(trellis: TrellisSpec, *, observations, prior=None,
                   sigma2: float) -> np.ndarray:
    """Extrinsic LLRs on the trellis input bits of an inner line code.

    From OOK `observations` of the label bits, input-bit `prior` LLRs
    (zero if None) and the noise variance `sigma2`; the result is
    app(input) minus the clamped prior.
    """
    obs = np.atleast_2d(np.asarray(observations, np.float64))
    n = obs.shape[-1] // trellis.outputs_per_step
    if prior is None:
        prior = np.zeros((obs.shape[0], n))
    prior = np.atleast_2d(np.asarray(prior, np.float64))
    gamma = gamma_table_ook(trellis, obs, prior, sigma2)
    ws = bcjr_forward_backward(trellis, gamma)
    app_in = _llr_from_partition(_posteriors(trellis, ws),
                                 _input_mask(trellis))
    return app_in - clamp_llr(prior)


# ---------------------------------------------------------------------------
# Memoryless symbol-MAP decoders
# ---------------------------------------------------------------------------

def map_lut(spec: LutCodeSpec, y: np.ndarray, prior=None, *,
            sigma2: float) -> np.ndarray:
    """Per-input-bit extrinsic for a LUT code by codeword enumeration.

    For each symbol and each of its input bits, combines the OOK channel
    metric of the 2^k candidate codewords with the a-priori LLRs of the
    symbol's other input bits, then marginalizes over that bit.  The bit's
    own prior never enters, so a 1-bit code (Manchester) is exactly
    prior-independent.
    """
    check_sigma2(sigma2)
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    _check_finite("observations", y)
    iw, ow = spec.input_width, spec.output_width
    if y.shape[-1] % ow:
        raise ValueError(f"observation length {y.shape[-1]} not a multiple "
                         f"of {ow}")
    nsym = y.shape[-1] // ow
    B = y.shape[0]
    if prior is None:
        prior = np.zeros((B, nsym * iw))
    prior = clamp_llr(np.atleast_2d(np.asarray(prior, np.float64)))
    _check_finite("prior", prior)
    pr = prior.reshape(B, nsym, iw)

    ch = _ook_metric(y.reshape(B, nsym, ow), spec.table, sigma2)
    idx = np.arange(1 << iw)
    msg_bits = ((idx[:, None] >> np.arange(iw - 1, -1, -1))
                & 1).astype(np.float64)                  # (2^iw, iw)

    ext = np.empty((B, nsym, iw))
    for j in range(iw):
        others = pr.copy()
        others[..., j] = 0.0
        metric = ch + others @ msg_bits.T
        sel = msg_bits[:, j] == 1
        ext[..., j] = (_logsumexp(metric[..., sel])
                       - _logsumexp(metric[..., ~sel]))
    return ext.reshape(B, nsym * iw)
