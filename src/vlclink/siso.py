"""Soft-in/soft-out decoders.

Exact MAP BCJR over any TrellisSpec, with either the on-off-keying channel
transition metric (inner line-code decoders) or a pure a-priori LLR metric
(outer FEC decoder, which has no channel port).  Memoryless block codes
(Manchester, 4B6B) get direct per-symbol MAP marginalization.  Both inner
decoders score OOK observations with one metric, _ook_metric.

All decoders are batched: leading axis = independent blocks.  LLR sign
convention is L = ln P(bit=1)/P(bit=0).  Priors are clamped to +-LLR_CLAMP
before exponentiation; the BCJR's extrinsic outputs subtract the clamped
prior, and map_lut leaves each bit's own prior out, so the exclusion is
exact.

The BCJR runs in the probability domain: each section's log metrics are
shifted by their maximum and exponentiated once, the forward and backward
recursions only multiply and add, and every step divides its state vector
by its largest entry.  Numerical contract:

1. Exact: as long as no state weight underflows (falls below ~1e-308 of
   the largest in its vector), the LLRs equal those of the log-domain
   recursion to rounding.  That holds for the outer decoder always (its
   metrics span at most 200 per section, the priors being clamped) and for
   the inner decoders at every sigma^2 a preset or the threshold search
   uses (at 7 dB the smallest state weight is about 1e-29).
2. Saturated: an LLR one side of which underflowed to 0 (a bit the trellis
   forces, or one whose alternative is that improbable) is +-LLR_SAT,
   finite and of the right sign, never +-inf.
3. Collapse: if a whole state vector underflows (every state of alpha, of
   beta or of their product across a section), the decoder raises a
   ValueError naming the trellis and the metric (with sigma^2 for an inner
   code); it never returns NaN and never emits a RuntimeWarning.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import check_sigma2
from .codes import LutCodeSpec, TrellisSpec

LLR_CLAMP = 50.0
# Magnitude of a BCJR LLR one side of which underflowed: that side is 0, or
# so small against the other that their ratio overflows (|L| > 709.7).
# Every LLR the ratio expresses stays below it.
LLR_SAT = 750.0
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
    S, A, j = trellis.output_bits.shape
    c = trellis.output_bits.reshape(S * A, j).astype(np.float64)
    return (cp.reshape(-1, j) @ c.T).reshape(*cp.shape[:2], S, A)


# ---------------------------------------------------------------------------
# BCJR recursions
# ---------------------------------------------------------------------------

@dataclass
class DecoderWorkspace:
    """State and transition weights of one decode pass (probability domain).

    weights[:, l] = exp(gamma[:, l] - max gamma[:, l]): the transition
    weights of section l, largest 1.  alpha[:, l] and beta[:, l] are the
    forward and backward state weights at section boundary l, each divided
    by its largest entry.  gamma is the log-domain table the pass was given.
    """

    alpha: np.ndarray           # (B, n+1, S)
    beta: np.ndarray            # (B, n+1, S)
    gamma: np.ndarray           # (B, n, S, A)
    weights: np.ndarray         # (B, n, S, A)


# Cost model of one forward + backward pass, chunk by chunk: a fixed cost
# per step of phases 1, 2 and 3 of _scan, plus a cost per element of that
# step's work arrays.  Fitted by non-negative least squares, on relative
# error, to the fastest of 4-7 _forward_backward timings of split-phase and
# the outer code at each of 844 shapes (B = 1..770, n = 130..8193, chunk
# lengths 4..n), with a fixed cost per call as a further unknown: median
# misfit 9 %, 90th percentile 28 %.  Measured on a 2-core 2.0 GHz Xeon VM,
# Python 3.11, numpy 2.4.  The chunking it picks changes rounding only
# (1e-13).
_STEP_S = (32.6e-6, 28.0e-6, 21.4e-6)
_ELEMENT_S = (7.2e-9, 10.2e-9, 30.6e-9)


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
    """Run the alpha/beta recursions in the probability domain, as a
    chunked scan whose chunk length the cost model picks from the shape."""
    B, n, S, A = gamma.shape
    return _forward_backward(trellis, gamma, _chunk_length(n, B, S, A))


def _forward_backward(trellis: TrellisSpec, gamma: np.ndarray,
                      chunk: int) -> DecoderWorkspace:
    """bcjr_forward_backward with a given chunk length (see _scan)."""
    B, n, S, A = gamma.shape
    weights = _section_weights(gamma)

    alpha = np.empty((B, n + 1, S))
    alpha[:, 0] = 0.0
    alpha[:, 0, 0] = 1.0
    # weights by (destination state, incoming edge)
    in_state, in_input = trellis.incoming()
    _scan(weights, (in_state, in_input), alpha, in_state, chunk)

    # the backward pass is the same scan in reversed time
    beta = np.empty((B, n + 1, S))
    beta[:, n] = 1.0
    if trellis.termination == "tail-to-zero":
        beta[:, n, 1:] = 0.0
    _scan(weights[:, ::-1], np.indices((S, A)), beta[:, ::-1],
          trellis.next_state, chunk)

    return DecoderWorkspace(alpha=alpha, beta=beta, gamma=gamma,
                            weights=weights)


def _section_weights(gamma: np.ndarray) -> np.ndarray:
    """exp(gamma - the maximum of its section), (B, n, S, A), stored
    transition-major, (S, A, B, n), for the posteriors' sums."""
    B, n, S, A = gamma.shape
    top = gamma[..., 0, 0].copy()
    for s, a in np.ndindex(S, A):
        np.maximum(top, gamma[..., s, a], out=top)
    weights = np.empty((S, A, B, n))
    for s, a in np.ndindex(S, A):
        np.subtract(gamma[..., s, a], top, out=weights[s, a])
    np.exp(weights, out=weights)
    return weights.transpose(2, 3, 0, 1)


# Divisor floor of every normalisation: a state vector (or a phase-1 row)
# whose weights all underflowed to 0 is divided by it and stays 0, so no
# step computes 0/0.
_TINY = np.finfo(np.float64).tiny
# the ufunc method itself: ndarray.max adds a Python wrapper to every step
_max_over_states = np.maximum.reduce


def _scan(w, edges, out, src, chunk: int) -> None:
    """Sum-product recursion over the time-ordered sections of w.

    Section l maps the state weights out[:, l] to
        out[:, l+1][s] = sum_a out[:, l][src[s, a]] * g[:, l][s, a]
    divided by its largest entry, where g[:, l][s, a] is
    w[:, l][edges[0][s, a], edges[1][s, a]].  out[:, 0] holds the start;
    the rest is written.

    The first K = n // chunk chunks are scanned in three phases: (1) each
    chunk's end-to-end transfer from every start state, vectorised over
    chunks; (2) the same recursion over the chunk boundaries, on the dense
    trellis whose edge from state a to state s weighs the transfer a -> s;
    (3) the ordinary recursion inside every chunk from its true start
    weights, vectorised over chunks.  The n mod chunk remaining sections
    follow sequentially.  With chunk = n this is the plain per-section
    recursion.  Work arrays are state-major, (S, ..., B, K), and each
    section's slice of g is contiguous, so that numpy's inner loops run
    over blocks and chunks rather than over the few states.
    """
    B, n, S, A = w.shape
    if not n:
        return
    chunk = min(chunk, n)
    K = n // chunk
    m = K * chunk
    cur = out[:, 0].T[..., None]
    g = _time_major(w[:, :m].reshape(B, K, chunk, S, A), edges)
    if K > 1:
        trans = _chunk_transfers(g[..., :-1], src)
        starts = np.empty((S, B, K))
        starts[..., :1] = cur
        _recurse(trans, starts.transpose(2, 0, 1)[1:, ..., None], cur,
                 np.broadcast_to(np.arange(S), (S, S)))
        cur = starts
    _recurse(g, out[:, 1:m + 1].reshape(B, K, chunk, S, copy=False)
             .transpose(2, 3, 0, 1), cur, src)
    del g
    _recurse(_time_major(w[:, None, m:], edges),
             out[:, m + 1:].transpose(1, 2, 0)[..., None],
             out[:, m].T[..., None], src)


def _time_major(w, edges) -> np.ndarray:
    """w (B, K, c, S, A) as a contiguous (c, S, A, B, K) array, with the
    (S, A) axes gathered by edges."""
    B, K, c, S, A = w.shape
    g = np.empty((c, S, A, B, K))
    wt = w.transpose(2, 3, 4, 0, 1)
    for s, a in np.ndindex(S, A):
        g[:, s, a] = wt[:, edges[0][s, a], edges[1][s, a]]
    return g


def _chunk_transfers(g, src) -> np.ndarray:
    """Phase 1: T[k, s, s0, b], the weight of the paths through chunk k of
    block b that start in state s0 and end in state s, relative to the
    heaviest of them, as a contiguous (K, S, S0, B, 1) array.

    Each start state's row is divided by its own maximum at every step, so
    that a row cannot underflow because another row outweighs it; the log
    of those divisors is added back when the rows are put on one scale.
    """
    c, S, A, B, K = g.shape
    trans = np.zeros((S, S, B, K))
    trans[np.arange(S), np.arange(S)] = 1.0
    divisors = np.empty((c, S, B, K))
    for t in range(c):
        cand = trans[src]
        cand *= g[t][:, :, None]
        trans = cand[:, 0]
        for a in range(1, A):
            trans = trans + cand[:, a]
        _max_over_states(trans, axis=0, out=divisors[t], initial=_TINY)
        trans /= divisors[t]
    log_scale = np.log(divisors).sum(axis=0)
    log_scale -= log_scale.max(axis=0)
    trans *= np.exp(log_scale, out=log_scale)
    return np.ascontiguousarray(trans.transpose(3, 0, 1, 2))[..., None]


def _recurse(g, out, cur, src) -> None:
    """Phases 2 and 3: the per-section recursion, in all K chunks at once.

    g (c, S, A, B, K); cur (S, B, K) holds the chunk starts; out
    (c, S, B, K) receives each section's state weights, divided by their
    largest entry.  src (S, A) is the state input a of state s comes from.
    The steps write a contiguous buffer, copied to out at the end.
    """
    buf = np.empty(out.shape)
    for t in range(g.shape[0]):
        cand = cur[src]
        cand *= g[t]
        cur = buf[t]
        np.add(cand[:, 0], cand[:, 1], out=cur)
        for a in range(2, cand.shape[1]):
            cur += cand[:, a]
        cur /= _max_over_states(cur, axis=0, initial=_TINY)
    out[...] = buf


@dataclass
class BcjrResult:
    app_input: np.ndarray       # (B, n) a-posteriori LLRs of input bits
    app_output: np.ndarray      # (B, n, n_out) a-posteriori LLRs of label bits


def _app_llrs(trellis: TrellisSpec, ws: DecoderWorkspace, masks,
              metric: str) -> np.ndarray:
    """A-posteriori LLRs, (B, n, len(masks)): for each (S, A) bit mask,
    log(sum of the transition posteriors alpha * weight * beta' where the
    bit is 1) - log(the sum where it is 0), clipped at +-LLR_SAT.

    A side that underflowed to 0 gives +-LLR_SAT; both sides 0 means a
    whole state vector underflowed, and raises ValueError naming the
    trellis and `metric`.
    """
    B, n, S = ws.alpha[:, 1:].shape
    # transition-major (S, A, B, n), like weights
    post = ws.beta[:, 1:].transpose(2, 0, 1)[trellis.next_state]
    post *= ws.weights.transpose(2, 3, 0, 1)
    post *= ws.alpha[:, :-1].transpose(2, 0, 1)[:, None]
    A, J = post.shape[1], len(masks)
    ones = np.stack([np.broadcast_to(m, (S, A)).reshape(S * A)
                     for m in masks])
    sums = (np.vstack([ones, ~ones]).astype(float)
            @ post.reshape(S * A, B * n)).reshape(2 * J, B, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        llr = np.log(sums[:J] / sums[J:])
    if np.isnan(llr).any():
        raise ValueError(
            f"{trellis.name} BCJR with the {metric}: a whole state vector "
            "underflowed to 0 (its metrics span more than a double holds)")
    np.clip(llr, -LLR_SAT, LLR_SAT, out=llr)
    return llr.transpose(1, 2, 0)


def _input_mask(trellis: TrellisSpec) -> np.ndarray:
    return np.broadcast_to([False, True], (trellis.num_states, 2))


def bcjr_decode(trellis: TrellisSpec, gamma: np.ndarray) -> BcjrResult:
    ws = bcjr_forward_backward(trellis, gamma)
    masks = [_input_mask(trellis)] + [
        trellis.output_bits[:, :, j] == 1
        for j in range(trellis.outputs_per_step)]
    llr = _app_llrs(trellis, ws, masks, "a-priori metric")
    return BcjrResult(app_input=llr[..., 0], app_output=llr[..., 1:])


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
    app_in = _app_llrs(trellis, ws, [_input_mask(trellis)],
                       f"OOK metric at sigma2={sigma2:g}")[..., 0]
    return app_in - clamp_llr(prior)




# ---------------------------------------------------------------------------
# Memoryless symbol-MAP decoders
# ---------------------------------------------------------------------------

# Stands for -inf in _logsumexp's running maximum, so that a row of only
# -inf gives exp(-inf - _FLOOR) = 0 rather than exp(-inf + inf) = NaN.
_FLOOR = -1e300


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """Exact log-sum-exp of x (finite or -inf entries) over its last axis.

    max + log(sum exp(x - max)), through numpy's vectorised exp and log,
    with the max and the sum folded over the axis's slices; on the short
    axes of map_lut this is several times faster than
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
