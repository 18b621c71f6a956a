"""Soft-in/soft-out decoders.

Exact MAP BCJR over any TrellisSpec, with the on-off-keying channel metric
(inner line codes) or a pure a-priori LLR metric (outer FEC decoder, which
has no channel port); memoryless block codes (Manchester, 4B6B) get direct
per-symbol MAP.  Every OOK observation is scored through _ook_metric, the
exact Gaussian log-likelihood, under which OOK_MIDPOINT is an erasure.

All decoders are batched: leading axis = independent blocks.  LLR sign
convention is L = ln P(bit=1)/P(bit=0).  Priors are clamped to +-LLR_CLAMP
before exponentiation; the BCJR's extrinsic outputs subtract the clamped
prior, and map_lut leaves each bit's own prior out, so the exclusion is
exact.

The BCJR runs in the probability domain: each section's log metrics are
shifted by their maximum and exponentiated once, the forward and backward
recursions only multiply and add, and every step divides its state vector
by its largest entry.  The metric tables are stored edge-major,
(S, A, B, n), and the weights list each state's edges in destination
order: every trellis the scan accepts (_edge_order) then has its j-th edge
out of state s enter state j*(S/A) + s//A, so the edges into a state are
one slice of the edge products, and an alpha step sums slices with no
gather (_destination_views); beta gathers its state vector by the reordered
next_state.  alpha and beta are stored state-major, (S, B, n+1).  Both
recursions run as one chunked scan (_scan), which copies the weights once
per level, time-major: each chunk's transfer matrix is computed once per
call, alpha crosses a chunk by it and beta by its transpose, and the pass
over the chunk boundaries is the same scan one level down, on the dense
trellis of the transfers.  Numerical contract:

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

from .channel import OOK_MIDPOINT, check_sigma2
from .codes import LutCodeSpec, TrellisSpec

LLR_CLAMP = 50.0
# Magnitude of a BCJR LLR one side of which underflowed: that side is 0, or
# so small against the other that their ratio overflows (|L| > 709.7).
# Every LLR the ratio expresses stays below it.
LLR_SAT = 750.0


def clamp_llr(x: np.ndarray) -> np.ndarray:
    return np.clip(x, -LLR_CLAMP, LLR_CLAMP)


def _check_finite(name, x):
    if not np.isfinite(x).all():
        raise ValueError(f"non-finite values in {name}")


# ---------------------------------------------------------------------------
# Transition metrics
# ---------------------------------------------------------------------------

def _ook_metric(ys: np.ndarray, sigma2: float) -> np.ndarray:
    """OOK channel metric of a 1 at each observed label bit, (y - 1/2) /
    sigma^2, shaped like ys.

    A 0/1 label c scores sum_j c_j (y_j - 1/2) / sigma^2, the product of
    this with c, which each caller takes in the layout it reads.  That is
    the Gaussian -|y - c|^2 / (2 sigma^2) up to a term equal for every
    label, so it is exact for any label weight and 0 for all labels at
    y = OOK_MIDPOINT.
    """
    g = ys - OOK_MIDPOINT
    g /= sigma2
    return g


def gamma_table_ook(trellis: TrellisSpec, y: np.ndarray, prior: np.ndarray,
                    sigma2: float) -> np.ndarray:
    """Vectorized OOK metric table, shape (B, n_sections, S, A): the OOK
    metric of each transition's output label plus input_bit * prior.
    Stored edge-major, (S, A, B, n_sections), as the BCJR reads it."""
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
    labels = trellis.output_bits.reshape(S * A, n_out).astype(np.float64)
    g = (labels @ _ook_metric(y, sigma2).reshape(B * n, n_out).T
         ).reshape(S, A, B, n)
    g[:, 1] += clamp_llr(prior)
    return g.transpose(2, 3, 0, 1)


def gamma_table_llr(trellis: TrellisSpec,
                    code_prior: np.ndarray) -> np.ndarray:
    """Vectorized a-priori-only metric table, shape (B, n_sections, S, A),
    stored edge-major like gamma_table_ook's.

    code_prior: (B, n_sections, outputs_per_step) LLRs on the label bits.
    """
    cp = clamp_llr(np.asarray(code_prior, dtype=np.float64))
    _check_finite("code prior", cp)
    S, A, j = trellis.output_bits.shape
    c = trellis.output_bits.reshape(S * A, j).astype(np.float64)
    return (c @ cp.reshape(-1, j).T).reshape(S, A, *cp.shape[:2]
                                            ).transpose(2, 3, 0, 1)


# ---------------------------------------------------------------------------
# BCJR recursions
# ---------------------------------------------------------------------------

@dataclass
class DecoderWorkspace:
    """State and transition weights of one decode pass (probability domain).

    weights[:, l] = exp(gamma[:, l] - max gamma[:, l]): the transition
    weights of section l, largest 1, with each state's edges in destination
    order: weights[:, l, s, j] weighs the edge of state s on input
    _edge_order(trellis)[0][s, j], which enters state
    _edge_order(trellis)[1][s, j].  alpha[:, l] and beta[:, l] are the
    forward and backward state weights at section boundary l, each divided
    by its largest entry.  gamma is the log-domain table the pass was given,
    in input order.  alpha, beta and weights are views of state-major
    storage, (S, B, n+1) and (S, A, B, n).
    """

    alpha: np.ndarray           # (B, n+1, S)
    beta: np.ndarray            # (B, n+1, S)
    gamma: np.ndarray           # (B, n, S, A)
    weights: np.ndarray         # (B, n, S, A)


# Cost model of _scan, in seconds on a 2-core 2.0 GHz Xeon VM (Python 3.11,
# numpy 2.4).  One level over n sections of B blocks, on a trellis with S
# states and A edges into each, in chunks of c (K = n // c of them and
# r = n mod c sections left over), costs
#   _LEVEL_S + _LEVEL_ELEMENT_S * n*S*A*B  (copies and elementwise work)
#   + _SPLIT_ELEMENT_S * n*S*A*B, if K > 1  (the copies gather strided)
#   + _REMAINDER_S, if r > 0
#   + 2 (c + r) phase-3 steps of _STEP_S[1] + _EDGE_S[1] * A each
#   + c phase-1 steps of _STEP_S[0] + _EDGE_S[0] * A
#     + _TRANSFER_ELEMENT_S * S*S*A*B*K each, if K > 1,
#   + the cheapest boundary pass: this model for K sections with A = S.
# The step costs are fitted by least squares on relative error to the
# fastest of 3-5 timings of 32 phase-1 and phase-3 steps, at 1-32768
# chunks on split-phase, the outer code and the dense 4-state trellis
# (median misfit 9 %).  The level costs are then fitted by non-negative
# least squares, with the step costs held fixed, to whole-call timings of
# 1703 chunk plans at 25 shapes (B = 1..770, n = 130..8193), each the
# median of 3 rounds divided by a calibration decode timed next to it
# (median misfit 13 %, 90th percentile 34 %).  The chunking it picks
# changes rounding only (1e-13).
_STEP_S = (5.20e-6, 3.25e-6)
_EDGE_S = (0.93e-6, 1.00e-6)
_TRANSFER_ELEMENT_S = 1.83e-9
_LEVEL_S = 36.1e-6
_LEVEL_ELEMENT_S = 15.3e-9
_SPLIT_ELEMENT_S = 1.6e-9
_REMAINDER_S = 8.8e-6


@lru_cache(maxsize=256)
def _chunk_length(n: int, B: int, S: int, A: int) -> int:
    """Chunk length the cost model rates fastest for a scan of n sections
    of B blocks (see _scan): n (one chunk, the plain recursion) unless a
    split into K >= 2 chunks is predicted to be faster."""
    return _scan_cost(n, B, S, A, {})[1]


def _chunk_plan(n: int, B: int, S: int, A: int) -> tuple[int, ...]:
    """The chunk lengths of every level of the scan of n sections of B
    blocks (see _scan), as the cost model picks them.  Two calls of one
    trellis and length with the same plan do the same arithmetic on each
    block, so a block decodes to the same bits in either."""
    chunk = _chunk_length(n, B, S, A)
    K = n // chunk
    return (chunk,) + (_chunk_plan(K, B, S, S) if K > 1 else ())


def _scan_cost(n: int, B: int, S: int, A: int, memo: dict):
    """(cost, chunk length) of the cheapest scan of n sections by the cost
    model, with the boundary pass priced recursively; memo holds the
    boundary passes priced so far."""
    if (n, A) not in memo:
        c = np.r_[np.arange(2, n // 2 + 1), n]
        K = n // c
        r = n - K * c
        split = K > 1
        cost = (_LEVEL_S + (r > 0) * _REMAINDER_S
                + (_LEVEL_ELEMENT_S + split * _SPLIT_ELEMENT_S) * n * S * A * B
                + 2 * (c + r) * (_STEP_S[1] + _EDGE_S[1] * A)
                + split * c * (_STEP_S[0] + _EDGE_S[0] * A
                               + _TRANSFER_ELEMENT_S * S * S * A * B * K))
        ks, which = np.unique(K, return_inverse=True)
        cost += np.array([_scan_cost(int(k), B, S, S, memo)[0] if k > 1
                          else 0.0 for k in ks])[which]
        i = int(np.argmin(cost))
        memo[n, A] = float(cost[i]), int(c[i])
    return memo[n, A]


def bcjr_forward_backward(trellis: TrellisSpec,
                          gamma: np.ndarray) -> DecoderWorkspace:
    """Run the alpha/beta recursions in the probability domain, as a
    chunked scan whose chunk lengths the cost model picks from the shape."""
    return _forward_backward(trellis, gamma)


def _forward_backward(trellis: TrellisSpec, gamma: np.ndarray,
                      *chunks: int) -> DecoderWorkspace:
    """bcjr_forward_backward with the chunk lengths of the first levels of
    the scan given (see _scan); the levels not given take the cost
    model's."""
    B, n, S, A = gamma.shape
    order, dest = _edge_order(trellis)
    weights = _section_weights(gamma, order)
    alpha = np.empty((S, B, n + 1)).transpose(1, 2, 0)
    alpha[:, 0] = 0.0
    alpha[:, 0, 0] = 1.0
    beta = np.empty((S, B, n + 1)).transpose(1, 2, 0)
    beta[:, n] = 1.0
    if trellis.termination == "tail-to-zero":
        beta[:, n, 1:] = 0.0
    _scan(weights, dest, alpha, beta, chunks)
    return DecoderWorkspace(alpha=alpha, beta=beta, gamma=gamma,
                            weights=weights)


@lru_cache(maxsize=64)
def _edge_order(trellis: TrellisSpec) -> tuple[np.ndarray, np.ndarray]:
    """(order, dest) of the trellis, computed once: see
    _destination_order."""
    return _destination_order(trellis.name, trellis.next_state)


def _destination_order(name: str, next_state) -> tuple[np.ndarray,
                                                        np.ndarray]:
    """(order, dest), each (S, A): order[s] lists the inputs of state s by
    the state they enter, and dest[s, j] = next_state[s, order[s, j]].

    The scan needs dest[s, j] = j*(S/A) + s//A, so that the edges into
    state j*(S/A) + q are those of the states q*A .. q*A + A-1 at position
    j.  Every shift-register code packed with its newest register bit on
    top has that form, and so has the dense trellis; a next_state that
    cannot be put in it raises ValueError naming the trellis.
    """
    next_state = np.asarray(next_state)
    S, A = next_state.shape
    order = np.argsort(next_state, axis=1, kind="stable")
    dest = np.take_along_axis(next_state, order, axis=1)
    if S % A or not np.array_equal(
            dest, np.arange(A) * (S // A) + np.arange(S)[:, None] // A):
        raise ValueError(
            f"trellis {name}: next_state {next_state.tolist()} cannot be "
            "ordered so that state s's j-th edge enters state "
            "j*(S/A) + s//A, as the BCJR scan requires")
    for x in (order, dest):
        x.flags.writeable = False
    return order, dest


def _section_weights(gamma: np.ndarray, order: np.ndarray) -> np.ndarray:
    """exp(gamma - the maximum of its section), (B, n, S, A), with state
    s's edges taken in order[s] (see _destination_order), stored
    edge-major, (S, A, B, n): each edge is a contiguous (B, n) block, read
    from an edge-major table and written in one pass.

    A section maximum that is not finite (a NaN or +inf in the section, or
    every edge at -inf) raises ValueError naming the metric table.
    """
    B, n, S, A = gamma.shape
    top = gamma[..., 0, 0].copy()
    for s, a in np.ndindex(S, A):
        np.maximum(top, gamma[..., s, a], out=top)
    if not np.isfinite(top).all():
        raise ValueError("metric table: a section holds a NaN or +inf, or "
                         "-inf on every edge")
    weights = np.empty((S, A, B, n))
    for s, j in np.ndindex(S, A):
        np.subtract(gamma[..., s, order[s, j]], top, out=weights[s, j])
    np.exp(weights, out=weights)
    return weights.transpose(2, 3, 0, 1)


# Divisor floor of every normalisation: a state vector (or a phase-1 row)
# whose weights all underflowed to 0 is divided by it and stays 0, so no
# step computes 0/0.
_TINY = np.finfo(np.float64).tiny
# the ufunc method itself: ndarray.max adds a Python wrapper to every step
_max_over_states = np.maximum.reduce


def _scan(w, next_state, alpha, beta, chunks) -> None:
    """Sum-product recursions over the sections of w, both directions.

    w[:, l][s, j] weighs the edge of section l from state s to
    next_state[s, j], which is j*(S/A) + s//A (destination order, see
    _destination_order).  Forward, alpha[:, l+1][s] sums
    alpha[:, l][s0] * w over the edges s0 -> s; backward, beta[:, l][s]
    sums beta[:, l+1][s'] * w over the edges s -> s'.  Each boundary's
    vector is divided by its largest entry.  alpha[:, 0] and beta[:, n]
    hold the ends; the rest is written.

    The first K = n // chunk sections form K chunks (chunk = chunks[0],
    else the cost model's); the n mod chunk remaining ones follow.  Each
    part is copied once, time-major, for all phases.
    beta runs over the remainder first, one section per step, and alpha
    last, so that both directions see the same chunks.  Then: (1) each
    chunk's transfer T[s, s0], the weight of its paths from state s0 to
    state s, is computed once, vectorised over chunks; (2) the boundary
    pass gives alpha and beta at every chunk boundary, as this same scan
    one level down (chunk lengths chunks[1:]), on the dense S-state
    trellis whose section k has an edge s0 -> s of weight T_k[s, s0]:
    alpha crosses chunk k by T_k and beta by its transpose; (3) the
    per-section recursions inside every chunk from its true start (alpha)
    and end (beta), vectorised over chunks.  With chunk = n this is the
    plain per-section recursion.  Work arrays are state-major,
    (S, ..., B, K), and each section's slice of the copy is contiguous, so
    that numpy's inner loops run over blocks and chunks rather than over
    the few states.  alpha and beta are stored state-major too, so that
    the posteriors read each state's weights as contiguous rows.
    """
    B, n, S, A = w.shape
    if not n:
        return
    chunk = min(chunks[0] if chunks else _chunk_length(n, B, S, A), n)
    K = n // chunk
    m = K * chunk
    g = _time_major(w[:, :m].reshape(B, K, chunk, S, A))
    if m < n:
        rest = _time_major(w[:, None, m:])
        _recurse(rest[::-1], beta[:, m:n].transpose(1, 2, 0)[::-1, ..., None],
                 beta[:, n].T[..., None], next_state)
    if K > 1:
        _scan(_chunk_transfers(g), _dense_trellis(S),
              alpha[:, :m + 1:chunk], beta[:, :m + 1:chunk], chunks[1:])
    _recurse(g, alpha[:, 1:m + 1].reshape(B, K, chunk, S, copy=False)
             .transpose(2, 3, 0, 1), alpha[:, :m:chunk].transpose(2, 0, 1))
    _recurse(g[::-1], beta[:, :m].reshape(B, K, chunk, S, copy=False)
             .transpose(2, 3, 0, 1)[::-1],
             beta[:, chunk:m + 1:chunk].transpose(2, 0, 1), next_state)
    if m < n:
        _recurse(rest, alpha[:, m + 1:].transpose(1, 2, 0)[..., None],
                 alpha[:, m].T[..., None])


@lru_cache(maxsize=None)
def _dense_trellis(S: int) -> np.ndarray:
    """next_state of the dense S-state trellis: an edge from every state
    to every state s, taken on input s, so already in destination order."""
    return np.indices((S, S))[1]


def _time_major(w) -> np.ndarray:
    """w (B, K, c, S, A) as a contiguous (c, S, A, B, K) array."""
    return w.transpose(2, 3, 4, 0, 1).copy()


def _chunk_transfers(g) -> np.ndarray:
    """Phase 1: the transfers of the K chunks of g (c, S, A, B, K), as the
    weights (B, K, S0, S) of the dense trellis: entry [b, k, s0, s] is the
    weight of the paths through chunk k of block b that start in state s0
    and end in state s, relative to the heaviest of them.  A step is
    alpha's (see _recurse), for every start state at once.

    Each start state's row is divided by its own maximum at every step, so
    that a row cannot underflow because another row outweighs it; the log
    of those divisors is added back when the rows are put on one scale.
    """
    c, S, A, B, K = g.shape
    rows = np.zeros((2, S, S, B, K))        # this step's and the next's
    trans = rows[0]
    trans[np.arange(S), np.arange(S)] = 1.0
    divisors = np.empty((c, S, B, K))
    prod = np.empty((S, A, S, B, K))
    edges, states = _destination_views(prod, rows)
    for t in range(c):
        np.multiply(trans[:, None], g[t][:, :, None], out=prod)
        _sum_edges(edges, states[(t + 1) % 2])
        trans = rows[(t + 1) % 2]
        _max_over_states(trans, axis=0, out=divisors[t], initial=_TINY)
        trans /= divisors[t]
    log_scale = np.log(divisors).sum(axis=0)
    log_scale -= log_scale.max(axis=0)
    trans *= np.exp(log_scale, out=log_scale)
    return trans.transpose(2, 3, 1, 0)


def _destination_views(prod, states):
    """The views through which an alpha step sums its edge products into
    the states they enter, with no gather: prod (S, A, ...), in
    destination order, as edges[q, i, j], and states (T, S, ...) as
    states[t][q, j].  Edge j of state q*A + i enters state j*(S/A) + q
    (_destination_order), so summing edges over i into states[t] gives
    each state the sum of its incoming edges, in ascending source state.
    """
    S, A = prod.shape[:2]
    return (prod.reshape(S // A, A, A, *prod.shape[2:]),
            states.reshape(len(states), A, S // A, *states.shape[2:])
            .swapaxes(1, 2))


def _sum_edges(x, out) -> None:
    """out = x[:, 0] + x[:, 1] + ..., summed in that order."""
    np.add(x[:, 0], x[:, 1], out=out)
    for i in range(2, x.shape[1]):
        out += x[:, i]


def _recurse(g, out, cur, next_state=None) -> None:
    """Phase 3: the per-section recursion, in all K chunks at once.

    g (c, S, A, B, K), in destination order; cur (S, B, K) holds the chunk
    starts; out (c, S, B, K) receives each section's state weights,
    divided by their largest entry.  With next_state (beta), a step weighs
    edge (s, j) by the state it enters and sums the edges out of s;
    without (alpha), it weighs each edge by the state it leaves and sums
    the edges into each state (_destination_views).  The steps write a
    contiguous buffer, copied to out at the end.
    """
    buf = np.empty(out.shape)
    prod = np.empty(g.shape[1:])
    edges, states = _destination_views(prod, buf)
    for t in range(g.shape[0]):
        if next_state is None:
            np.multiply(cur[:, None], g[t], out=prod)
            _sum_edges(edges, states[t])
        else:
            np.take(cur, next_state, axis=0, out=prod)
            prod *= g[t]
            _sum_edges(prod, buf[t])
        cur = buf[t]
        cur /= _max_over_states(cur, axis=0, initial=_TINY)
    out[...] = buf


@dataclass
class BcjrResult:
    app_input: np.ndarray       # (B, n) a-posteriori LLRs of input bits
    app_output: np.ndarray      # (B, n, n_out) a-posteriori LLRs of label bits


def _app_llrs(trellis: TrellisSpec, ws: DecoderWorkspace, masks: np.ndarray,
              metric: str) -> np.ndarray:
    """A-posteriori LLRs, (B, n, J), for the J bits of a _posterior_masks
    matrix: log(sum of the transition posteriors alpha * weight * beta'
    where the bit is 1) - log(the sum where it is 0), clipped at +-LLR_SAT.

    A side that underflowed to 0 gives +-LLR_SAT; both sides 0 means a
    whole state vector underflowed, and raises ValueError naming the
    trellis and `metric`.
    """
    B, n, _ = ws.alpha[:, 1:].shape
    _, dest = _edge_order(trellis)
    # edge-major (S, A, B, n) in destination order, like weights
    post = ws.beta[:, 1:].transpose(2, 0, 1)[dest]
    post *= ws.weights.transpose(2, 3, 0, 1)
    post *= ws.alpha[:, :-1].transpose(2, 0, 1)[:, None]
    J = len(masks) // 2
    sums = (masks @ post.reshape(masks.shape[1], B * n)).reshape(2 * J, B, n)
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


@lru_cache(maxsize=64)
def _posterior_masks(trellis: TrellisSpec, outputs: bool) -> np.ndarray:
    """The 0/1 matrix, (2J, S*A), that _app_llrs sums the transition
    posteriors with, built once per trellis and mask set: the input bit
    and, with `outputs`, each label bit in turn.  Row j selects the edges
    on which bit j is 1 and row J + j those on which it is 0, each state's
    edges in destination order (_edge_order).  Read-only."""
    S, A = trellis.next_state.shape
    masks = [_input_mask(trellis)]
    if outputs:
        masks += [trellis.output_bits[:, :, j] == 1
                  for j in range(trellis.outputs_per_step)]
    order, _ = _edge_order(trellis)
    ones = np.stack([np.take_along_axis(m, order, axis=1).reshape(S * A)
                     for m in masks])
    matrix = np.vstack([ones, ~ones]).astype(float)
    matrix.flags.writeable = False
    return matrix


def bcjr_decode(trellis: TrellisSpec, gamma: np.ndarray) -> BcjrResult:
    ws = bcjr_forward_backward(trellis, gamma)
    llr = _app_llrs(trellis, ws, _posterior_masks(trellis, True),
                    "a-priori metric")
    return BcjrResult(app_input=llr[..., 0], app_output=llr[..., 1:])


def bcjr_extrinsic(trellis: TrellisSpec, *, observations, prior,
                   sigma2: float) -> np.ndarray:
    """Extrinsic LLRs on the trellis input bits of an inner line code.

    From OOK `observations` of the label bits, input-bit `prior` LLRs and
    the noise variance `sigma2`; the result is app(input) minus the
    clamped prior.
    """
    prior = np.atleast_2d(np.asarray(prior, np.float64))
    gamma = gamma_table_ook(trellis, observations, prior, sigma2)
    ws = bcjr_forward_backward(trellis, gamma)
    app_in = _app_llrs(trellis, ws, _posterior_masks(trellis, False),
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
    out = np.full(total.shape, -np.inf)
    np.log(total, out=out, where=total > 0)
    out += m
    return out


def map_lut(spec: LutCodeSpec, y: np.ndarray, prior: np.ndarray, *,
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
    prior = clamp_llr(np.atleast_2d(np.asarray(prior, np.float64)))
    _check_finite("prior", prior)
    pr = prior.reshape(B, nsym, iw)

    ch = (_ook_metric(y.reshape(B, nsym, ow), sigma2)
          @ spec.table.astype(np.float64).T)
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
