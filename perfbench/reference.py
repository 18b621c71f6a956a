"""Reference computations that the benchmark checks vlclink's outputs against.

Everything here is written from the definitions, apart from the library: it
imports nothing from vlclink and shares none of its code.

- a log-MAP BCJR over dense per-section log transition matrices, normalised
  by log-sum-exp (the library gathers incoming edges and normalises by max);
- a 4B6B symbol-MAP that enumerates the 16 codewords one at a time;
- the Shannon limit of equiprobable on-off keying over AWGN, from the mutual
  information by numerical integration;
- the Wilson score interval, as the roots of its defining quadratic.

Conventions follow the simulator's documented ones: LLR = ln P(1)/P(0), a
priori LLRs are clamped to +-50 before use, the OOK channel sends amplitude
0 or 1, and Eb/N0 = Es / (2 R sigma^2) with Es the mean symbol energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

LLR_CLAMP = 50.0


# ---------------------------------------------------------------------------
# Codes, from their textbook definitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Trellis:
    next_state: np.ndarray      # (S, 2) state reached on input bit a
    labels: np.ndarray          # (S, 2, n_out) output bits of that edge
    terminated: bool            # the encoder ends in state 0


def split_phase() -> Trellis:
    """Differential encoding followed by Manchester: the state is the parity
    of the inputs so far, and parity 1 sends 10, parity 0 sends 01."""
    nxt = np.array([[p ^ a for a in (0, 1)] for p in (0, 1)])
    labels = np.array([[(1, 0) if nxt[p, a] else (0, 1) for a in (0, 1)]
                       for p in (0, 1)])
    return Trellis(nxt, labels, terminated=False)


def rsc_5_7() -> Trellis:
    """Recursive systematic code with feedback 1+D+D^2 and feedforward
    1+D^2; the state is 2*r1 + r2 for shift registers r1 (newest), r2."""
    nxt = np.zeros((4, 2), dtype=np.int64)
    labels = np.zeros((4, 2, 2), dtype=np.int64)
    for r1 in (0, 1):
        for r2 in (0, 1):
            for a in (0, 1):
                w = a ^ r1 ^ r2
                nxt[2 * r1 + r2, a] = 2 * w + r1
                labels[2 * r1 + r2, a] = (a, w ^ r2)
    return Trellis(nxt, labels, terminated=True)


def encode(trellis: Trellis, bits) -> np.ndarray:
    """Encoder output of one input sequence; a terminated trellis appends
    the inputs that zero the feedback (a = r1 ^ r2) until it is in state 0."""
    state, out = 0, []
    for a in bits:
        out.extend(trellis.labels[state, a])
        state = trellis.next_state[state, a]
    if trellis.terminated:
        for _ in range(2):
            a = (state >> 1) ^ (state & 1)
            out.extend(trellis.labels[state, a])
            state = trellis.next_state[state, a]
        assert state == 0
    return np.array(out, dtype=np.int64)


# IEEE 802.15.7 4B6B table, row i = codeword of the 4-bit value i (MSB first).
TABLE_4B6B = np.array([[int(c) for c in w] for w in (
    "001110 001101 010011 010110 010101 100011 100110 100101 "
    "011001 011010 011100 110001 110010 101001 101010 101100").split()])


# ---------------------------------------------------------------------------
# Metrics and log-MAP decoding
# ---------------------------------------------------------------------------

def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along one axis; -inf where every term is -inf."""
    top = np.max(x, axis=axis, keepdims=True)
    safe = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        total = np.log(np.sum(np.exp(x - safe), axis=axis, keepdims=True))
    return np.squeeze(safe + total, axis=axis)


def clamp(llr) -> np.ndarray:
    return np.clip(np.asarray(llr, dtype=np.float64), -LLR_CLAMP, LLR_CLAMP)


def ook_loglik(y: np.ndarray, c: np.ndarray, sigma2: float) -> np.ndarray:
    """Gaussian log-likelihood ln p(y | c) summed over the last axis, up to
    a constant that does not depend on c."""
    return -np.sum((y - c) ** 2, axis=-1) / (2.0 * sigma2)


def log_map(trellis: Trellis, branch: np.ndarray):
    """A-posteriori LLRs of the input and output bits of every section.

    branch: (B, n, S, 2) log metric of each edge.  Returns app_in (B, n)
    and app_out (B, n, n_out).
    """
    B, n, S, _ = branch.shape
    # dense log transition matrices, -inf where no edge joins s to t
    trans = np.full((B, n, S, S), -np.inf)
    for s in range(S):
        for a in (0, 1):
            trans[:, :, s, trellis.next_state[s, a]] = branch[:, :, s, a]

    fwd = np.full((B, n + 1, S), -np.inf)
    fwd[:, 0, 0] = 0.0
    for l in range(n):
        f = _lse(fwd[:, l, :, None] + trans[:, l], axis=1)
        fwd[:, l + 1] = f - _lse(f, axis=1)[:, None]
    bwd = np.full((B, n + 1, S), -np.inf)
    if trellis.terminated:
        bwd[:, n, 0] = 0.0
    else:
        bwd[:, n] = 0.0
    for l in range(n - 1, -1, -1):
        b = _lse(trans[:, l] + bwd[:, l + 1, None, :], axis=2)
        bwd[:, l] = b - _lse(b, axis=1)[:, None]

    edge = np.empty((B, n, S, 2))
    for s in range(S):
        for a in (0, 1):
            edge[:, :, s, a] = (fwd[:, :n, s] + branch[:, :, s, a]
                                + bwd[:, 1:, trellis.next_state[s, a]])
    flat = edge.reshape(B, n, 2 * S)

    def llr(bit_of_edge):
        one = bit_of_edge.reshape(-1) == 1
        return _lse(flat[..., one], axis=-1) - _lse(flat[..., ~one], axis=-1)

    app_in = llr(np.broadcast_to(np.array([0, 1]), (S, 2)))
    app_out = np.stack([llr(trellis.labels[..., j])
                        for j in range(trellis.labels.shape[-1])], axis=-1)
    return app_in, app_out


def inner_extrinsic(trellis: Trellis, y, prior, sigma2: float) -> np.ndarray:
    """Extrinsic LLRs on the inputs of a line-code trellis seen over OOK."""
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    prior = clamp(np.atleast_2d(prior))
    n_out = trellis.labels.shape[-1]
    B, n = prior.shape
    ys = y.reshape(B, n, 1, 1, n_out)
    branch = ook_loglik(ys, trellis.labels, sigma2)
    branch = branch + prior[:, :, None, None] * np.array([0.0, 1.0])
    app_in, _ = log_map(trellis, branch)
    return app_in - prior


def outer_app(trellis: Trellis, code_prior):
    """A-posteriori LLRs of a channel-free decoder fed a priori LLRs on its
    code bits, code_prior of shape (B, n, n_out)."""
    cp = clamp(code_prior)
    branch = np.einsum("blj,saj->blsa", cp, trellis.labels.astype(float))
    return log_map(trellis, branch)


def lut_extrinsic(table: np.ndarray, y, prior, sigma2: float) -> np.ndarray:
    """Per-input-bit extrinsic of a block code by enumerating its codewords."""
    table = np.asarray(table)
    n_words, ow = table.shape
    iw = int(np.log2(n_words))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    B = y.shape[0]
    ys = y.reshape(B, -1, ow)
    pr = clamp(np.atleast_2d(prior)).reshape(B, -1, iw)
    bits = [[(x >> (iw - 1 - j)) & 1 for j in range(iw)]
            for x in range(n_words)]
    metric = np.stack([ook_loglik(ys, table[x], sigma2)
                       + pr @ np.array(bits[x], dtype=float)
                       for x in range(n_words)], axis=-1)
    ext = np.empty_like(pr)
    for j in range(iw):
        one = np.array([b[j] == 1 for b in bits])
        ext[..., j] = (_lse(metric[..., one], axis=-1)
                       - _lse(metric[..., ~one], axis=-1) - pr[..., j])
    return ext.reshape(B, -1)


# ---------------------------------------------------------------------------
# Channel capacity and confidence intervals
# ---------------------------------------------------------------------------

def ook_mutual_information(sigma2: float) -> float:
    """I(X; Y) in bits for X uniform on {0, 1} and Y = X + N(0, sigma2),
    as h(Y) - h(Y | X) with h(Y) integrated numerically."""
    # scipy is imported here, not at the top: the benchmark reads its peak
    # memory before it computes any limit.
    from scipy import integrate

    s = math.sqrt(sigma2)
    norm = 0.5 / math.sqrt(2.0 * math.pi * sigma2)

    def neg_plogp(y):
        p = norm * (math.exp(-y * y / (2.0 * sigma2))
                    + math.exp(-(y - 1.0) ** 2 / (2.0 * sigma2)))
        return -p * math.log2(p) if p > 0.0 else 0.0

    h_y, _ = integrate.quad(neg_plogp, -12.0 * s, 1.0 + 12.0 * s,
                            points=[0.0, 0.5, 1.0], limit=400,
                            epsabs=1e-13, epsrel=1e-12)
    h_noise = 0.5 * math.log2(2.0 * math.pi * math.e * sigma2)
    return float(h_y - h_noise)


def ook_shannon_limit_db(rate: float, es: float = 0.5) -> float:
    """Smallest Eb/N0 (dB) at which uniform OOK can carry `rate` bits per
    channel use, with Eb/N0 = Es / (2 rate sigma^2)."""
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie in (0, 1)")
    from scipy import optimize

    log_s2 = optimize.brentq(
        lambda t: ook_mutual_information(np.exp(t)) - rate, -12.0, 12.0,
        xtol=1e-12)
    return float(10.0 * np.log10(es / (2.0 * rate * np.exp(log_s2))))


def wilson_interval(successes: int, n: int,
                    confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval: the p with |x/n - p| = z sqrt(p (1-p) / n),
    the two roots of (n + z^2) p^2 - (2x + z^2) p + x^2 / n = 0."""
    if n <= 0 or not 0 <= successes <= n:
        raise ValueError("need 0 <= successes <= n and n > 0")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    x = float(successes)
    root = z * np.sqrt(z * z + 4.0 * x * (n - x) / n)
    return ((2.0 * x + z * z - root) / (2.0 * (n + z * z)),
            (2.0 * x + z * z + root) / (2.0 * (n + z * z)))
