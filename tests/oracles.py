"""Independent brute-force references used by the decoder tests.

Everything here marginalizes by explicit enumeration of all candidate input
sequences, computing path metrics directly from the metric definitions
(not via the production gamma tables or recursions).  The error-floor bound
at the end likewise enumerates code structure and never calls a decoder.
"""

from math import erfc, sqrt

import numpy as np

from vlclink import codes, siso


def gamma_ook(y, label_bits, input_bit, prior, sigma2) -> float:
    """Log transition metric for OOK observations of one trellis section.

    input_bit * prior - sum_j (y_j - c_j)^2 / (2 sigma^2) over the bits c_j
    of the transition's output label (the Gaussian log-likelihood up to a
    constant); the prior is clamped to +-siso.LLR_CLAMP as the decoders
    clamp it.
    """
    if not (np.isfinite(sigma2) and sigma2 > 0):
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    y = np.asarray(y, dtype=np.float64)
    c = np.asarray(label_bits, dtype=np.float64)
    ch = -float(np.sum((y - c) ** 2)) / (2.0 * sigma2)
    return float(input_bit) * float(np.clip(prior, -siso.LLR_CLAMP,
                                            siso.LLR_CLAMP)) + ch


def gamma_llr(label_bits, label_priors, input_prior=0.0) -> float:
    """Log transition metric from per-bit a-priori LLRs only (clamped)."""
    c = np.asarray(label_bits, dtype=np.float64)
    lp = np.clip(np.asarray(label_priors, dtype=np.float64),
                 -siso.LLR_CLAMP, siso.LLR_CLAMP)
    return float(np.sum(c * lp)) + float(np.clip(input_prior,
                                                 -siso.LLR_CLAMP,
                                                 siso.LLR_CLAMP))


def all_bit_vectors(n):
    """(2^n, n) array of every n-bit input, MSB first."""
    x = np.arange(1 << n, dtype=np.uint32)
    return ((x[:, None] >> (n - 1 - np.arange(n))) & 1).astype(np.uint8)


def ook_path_metric(c_bits, y, sigma2):
    """Gaussian log-likelihood of one whole coded sequence, up to a
    constant: -sum (y - c)^2 / (2 sigma^2)."""
    c = np.asarray(c_bits, dtype=float)
    y = np.asarray(y, dtype=float)
    return -float(np.sum((y - c) ** 2)) / (2.0 * sigma2)


def _marginalize(inputs, metrics, prior=None):
    """Per-bit log-sum-exp split of path metrics; columns = bit positions."""
    m = metrics[:, None]
    lse1 = np.where(inputs == 1, m, -np.inf)
    lse0 = np.where(inputs == 0, m, -np.inf)
    out = (np.logaddexp.reduce(lse1, axis=0)
           - np.logaddexp.reduce(lse0, axis=0))
    if prior is not None:
        out = out - np.asarray(prior, dtype=float)
    return out


def exhaustive_inner_extrinsic(trellis, y, prior, sigma2, observed=None):
    """Extrinsic LLRs of a line-code block by enumerating all inputs.

    observed: the line-bit positions that y observes, in order (all of
    them if None); the others enter no metric.
    """
    n = len(prior)
    inputs = all_bit_vectors(n)
    coded = codes.encode(trellis, inputs).astype(float)
    if observed is not None:
        coded = coded[:, observed]
    y = np.asarray(y, dtype=float)
    metrics = (-((y - coded) ** 2).sum(axis=1) / (2.0 * sigma2)
               + inputs @ np.asarray(prior, dtype=float))
    return _marginalize(inputs, metrics, prior)


def exhaustive_outer_extrinsic(trellis, code_prior, k):
    """Per-code-bit extrinsic and per-info-bit APP of the terminated FEC
    code, by enumerating all 2^k messages.

    code_prior: (steps, 2) LLRs on the code bits (tail steps included).
    """
    steps = code_prior.shape[0]
    msgs = all_bit_vectors(k)
    coded = codes.encode(trellis, msgs)                    # (2^k, steps*2)
    metrics = coded.astype(float) @ code_prior.ravel()
    ext = _marginalize(coded, metrics).reshape(steps, 2) - code_prior
    app = _marginalize(msgs, metrics)
    return ext, app


def exhaustive_lut_extrinsic(spec, y, prior, sigma2):
    """Per-input-bit extrinsic of a LUT code, plain-loop reimplementation."""
    iw, ow = spec.input_width, spec.output_width
    nsym = len(y) // ow
    out = np.zeros(nsym * iw)
    inputs = all_bit_vectors(iw)
    table = np.asarray(spec.table, dtype=float)
    for s in range(nsym):
        ys = np.asarray(y[s * ow:(s + 1) * ow], dtype=float)
        ps = np.asarray(prior[s * iw:(s + 1) * iw], dtype=float)
        metrics = (-((ys - table) ** 2).sum(axis=1) / (2.0 * sigma2)
                   + inputs @ ps)
        out[s * iw:(s + 1) * iw] = _marginalize(inputs, metrics, ps)
    return out


def exhaustive_manchester_extrinsic(y, prior, sigma2):
    n = len(prior)
    out = np.zeros(n)
    for l in range(n):
        yl = y[2 * l:2 * l + 2]
        m1 = ook_path_metric([1, 0], yl, sigma2)
        m0 = ook_path_metric([0, 1], yl, sigma2)
        out[l] = m1 - m0
    return out


# -------------------------------------------------------------------------
# Error-floor union bound of the serial chain outer code -> interleaver ->
# block line code -> OOK/AWGN (Benedetto, Divsalar, Montorsi & Pollara,
# IEEE T-IT 1998), truncated at a maximum outer error-event weight.
# -------------------------------------------------------------------------

def committed_4b6b_table():
    """The 4B6B table the chain encodes with, as a (16, 6) bit array."""
    return codes.build_4b6b().table


def outer_distance_spectrum(trellis, d_max):
    """{d: B_d} for every coded weight d <= d_max of a one-input trellis.

    B_d sums the input weight of all error events of output weight d that
    start at one fixed step: paths that leave state 0 on input 1 and end on
    their first return to state 0.  Enumerated depth first; this terminates
    because a non-catastrophic code gains output weight on every cycle that
    avoids state 0.
    """
    spectrum = {}

    def walk(state, d, w):
        if state == 0:
            spectrum[d] = spectrum.get(d, 0) + w
            return
        for u in (0, 1):
            dd = d + int(trellis.output_bits[state, u].sum())
            if dd <= d_max:
                walk(int(trellis.next_state[state, u]), dd, w + u)

    d0 = int(trellis.output_bits[0, 1].sum())
    if d0 <= d_max:
        walk(int(trellis.next_state[0, 1]), d0, 1)
    return dict(sorted(spectrum.items()))


def lut_flip_distances(table):
    """Codeword Hamming distance for each (input word, flipped input bit).

    table: (2^m, n) bit array indexed by the m-bit input word, MSB first.
    Returns a flat int array of length 2^m * m.
    """
    table = np.asarray(table, dtype=np.int64)
    m = int(table.shape[0]).bit_length() - 1
    words = np.arange(table.shape[0])
    return np.concatenate([(table[words] != table[words ^ (1 << b)])
                           .sum(axis=1) for b in range(m)])


def serial_union_bound(spectrum, flip_distances, sigma2):
    """Truncated union bound on the information BER of the serial chain.

    Each of the d flipped outer code bits of an error event lands in its
    own line-code symbol (the uniform-interleaver, long-block limit), at a
    uniformly drawn input word and bit position, so it moves the channel
    word by a draw from `flip_distances`.  Two OOK words that differ in D
    positions are sqrt(D) apart, so their pairwise error probability under
    noise variance sigma2 is Q(sqrt(D) / (2 sigma)).
    """
    pmf = np.bincount(flip_distances) / len(flip_distances)
    total = 0.0
    dist = np.ones(1)                    # law of D after d flips
    for d in range(1, max(spectrum) + 1):
        dist = np.convolve(dist, pmf)
        if d in spectrum:
            pep = [0.5 * erfc(sqrt(D / (8.0 * sigma2)))
                   for D in range(len(dist))]
            total += spectrum[d] * float(dist @ pep)
    return total
