"""The benchmark's references, pinned against brute force and known limits.

    python3 -m pytest -q perfbench/tests
"""

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import reference as ref                                    # noqa: E402


def lse(x):
    x = np.asarray(x, dtype=float)
    m = x.max()
    return m + math.log(np.exp(x - m).sum())


def brute_marginals(words, inputs, metric):
    """Per-position LLRs of `words` / `inputs` over an enumerated list."""
    words, inputs = np.array(words), np.array(inputs)
    metric = np.array(metric)

    def llr(cols):
        return np.array([lse(metric[cols[:, j] == 1])
                         - lse(metric[cols[:, j] == 0])
                         for j in range(cols.shape[1])])
    return llr(inputs), llr(words)


def test_encoders_follow_their_definitions():
    # split-phase: pair i is 10 when the running parity is 1, else 01
    v = [1, 1, 0, 1, 0, 0]
    parity = np.cumsum(v) % 2
    want = np.ravel([(1, 0) if p else (0, 1) for p in parity])
    assert ref.encode(ref.split_phase(), v).tolist() == want.tolist()
    # RSC 5/7: systematic bit, then parity of the 1+D^2 / 1+D+D^2 filter
    u = [1, 0, 1, 1, 0]
    r1 = r2 = 0
    out = []
    for a in u + [None, None]:
        if a is None:
            a = r1 ^ r2
        w = a ^ r1 ^ r2
        out += [a, w ^ r2]
        r1, r2 = w, r1
    assert (r1, r2) == (0, 0)
    assert ref.encode(ref.rsc_5_7(), u).tolist() == out


def test_4b6b_table_is_balanced_and_distinct():
    assert ref.TABLE_4B6B.shape == (16, 6)
    assert (ref.TABLE_4B6B.sum(axis=1) == 3).all()
    assert len({tuple(r) for r in ref.TABLE_4B6B}) == 16


def test_inner_log_map_matches_enumeration():
    rng = np.random.default_rng(5)
    tr, n, sigma2 = ref.split_phase(), 7, 0.4
    v = rng.integers(0, 2, n)
    y = ref.encode(tr, v) + rng.normal(0, math.sqrt(sigma2), 2 * n)
    prior = rng.normal(0, 3, n)
    prior[2] = 80.0                     # beyond the clamp
    inputs = list(itertools.product((0, 1), repeat=n))
    cp = np.clip(prior, -50, 50)
    metric = [-np.sum((y - ref.encode(tr, x)) ** 2) / (2 * sigma2)
              + np.dot(x, cp) for x in inputs]
    app_in, _ = brute_marginals([ref.encode(tr, x) for x in inputs], inputs,
                                metric)
    got = ref.inner_extrinsic(tr, y[None], prior[None], sigma2)[0]
    np.testing.assert_allclose(got, app_in - cp, rtol=0, atol=1e-9)


def test_outer_log_map_matches_enumeration():
    rng = np.random.default_rng(6)
    tr, k = ref.rsc_5_7(), 6
    code_prior = rng.normal(0, 4, (k + 2, 2))
    msgs = list(itertools.product((0, 1), repeat=k))
    words = [ref.encode(tr, u) for u in msgs]
    metric = [np.dot(w, code_prior.ravel()) for w in words]
    # the tail inputs are part of each section's input bit
    inputs = [list(u) + [int(w[2 * k]), int(w[2 * k + 2])]
              for u, w in zip(msgs, words)]
    want_in, want_out = brute_marginals(words, inputs, metric)
    app_in, app_out = ref.outer_app(tr, code_prior[None])
    np.testing.assert_allclose(app_in[0], want_in, rtol=0, atol=1e-9)
    np.testing.assert_allclose(app_out[0].ravel(), want_out, rtol=0,
                               atol=1e-9)


def test_4b6b_symbol_map_matches_enumeration():
    rng = np.random.default_rng(7)
    sigma2, nsym = 0.3, 2
    y = rng.normal(0.5, 0.6, 6 * nsym)
    prior = rng.normal(0, 2, 4 * nsym)
    msgs = list(itertools.product((0, 1), repeat=4 * nsym))
    words, metric = [], []
    for m in msgs:
        idx = [int("".join(map(str, m[4 * s:4 * s + 4])), 2)
               for s in range(nsym)]
        w = np.concatenate([ref.TABLE_4B6B[i] for i in idx])
        words.append(w)
        metric.append(-np.sum((y - w) ** 2) / (2 * sigma2)
                      + np.dot(m, prior))
    app_in, _ = brute_marginals(words, msgs, metric)
    got = ref.lut_extrinsic(ref.TABLE_4B6B, y[None], prior[None], sigma2)[0]
    np.testing.assert_allclose(got, app_in - prior, rtol=0, atol=1e-9)


def test_ook_capacity_limits():
    assert ref.ook_mutual_information(1e-3) == pytest.approx(1.0, abs=1e-9)
    assert ref.ook_mutual_information(1e4) == pytest.approx(
        1 / (8 * 1e4 * math.log(2)), rel=1e-3)
    # As the rate goes to 0 the limit tends to 2 ln 2 (1.42 dB): half of
    # the mean energy of uniform {0, 1} is the constant level 1/2, which
    # carries no information.
    assert ref.ook_shannon_limit_db(1e-3) == pytest.approx(
        10 * math.log10(2 * math.log(2)), abs=0.01)
    limits = [ref.ook_shannon_limit_db(r) for r in (0.1, 1 / 3, 0.5, 0.9)]
    assert limits == sorted(limits)


@pytest.mark.parametrize("sigma2", [0.05, 0.25, 2.0])
def test_ook_capacity_matches_a_fine_grid(sigma2):
    s = math.sqrt(sigma2)
    y = np.linspace(-12 * s, 1 + 12 * s, 400_001)
    p = 0.5 * (np.exp(-y ** 2 / (2 * sigma2))
               + np.exp(-(y - 1) ** 2 / (2 * sigma2))) / math.sqrt(
                   2 * math.pi * sigma2)
    h_y = -np.trapezoid(p * np.log2(p), y)
    want = h_y - 0.5 * math.log2(2 * math.pi * math.e * sigma2)
    assert ref.ook_mutual_information(sigma2) == pytest.approx(want,
                                                               abs=1e-8)


@pytest.mark.parametrize("x,n,lo,hi", [
    # Newcombe, Statistics in Medicine 17 (1998) 857, Table I, method 3
    (81, 263, 0.2553, 0.3662), (15, 148, 0.0624, 0.1605),
    (0, 20, 0.0, 0.1611), (1, 29, 0.0061, 0.1718)])
def test_wilson_known_values(x, n, lo, hi):
    got = ref.wilson_interval(x, n)
    assert got == pytest.approx((lo, hi), abs=5e-5)


def test_wilson_inverts_the_score_test():
    z = 1.959963984540054
    for x, n in [(0, 10), (3, 50), (188, 409_400), (50, 50)]:
        for p in ref.wilson_interval(x, n):
            if 0 < p < 1:
                assert abs(x / n - p) == pytest.approx(
                    z * math.sqrt(p * (1 - p) / n), rel=1e-9)
