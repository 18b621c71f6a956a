"""EXIT-chart machinery: Gaussian a-priori modeling, mutual-information
estimation, component transfer curves, convergence-threshold search, and
decoder trajectories.

A-priori LLRs follow the Gaussian-consistent model: given a bit b, the
prior is N((2b-1) sigma_a^2 / 2, sigma_a^2).  J(sigma_a) maps that model's
standard deviation to mutual information; curves are Monte-Carlo measured
with the time-average estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import codes, pipeline, siso
from .channel import check_sigma2, ook_modulate

LN2 = np.log(2.0)

DEFAULT_GRID = np.concatenate([np.arange(0.0, 1.0, 0.05), [0.999]])


# ---------------------------------------------------------------------------
# J function and MI estimation
# ---------------------------------------------------------------------------

_HERM_X, _HERM_W = np.polynomial.hermite.hermgauss(96)


def j_function(sigma_a: float) -> float:
    """Mutual information of a Gaussian-consistent LLR with std sigma_a:
    1.0, the limit, at +inf; a negative or NaN sigma_a raises."""
    s = float(sigma_a)
    if not s >= 0:                      # also true for NaN
        raise ValueError(f"sigma_a must be >= 0, got {sigma_a!r}")
    if s == 0.0:
        return 0.0
    if s == np.inf:
        return 1.0
    # L = s^2/2 + s * z, z ~ N(0,1); E[] by Gauss-Hermite (z = sqrt(2) x)
    l_vals = s * s / 2.0 + s * np.sqrt(2.0) * _HERM_X
    integrand = np.logaddexp(0.0, -l_vals) / LN2
    val = 1.0 - float(_HERM_W @ integrand) / np.sqrt(np.pi)
    return min(max(val, 0.0), 1.0)


@lru_cache(maxsize=256)
def j_inverse(i: float) -> float:
    """Inverse of j_function on [0, 1): 0.0 at i = 0 (no prior drawn),
    else the double s with j_function(previous double) < i <= j_function(s),
    by bisection to adjacent doubles (about 60 j_function calls; cached)."""
    if not 0.0 <= i < 1.0:
        raise ValueError("mutual information must be in [0, 1)")
    if i == 0.0:
        return 0.0
    lo, hi = 0.0, 20.0          # j_function(lo) < i <= j_function(hi) == 1
    while (mid := (lo + hi) / 2.0) not in (lo, hi):
        if j_function(mid) < i:
            lo = mid
        else:
            hi = mid
    return hi


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)), through numpy's
    vectorised exp and log1p; np.logaddexp(0, x) calls the scalar libm
    functions and is several times slower."""
    out = np.abs(x)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def measure_mi(llrs: np.ndarray, truth: np.ndarray) -> float:
    """Time-average mutual-information estimate of an LLR sequence: the one
    row of measure_mi_rows on the flattened arrays.

    An LLR of +-inf is a saturated decision and counts as certain; a NaN
    LLR, or truth that is not all bits, raises a ValueError.
    """
    llrs = np.asarray(llrs, dtype=np.float64).ravel()
    truth = np.asarray(truth).ravel()
    if llrs.size != truth.size:
        raise ValueError("LLR and truth lengths differ")
    if not ((truth == 0) | (truth == 1)).all():
        raise ValueError("truth must hold only bits 0 and 1")
    return float(measure_mi_rows(llrs[None], truth[None])[0])


def measure_mi_rows(llrs: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Time-average mutual-information estimate of each row of an (R, n)
    LLR array against the bits of `truth`, of the same shape: one _softplus
    pass over the array and one mean per row, each row's the mean of that
    row alone.  A row of no LLRs measures 0.

    An LLR of +-inf is a saturated decision and counts as certain; a NaN
    LLR raises a ValueError.
    """
    # C order, so that each row's mean sums its row as a 1-D array would
    llrs = np.ascontiguousarray(llrs, dtype=np.float64)
    truth = np.ascontiguousarray(truth)
    if llrs.ndim != 2 or llrs.shape != truth.shape:
        raise ValueError(f"LLRs of shape {llrs.shape} and truth of shape "
                         f"{truth.shape}: both must be the same (R, n)")
    if llrs.shape[1] == 0:
        return np.zeros(len(llrs))
    signed = (2.0 * truth - 1.0) * llrs
    means = np.mean(_softplus(-signed), axis=1)
    if np.isnan(means).any():   # +-inf LLRs (saturated decisions) give none
        raise ValueError("LLRs must not be NaN")
    return np.clip(1.0 - means / LN2, 0.0, 1.0)


def sample_priors(truth: np.ndarray, sigma_a: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw Gaussian-consistent a-priori LLRs for known bits; sigma_a
    must be finite and >= 0."""
    if not 0.0 <= sigma_a < np.inf:     # also false for NaN
        raise ValueError(f"sigma_a must be finite and >= 0, got {sigma_a!r}")
    truth = np.asarray(truth, dtype=np.float64)
    if sigma_a == 0.0:
        return np.zeros_like(truth)
    mean = (2.0 * truth - 1.0) * sigma_a * sigma_a / 2.0
    return mean + rng.normal(0.0, sigma_a, size=truth.shape)


# ---------------------------------------------------------------------------
# Transfer curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExitCurve:
    component: str
    ebn0_db: float | None           # None for the channel-free outer decoder
    grid: np.ndarray
    values: np.ndarray
    samples_per_point: int

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if g.ndim != 1 or g.size == 0 or v.shape != g.shape:
            raise ValueError(f"grid of shape {g.shape} and values of shape "
                             f"{v.shape}: the grid must be 1-D with at least "
                             "one point, the values of its shape")
        if not np.isfinite(g).all() or (np.diff(g) <= 0).any():
            raise ValueError("grid must be finite and strictly increasing")
        if not ((v >= 0) & (v <= 1)).all():     # also false for NaN
            raise ValueError("curve values must lie in [0, 1]")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)


_INNER_BLOCK = 256      # input bits per independent inner-curve block


def _block_count(samples, block: int) -> int:
    """Blocks of `block` bits that hold at least `samples` bits."""
    if not samples >= 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    return int(np.ceil(samples / block))


@dataclass(frozen=True)
class _InnerDraws:
    """The random inputs of one inner curve that do not depend on sigma2.

    Per grid point (the first axis of every array): messages (nblocks,
    n0) and their line bits, both uint8; unit-variance noise on the line
    bits and a-priori LLRs on the messages, both float64.  Every array is
    read-only, so a decoder cannot change them between noise levels.
    """
    inner: str
    grid: np.ndarray
    messages: np.ndarray
    lines: np.ndarray
    noise: np.ndarray
    priors: np.ndarray


def _draw_inner(inner: str, grid: np.ndarray, samples,
                seed: int) -> _InnerDraws:
    """Draw an inner curve's messages, line bits, noise and priors.

    Each grid point has its own generator, seeded by (seed, point index),
    which draws that point's messages, then the standard-normal noise,
    then the priors; one encoder call serves the grid.  numpy's
    normal(0, s) is 0 + s * standard_normal on the same stream, so scaling
    this noise by sqrt(sigma2) gives the noise channel.awgn would draw.
    """
    if inner not in pipeline.INNER_CODES:
        raise ValueError(f"unknown inner code {inner!r}; choose from "
                         f"{', '.join(pipeline.INNER_CODES)}")
    code = pipeline.INNER_CODES[inner]
    n0 = _INNER_BLOCK
    nblocks = _block_count(samples, n0)
    rngs = [np.random.default_rng([seed, gi]) for gi in range(len(grid))]
    messages = np.stack([rng.integers(0, 2, size=(nblocks, n0)).astype(
        np.uint8) for rng in rngs])
    # the encoder draws no numbers, so each point's generator goes on to
    # its noise and priors unchanged
    lines = code.encode(messages.reshape(-1, n0)).reshape(
        len(grid), nblocks, -1)
    noise = np.empty(lines.shape)
    priors = np.empty(messages.shape)
    for rng, ia, v, z, prior in zip(rngs, grid, messages, noise, priors):
        rng.standard_normal(out=z)
        prior[...] = sample_priors(v, j_inverse(float(ia)), rng)
    for a in (messages, lines, noise, priors):
        a.flags.writeable = False
    return _InnerDraws(inner, grid, messages, lines, noise, priors)


# Blocks per inner-decoder call when several small grid points are decoded
# together.  A call of one point at 5000 samples, 20 blocks x 256 bits, is
# mostly fixed cost.  On a 2-core 2.0 GHz Xeon VM (median of 15
# interleaved rounds), the 420 such blocks of one evaluation of the 21
# DEFAULT_GRID points, decoded in calls of 40 (48), took 0.73x (0.64x) the
# time of calls of 20 for split-phase, 0.68x (0.63x) for BMC and 0.85x
# (0.78x) for 4B6B.  In calls of all 420 they took 0.79x, 0.76x and 1.45x:
# the working set left the 2 MB L2 cache (a 20-block split-phase call
# allocates 0.9 MB at its peak).  Split-phase/BMC calls of 2 to 55 blocks
# of 256 bits take the same chunk plan, and blocks are independent, so
# grouping changes no number above 256 samples.  A point of more than half
# this budget is decoded alone, at its own shape.
_ROWS_PER_CALL = 48


def _decode_points(draws: _InnerDraws, sigma2: float, order: np.ndarray):
    """Decode the grid points of `draws` at noise variance sigma2 in
    `order`, max(1, _ROWS_PER_CALL // blocks) whole points per inner-decoder
    call.  Each point decodes y = line + sqrt(sigma2) * noise, and one
    measure_mi_rows call measures every point's extrinsic mutual
    information on the point's own blocks.  Yields, per call, the indices
    of its points and their values, so a caller can stop between calls."""
    check_sigma2(sigma2)
    code = pipeline.INNER_CODES[draws.inner]
    scale = np.sqrt(sigma2)
    npoints, nblocks, n0 = draws.messages.shape
    per_call = max(1, _ROWS_PER_CALL // nblocks)
    for first in range(0, npoints, per_call):
        points = order[first:first + per_call]
        y = ook_modulate(draws.lines[points]) + scale * draws.noise[points]
        ext = code.extrinsic(y.reshape(-1, y.shape[-1]),
                             draws.priors[points].reshape(-1, n0), sigma2)
        yield points, measure_mi_rows(
            ext.reshape(len(points), -1),
            draws.messages[points].reshape(len(points), -1))


def _inner_at(draws: _InnerDraws, sigma2: float,
              ebn0_db: float | None = None) -> ExitCurve:
    """The inner curve of `draws` at noise variance sigma2: every point
    decoded, in grid order (`_decode_points`)."""
    npoints, nblocks, n0 = draws.messages.shape
    values = [v for _, v in _decode_points(draws, sigma2,
                                           np.arange(npoints))]
    return ExitCurve(component=f"inner:{draws.inner}", ebn0_db=ebn0_db,
                     grid=draws.grid, values=np.concatenate(values),
                     samples_per_point=nblocks * n0)


def inner_curve(inner: str, sigma2: float, grid=None, samples: int = 100_000,
                seed: int = 0, ebn0_db: float | None = None) -> ExitCurve:
    """Measured transfer curve of one inner line-code SISO decoder.

    `samples` counts decoder input bits per grid point.  Each point has
    its own generator, seeded by (seed, point index), which draws its
    messages, channel noise and priors; one encoder call serves the grid
    (`_draw_inner`).  The decoders then run at sigma2 (`_inner_at`).
    """
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, np.float64)
    return _inner_at(_draw_inner(inner, grid, samples, seed), sigma2,
                     ebn0_db=ebn0_db)


_OUTER_BLOCK = 128      # message bits per independent outer-curve block

# Blocks per outer-decoder call when several grid points are decoded
# together.  On a 2-core VM (Python 3.11, numpy 2.4; medians of 21
# interleaved rounds, run twice), an outer_extrinsic call of 20 blocks of
# 130 steps took 100 us a block, of 40 about 65, and of 80 to 390 blocks
# 50-55 (rate 2/3) and 37-55 (unpunctured), with no further gain above 130
# blocks and a bump at 160-200.  The chunk plan, not this budget, limits
# most groups (_outer_points_per_call).
_OUTER_ROWS_PER_CALL = 128


def _outer_points_per_call(outer: codes.TrellisSpec, steps: int,
                           nblocks: int) -> int:
    """Whole grid points of nblocks blocks of `steps` sections per
    outer-decoder call: as many as fit in _OUTER_ROWS_PER_CALL blocks (at
    least one), but no more than keep the BCJR chunk plan of a one-point
    call at every smaller group too, so that every point, the last group's
    included, decodes to the one-point call's bits.  The outer trellis's
    plan is one for 1-3 blocks, one for 4-12, one for 13-81 and the plain
    recursion from 82 on."""
    S, A = outer.next_state.shape
    plan = siso._chunk_plan(steps, nblocks, S, A)
    points = 1
    while ((points + 1) * nblocks <= _OUTER_ROWS_PER_CALL
           and siso._chunk_plan(steps, (points + 1) * nblocks, S, A) == plan):
        points += 1
    return points


def outer_curve(outer: codes.TrellisSpec, puncture: codes.PuncturePattern,
                grid=None, samples: int = 100_000,
                seed: int = 0) -> ExitCurve:
    """Measured transfer curve of the outer FEC decoder (prior-only input).

    Mutual information is measured on the extrinsics of the punctured
    (transmitted) code bits; `samples` counts code bits per point.  Each
    point's generator, seeded by (seed, 7, point index), draws its
    messages, then its priors; one encoder call serves the grid, and each
    outer-decoder call decodes whole points (_outer_points_per_call), each
    to the value a call of that point alone gives.
    """
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, np.float64)
    steps = _OUTER_BLOCK + outer.memory
    steps += -steps % puncture.period
    k0 = steps - outer.memory
    n_kept = int(puncture.mask(steps * outer.outputs_per_step).sum())
    nblocks = _block_count(samples, n_kept)
    rngs = [np.random.default_rng([seed, 7, gi]) for gi in range(len(grid))]
    u = np.concatenate([rng.integers(0, 2, size=(nblocks, k0)).astype(
        np.uint8) for rng in rngs])
    # one encoder call for the whole grid, as in inner_curve
    kept = codes.apply_puncture(codes.encode(outer, u), puncture)
    kept = kept.reshape(len(grid), nblocks * n_kept)
    priors = np.stack([sample_priors(bits, j_inverse(float(ia)), rng)
                       for rng, ia, bits in zip(rngs, grid, kept)])
    per_call = _outer_points_per_call(outer, steps, nblocks)
    values = []
    for first in range(0, len(grid), per_call):
        points = slice(first, first + per_call)
        ext, _ = pipeline.outer_extrinsic(
            outer, puncture, priors[points].reshape(-1, n_kept))
        values.append(measure_mi_rows(ext.reshape(-1, nblocks * n_kept),
                                      kept[points]))
    return ExitCurve(component="outer:cc", ebn0_db=None, grid=grid,
                     values=np.concatenate(values),
                     samples_per_point=nblocks * n_kept)


# ---------------------------------------------------------------------------
# Convergence threshold
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdResult:
    ebn0_db_star: float | None
    tunnel_min_gap: float
    search_resolution_db: float
    found: bool


def _point_gaps(grid: np.ndarray, inner_values: np.ndarray,
                outer: ExitCurve) -> np.ndarray:
    """inner(I) - outer^{ -1 }(I) at each prior MI I of `grid`."""
    # invert the (monotone) outer curve; below its range no prior is needed
    ov, og = outer.values, outer.grid
    order = np.argsort(ov)
    return inner_values - np.interp(grid, ov[order], og[order], left=0.0,
                                    right=1.0)


def _tunnel_gap(inner: ExitCurve, outer: ExitCurve, eps: float) -> float:
    """Minimum of inner(I) - outer^{ -1 }(I) over I in [0, 1 - eps]."""
    sel = inner.grid <= 1.0 - eps + 1e-12
    return float(np.min(_point_gaps(inner.grid[sel], inner.values[sel],
                                    outer)))


def find_threshold(chain: pipeline.ChainConfig,
                   outer_curve_measured: ExitCurve,
                   lo_db: float = 2.0, hi_db: float = 7.0,
                   resolution_db: float = 0.05, samples: int = 100_000,
                   seed: int = 0) -> ThresholdResult:
    """Smallest Eb/N0 with an open decoding tunnel, to within resolution_db.

    The tunnel must be open on DEFAULT_GRID up to I = 0.99: its gap
    inner(I) - outer^{ -1 }(I) must be positive at each of those 20 points
    (`_tunnel_gap` with eps = 0.01); the 0.999 point is neither drawn nor
    decoded.  Bisection over Eb/N0 with common random numbers: the inner
    curve's messages, line bits, unit-variance noise and priors are drawn
    once per search (`_draw_inner`, on the points' own (seed, point index)
    streams), and each Eb/N0 visited only rescales the noise, so every
    point decoded measures exactly the value inner_curve would.

    A bisection step needs only the sign of the minimum gap, and one
    closed point settles it.  So each Eb/N0 decodes one inner-decoder call
    at a time (`_decode_points`) and stops after the first call that holds
    a gap <= 0.  The points go in ascending order of their gap at the
    nearest Eb/N0 already decoded in full, so the pinch point comes first
    (grid order before any).  An open Eb/N0 is always decoded in full, and
    a closed hi_db is finished before it is reported, so every reported
    tunnel_min_gap is the minimum over all 20 points.

    The result is the open end of the last bracket, whose closed end lies
    less than resolution_db below it; it is a bisection point
    lo_db + (hi_db - lo_db) m / 2^j, not a multiple of resolution_db
    (4.734375 dB = 2 + 5 * 70/128 for split-phase at seed 1 with 5000
    samples and the default bracket).  If lo_db is already open it is the
    result; if hi_db is closed, none is found.  lo_db and hi_db must be
    finite and resolution_db positive and finite; they are checked before
    anything is drawn.
    """
    if not (np.isfinite(resolution_db) and resolution_db > 0):
        raise ValueError(f"resolution_db must be positive and finite, "
                         f"got {resolution_db}")
    for name, value in (("lo_db", lo_db), ("hi_db", hi_db)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if lo_db >= hi_db:
        raise ValueError(f"lo_db={lo_db} must lie below hi_db={hi_db}")

    grid = DEFAULT_GRID[DEFAULT_GRID <= 0.99]
    draws = _draw_inner(chain.inner, grid, samples, seed)
    complete = {}       # Eb/N0 -> the gap at every point, all decoded

    def gap_at(ebn0, finish=False):
        """The minimum gap at ebn0 if it is open or `finish`; else the
        least gap, <= 0, of the call that found it closed."""
        if complete:
            near = min(complete, key=lambda e: abs(e - ebn0))
            order = np.argsort(complete[near], kind="stable")
        else:
            order = np.arange(len(grid))
        gaps = np.empty(len(grid))
        for points, values in _decode_points(draws, chain.sigma2(ebn0),
                                             order):
            gaps[points] = _point_gaps(grid[points], values,
                                       outer_curve_measured)
            if not finish and (gaps[points] <= 0).any():
                return float(gaps[points].min())
        complete[ebn0] = gaps
        return float(gaps.min())

    gap = gap_at(lo_db)
    if gap > 0:
        return ThresholdResult(lo_db, gap, resolution_db, True)
    hi_gap = gap_at(hi_db, finish=True)
    if hi_gap <= 0:
        return ThresholdResult(None, hi_gap, resolution_db, False)
    lo, hi = lo_db, hi_db
    while hi - lo > resolution_db + 1e-9:
        mid = (lo + hi) / 2.0
        gap = gap_at(mid)
        if gap > 0:
            hi, hi_gap = mid, gap
        else:
            lo = mid
    return ThresholdResult(hi, hi_gap, resolution_db, True)


# ---------------------------------------------------------------------------
# Decoder trajectory
# ---------------------------------------------------------------------------

def record_trajectory(cfg: pipeline.ChainConfig, ebn0_db: float,
                      blocks: int = 4, seed: int = 0) -> list[tuple]:
    """Staircase of measured (I_A, I_E) points from the real receiver.

    Even half-iterations are the inner decoder (x = its prior MI, y = its
    extrinsic MI); odd ones are the outer decoder on swapped axes.
    """
    pipeline.check_count("blocks", blocks)
    sigma2 = cfg.sigma2(ebn0_db)
    rng = np.random.default_rng([seed, 11])
    u = rng.integers(0, 2, size=(blocks, cfg.k_user)).astype(np.uint8)
    y = pipeline.transmit(u, cfg, sigma2, rng)
    _, trace = pipeline.receive(y, cfg, sigma2, true_u=u, collect_trace=True)
    points = []
    for t in range(trace.executed):
        ia_in = float(trace.mi_prior_inner[t].mean())
        ie_in = float(trace.mi_ext_inner[t].mean())
        ie_out = float(trace.mi_ext_outer[t].mean())
        points.append((2 * t, ia_in, ie_in))
        points.append((2 * t + 1, ie_in, ie_out))
    return points
