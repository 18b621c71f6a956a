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
from scipy.interpolate import PchipInterpolator

from . import codes, pipeline
from .channel import awgn, ook_modulate

LN2 = np.log(2.0)

DEFAULT_GRID = np.concatenate([np.arange(0.0, 1.0, 0.05), [0.999]])


# ---------------------------------------------------------------------------
# J function and MI estimation
# ---------------------------------------------------------------------------

_HERM_X, _HERM_W = np.polynomial.hermite.hermgauss(96)


def j_function(sigma_a: float) -> float:
    """Mutual information of a Gaussian-consistent LLR with std sigma_a."""
    s = float(sigma_a)
    if s < 0:
        raise ValueError("sigma_a must be >= 0")
    if s == 0.0:
        return 0.0
    # L = s^2/2 + s * z, z ~ N(0,1); E[] by Gauss-Hermite (z = sqrt(2) x)
    l_vals = s * s / 2.0 + s * np.sqrt(2.0) * _HERM_X
    integrand = np.logaddexp(0.0, -l_vals) / LN2
    val = 1.0 - float(_HERM_W @ integrand) / np.sqrt(np.pi)
    return min(max(val, 0.0), 1.0)


@lru_cache(maxsize=1)
def _j_inverse_table():
    sig = np.linspace(0.0, 14.0, 4096)
    i_vals = np.array([j_function(s) for s in sig])
    keep = np.concatenate([[True], np.diff(i_vals) > 1e-12])
    return PchipInterpolator(i_vals[keep], sig[keep])


def j_inverse(i: float) -> float:
    """Numerical inverse of j_function on [0, 1)."""
    if not 0.0 <= i < 1.0:
        raise ValueError("mutual information must be in [0, 1)")
    return float(_j_inverse_table()(i))


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
    """Time-average mutual-information estimate of an LLR sequence."""
    llrs = np.asarray(llrs, dtype=np.float64).ravel()
    truth = np.asarray(truth).ravel()
    if llrs.size != truth.size:
        raise ValueError("LLR and truth lengths differ")
    if llrs.size == 0:
        return 0.0
    signed = (2.0 * truth - 1.0) * llrs
    val = 1.0 - float(np.mean(_softplus(-signed))) / LN2
    return min(max(val, 0.0), 1.0)


def sample_priors(truth: np.ndarray, sigma_a: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw Gaussian-consistent a-priori LLRs for known bits."""
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
        if (np.diff(g) <= 0).any():
            raise ValueError("grid must be strictly increasing")
        if ((v < 0) | (v > 1)).any():
            raise ValueError("curve values must lie in [0, 1]")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)


_INNER_BLOCK = 256      # input bits per independent inner-curve block


def inner_curve(inner: str, sigma2: float, grid=None, samples: int = 100_000,
                seed: int = 0, ebn0_db: float | None = None) -> ExitCurve:
    """Measured transfer curve of one inner line-code SISO decoder.

    `samples` counts decoder input bits per grid point.  Each point has
    its own generator, seeded by (seed, point index), which draws its
    messages, channel noise and priors; one encoder call serves the grid.
    """
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, np.float64)
    code = pipeline.INNER_CODES[inner]
    n0 = _INNER_BLOCK
    nblocks = max(1, int(np.ceil(samples / n0)))
    rngs = [np.random.default_rng([seed, gi]) for gi in range(len(grid))]
    vs = np.stack([rng.integers(0, 2, size=(nblocks, n0)).astype(np.uint8)
                   for rng in rngs])
    # one encoder call for the whole grid; the encoder draws no numbers,
    # so each point's generator goes on to its noise and priors unchanged
    lines = code.encode(vs.reshape(-1, n0)).reshape(len(grid), nblocks, -1)
    values = []
    for rng, ia, v, line in zip(rngs, grid, vs, lines):
        y = awgn(ook_modulate(line), sigma2, rng)
        prior = sample_priors(v, j_inverse(float(ia)), rng)
        ext = code.extrinsic(y, prior, sigma2)
        values.append(measure_mi(ext, v))
    return ExitCurve(component=f"inner:{inner}", ebn0_db=ebn0_db,
                     grid=grid, values=np.array(values),
                     samples_per_point=nblocks * n0)


_OUTER_BLOCK = 128      # message bits per independent outer-curve block


def outer_curve(outer: codes.TrellisSpec, puncture: codes.PuncturePattern,
                grid=None, samples: int = 100_000,
                seed: int = 0) -> ExitCurve:
    """Measured transfer curve of the outer FEC decoder (prior-only input).

    Mutual information is measured on the extrinsics of the punctured
    (transmitted) code bits; `samples` counts code bits per point.
    """
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, np.float64)
    steps = _OUTER_BLOCK + outer.memory
    steps += -steps % puncture.period
    k0 = steps - outer.memory
    n_kept = int(puncture.mask(steps * outer.outputs_per_step).sum())
    nblocks = max(1, int(np.ceil(samples / n_kept)))
    rngs = [np.random.default_rng([seed, 7, gi]) for gi in range(len(grid))]
    u = np.concatenate([rng.integers(0, 2, size=(nblocks, k0)).astype(
        np.uint8) for rng in rngs])
    # one encoder call for the whole grid, as in inner_curve
    kept_grid = codes.apply_puncture(codes.encode(outer, u), puncture)
    kept_grid = kept_grid.reshape(len(grid), nblocks, n_kept)
    values = []
    for rng, ia, kept in zip(rngs, grid, kept_grid):
        prior_kept = sample_priors(kept, j_inverse(float(ia)), rng)
        ext_kept, _ = pipeline.outer_extrinsic(outer, puncture, prior_kept)
        values.append(measure_mi(ext_kept, kept))
    return ExitCurve(component="outer:cc", ebn0_db=None, grid=grid,
                     values=np.array(values),
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


def _tunnel_gap(inner: ExitCurve, outer: ExitCurve, eps: float) -> float:
    """Minimum of inner(I) - outer^{ -1 }(I) over I in [0, 1 - eps]."""
    sel = inner.grid <= 1.0 - eps + 1e-12
    i_pts = inner.grid[sel]
    inner_vals = inner.values[sel]
    # invert the (monotone) outer curve; below its range no prior is needed
    ov, og = outer.values, outer.grid
    order = np.argsort(ov)
    inv = np.interp(i_pts, ov[order], og[order], left=0.0, right=1.0)
    return float(np.min(inner_vals - inv))


def find_threshold(chain: pipeline.ChainConfig,
                   outer_curve_measured: ExitCurve,
                   lo_db: float = 2.0, hi_db: float = 7.0,
                   resolution_db: float = 0.05, samples: int = 100_000,
                   seed: int = 0) -> ThresholdResult:
    """Smallest Eb/N0 (on the resolution grid) with an open decoding tunnel.

    The tunnel must be open on DEFAULT_GRID up to I = 0.99.  Bisection
    over Eb/N0 with common random numbers per point; the bracket is
    verified: open at the reported point, closed one step below.
    """
    if resolution_db <= 0:
        raise ValueError("resolution must be positive")
    if lo_db >= hi_db:
        raise ValueError(f"lo_db={lo_db} must lie below hi_db={hi_db}")

    gaps = {}

    def gap_at(ebn0):
        if ebn0 not in gaps:
            c = inner_curve(chain.inner, chain.sigma2(ebn0),
                            samples=samples, seed=seed, ebn0_db=ebn0)
            gaps[ebn0] = _tunnel_gap(c, outer_curve_measured, 0.01)
        return gaps[ebn0]

    if gap_at(lo_db) > 0:
        return ThresholdResult(lo_db, gap_at(lo_db), resolution_db, True)
    if gap_at(hi_db) <= 0:
        return ThresholdResult(None, gap_at(hi_db), resolution_db, False)
    lo, hi = lo_db, hi_db
    while hi - lo > resolution_db + 1e-9:
        mid = (lo + hi) / 2.0
        if gap_at(mid) > 0:
            hi = mid
        else:
            lo = mid
    star = hi
    return ThresholdResult(star, gap_at(star), resolution_db, True)


# ---------------------------------------------------------------------------
# Decoder trajectory
# ---------------------------------------------------------------------------

def record_trajectory(cfg: pipeline.ChainConfig, ebn0_db: float,
                      blocks: int = 4, seed: int = 0) -> list[tuple]:
    """Staircase of measured (I_A, I_E) points from the real receiver.

    Even half-iterations are the inner decoder (x = its prior MI, y = its
    extrinsic MI); odd ones are the outer decoder on swapped axes.
    """
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
