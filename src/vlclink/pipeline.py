"""End-to-end serially concatenated chain and its iterative receiver.

Transmit order: outer convolutional encode (tail-terminated) -> puncture ->
interleave -> inner line code -> dimming -> OOK -> AWGN.  The receiver
exchanges extrinsic LLRs between the inner line-code SISO and the outer
FEC SISO; the first inner pass uses all-zero priors, the outer decoder
produces extrinsics for all code bits, and information-bit decisions come
from the outer a-posteriori LLRs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from . import codes, dimming, siso
from .channel import awgn, ook_modulate
from .codes import (FramingError, PuncturePattern, RATE_23_PUNCTURE,
                    TrellisSpec)


@dataclass(frozen=True)
class InnerCode:
    """One inner line code with its SISO decoder.

    encode(v) maps (..., n) input bits to (..., n / rate) line bits, for n
    a multiple of `quantum`; extrinsic(y, prior, sigma2) gives extrinsic
    LLRs on the input bits from OOK observations of the line bits.  Both
    look their codes/siso functions and specs up at call time.
    """

    name: str
    rate: Fraction
    quantum: int                # input bits per line-code symbol
    encode: Callable
    extrinsic: Callable


INNER_CODES = {c.name: c for c in (
    InnerCode("split-phase", Fraction(1, 2), 1,
              lambda v: codes.encode(codes.build_split_phase(), v),
              lambda y, prior, sigma2: siso.bcjr_extrinsic(
                  codes.build_split_phase(), observations=y, prior=prior,
                  sigma2=sigma2)),
    InnerCode("bmc", Fraction(1, 2), 1,
              lambda v: codes.encode(codes.build_bmc(), v),
              lambda y, prior, sigma2: siso.bcjr_extrinsic(
                  codes.build_bmc(), observations=y, prior=prior,
                  sigma2=sigma2)),
    InnerCode("manchester", Fraction(1, 2), 1,
              lambda v: codes.encode_lut(codes.build_manchester(), v),
              lambda y, prior, sigma2: siso.map_lut(
                  codes.build_manchester(), y, prior, sigma2=sigma2)),
    InnerCode("4b6b", Fraction(2, 3), 4,
              lambda v: codes.encode_lut(codes.build_4b6b(), v),
              lambda y, prior, sigma2: siso.map_lut(
                  codes.build_4b6b(), y, prior, sigma2=sigma2)),
)}


@dataclass(frozen=True, eq=False)
class Interleaver:
    perm: np.ndarray
    inv: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "inv", np.argsort(self.perm))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x)[..., self.perm]

    def invert(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x)[..., self.inv]


def make_interleaver(n: int, seed: int) -> Interleaver:
    """Uniformly random permutation, reproducible from the seed."""
    if n < 1:
        raise ValueError("interleaver length must be >= 1")
    return Interleaver(perm=np.random.default_rng(seed).permutation(n))


@dataclass(frozen=True, eq=False)
class ChainConfig:
    """Full parameterization of one concatenated scheme."""

    scheme: str
    inner: str                     # a key of INNER_CODES
    outer: TrellisSpec
    puncture: PuncturePattern | None
    k_user: int
    k_pad: int
    iterations: int
    genie_stopping: bool
    d: float
    interleaver_seed: int
    # derived
    interleaver: Interleaver = field(init=False)
    dim: dimming.DimmingConfig = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "interleaver",
                           make_interleaver(self.n, self.interleaver_seed))
        object.__setattr__(self, "dim",
                           dimming.plan_dimming(self.n_line, self.d))

    @property
    def code(self) -> InnerCode:
        return INNER_CODES[self.inner]

    @property
    def n_steps(self) -> int:
        return self.k_pad + self.outer.memory

    @property
    def n_coded(self) -> int:
        return self.n_steps * self.outer.outputs_per_step

    @property
    def n(self) -> int:
        """Interleaver length = punctured outer code length."""
        if self.puncture is None:
            return self.n_coded
        return int(self.puncture.mask(self.n_coded).sum())

    @property
    def n_line(self) -> int:
        """Inner line-code output length (= transmitted frame length)."""
        return int(self.n / self.code.rate)

    @property
    def outer_rate(self) -> Fraction:
        if self.puncture is None:
            return Fraction(1, self.outer.outputs_per_step)
        return Fraction(self.puncture.period,
                        self.puncture.kept_per_period)

    @property
    def ideal_rate(self) -> Fraction:
        return self.outer_rate * self.code.rate  # dimming rate is 1

    @property
    def effective_rate(self) -> float:
        """Includes termination and padding overhead."""
        return self.k_user / self.n_line

    @property
    def mean_symbol_energy(self) -> float:
        """Mean energy per {0,1} channel use at the configured dimming."""
        return self.d

    def rates(self) -> dict:
        return {"outer": str(self.outer_rate),
                "inner": str(self.code.rate),
                "dimming": "1",
                "ideal": str(self.ideal_rate),
                "ideal_float": float(self.ideal_rate),
                "effective": self.effective_rate}


SCHEMES = ("cc-4b6b", "cc-manchester", "cc-bmc", "cc-split-phase",
           "cc-split-phase-dim60")


def make_chain(scheme: str, k: int, iterations: int = 30,
               genie_stopping: bool = True, d: float | None = None,
               interleaver_seed: int = 1) -> ChainConfig:
    """Build a named scheme around a user message length k.

    The message is zero-padded to the smallest k_pad >= k for which the
    outer step count is divisible by the puncture period, the interleaver
    length is a multiple of the inner code's quantum and the line frame
    has even length (whole pairs for dimming); padding is stripped before
    error counting.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if k < 1 or iterations < 1:
        raise ValueError(f"k and iterations must be >= 1, got {k} and "
                         f"{iterations}")
    if scheme == "cc-split-phase-dim60":
        inner, punct = "split-phase", None
        d = 0.6 if d is None else d
    elif scheme == "cc-4b6b":
        inner, punct = "4b6b", None
    else:
        inner, punct = scheme.removeprefix("cc-"), RATE_23_PUNCTURE
    d = 0.5 if d is None else d

    outer = codes.build_outer_cc()
    code = INNER_CODES[inner]
    k_pad = k
    while True:
        steps = k_pad + outer.memory
        if punct is None or steps % punct.period == 0:
            coded = steps * outer.outputs_per_step
            n = coded if punct is None else int(punct.mask(coded).sum())
            if n % code.quantum == 0 and (n / code.rate) % 2 == 0:
                break
        k_pad += 1
    return ChainConfig(scheme=scheme, inner=inner, outer=outer,
                       puncture=punct, k_user=k, k_pad=k_pad,
                       iterations=iterations, genie_stopping=genie_stopping,
                       d=d, interleaver_seed=interleaver_seed)


# ---------------------------------------------------------------------------
# Transmit
# ---------------------------------------------------------------------------

def _pad(u: np.ndarray, cfg: ChainConfig) -> np.ndarray:
    u = np.atleast_2d(np.asarray(u, dtype=np.uint8))
    if u.shape[-1] != cfg.k_user:
        raise FramingError(f"message length {u.shape[-1]}, expected "
                           f"{cfg.k_user}")
    if cfg.k_pad == cfg.k_user:
        return u
    pad = np.zeros((u.shape[0], cfg.k_pad - cfg.k_user), dtype=np.uint8)
    return np.concatenate([u, pad], axis=-1)


def encode_chain(u: np.ndarray, cfg: ChainConfig) -> dict:
    """All intermediate bit streams of the transmitter, batched."""
    up = _pad(u, cfg)
    coded = codes.encode(cfg.outer, up)
    kept = coded if cfg.puncture is None else codes.apply_puncture(
        coded, cfg.puncture)
    v = cfg.interleaver.apply(kept)
    line = cfg.code.encode(v)
    tx = dimming.dim_encode(line, cfg.dim)
    return {"coded": coded, "kept": kept, "v": v, "line": line, "tx": tx}


def transmit(u: np.ndarray, cfg: ChainConfig, sigma2: float,
             rng: np.random.Generator) -> np.ndarray:
    """Encode, modulate and add channel noise; returns observations y."""
    tx = encode_chain(u, cfg)["tx"]
    return awgn(ook_modulate(tx), sigma2, rng)


# ---------------------------------------------------------------------------
# Receive
# ---------------------------------------------------------------------------

@dataclass
class IterationTrace:
    """Per-iteration receiver diagnostics (needs the true message).

    The MI rows are (0, B) unless collect_trace is set.  After a block's
    genie stop its rows repeat the stopping iteration's values.
    """

    iterations: np.ndarray            # (B,) iterations executed per block
    executed: int                     # iterations actually run (batch-wide)
    mi_prior_inner: np.ndarray        # (executed, B) I_A at the inner decoder
    mi_ext_inner: np.ndarray          # (executed, B) I_E of inner extrinsics
    mi_ext_outer: np.ndarray          # (executed, B) I_E of outer extrinsics
    ber: np.ndarray                   # (executed, B) message BER per iteration


def outer_extrinsic(outer: TrellisSpec, puncture: PuncturePattern | None,
                    prior: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outer SISO on the transmitted code bits.

    prior: (B, n) a-priori LLRs of the kept (punctured) code bits.  The
    punctured-out bits enter the decoder as erasures.  Returns the kept
    bits' extrinsic LLRs (B, n) and the input bits' APP LLRs (B, n_steps).
    """
    B, n = prior.shape
    if puncture is not None:
        full = n // puncture.kept_per_period * puncture.keep.size
        prior = codes.insert_erasures(prior, puncture, full)
    code_prior = prior.reshape(B, -1, outer.outputs_per_step)
    res = siso.bcjr_decode(outer, siso.gamma_table_llr(outer, code_prior))
    ext = (res.app_output - siso.clamp_llr(code_prior)).reshape(B, -1)
    if puncture is not None:
        ext = codes.apply_puncture(ext, puncture)
    return ext, res.app_input


def receive(y: np.ndarray, cfg: ChainConfig, sigma2: float,
            true_u: np.ndarray | None = None,
            collect_trace: bool = False):
    """Iterative decoding of a batch of received frames.

    Returns (u_hat, IterationTrace | None).  Genie stopping (needs true_u)
    freezes a block once its message decision is exact; it never changes
    which decisions are possible, only how many iterations run.  A frozen
    block leaves the working batch, so later iterations decode only the
    live blocks; its trace rows keep its state at the stopping iteration
    (BER 0 and that iteration's MI values).
    """
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    B = y.shape[0]
    if y.shape[-1] != cfg.n_line:
        raise FramingError(f"received length {y.shape[-1]}, expected "
                           f"{cfg.n_line}")
    if collect_trace and true_u is None:
        raise ValueError("collect_trace needs the true message true_u")
    genie = cfg.genie_stopping and true_u is not None
    if true_u is not None:
        true_u = np.atleast_2d(np.asarray(true_u, dtype=np.uint8))
        if collect_trace:
            streams = encode_chain(true_u, cfg)
            v_true, kept_true = streams["v"], streams["kept"]
            from .exitchart import measure_mi

    L = cfg.iterations
    u_hat = np.zeros((B, cfg.k_user), dtype=np.uint8)
    iters = np.full(B, L, dtype=np.int64)
    ber = np.zeros((L, B))
    mi = np.zeros((L, 3, B))        # I_A inner, I_E inner, I_E outer
    # the working batch: rows of the live blocks, whose indices are `live`
    live = np.arange(B)
    y_line = dimming.dim_decode(y, cfg.dim)
    prior_v = np.zeros((B, cfg.n))

    executed = 0
    for it in range(1, L + 1):
        executed = it
        le_v = cfg.code.extrinsic(y_line, prior_v, sigma2)
        le_kept, app_u = outer_extrinsic(cfg.outer, cfg.puncture,
                                         cfg.interleaver.invert(le_v))
        u_it = (app_u[:, :cfg.k_user] > 0).astype(np.uint8)
        u_hat[live] = u_it

        if collect_trace:
            if it > 1:
                mi[it - 1] = mi[it - 2]
            for i, b in enumerate(live):
                mi[it - 1, :, b] = (measure_mi(prior_v[i], v_true[b]),
                                    measure_mi(le_v[i], v_true[b]),
                                    measure_mi(le_kept[i], kept_true[b]))
        if true_u is not None:
            wrong = u_it != true_u[live]
            ber[it - 1, live] = wrong.mean(axis=1)
        if genie:
            keep = wrong.any(axis=1)
            iters[live[~keep]] = it
            if not keep.any():
                break
            if not keep.all():
                live, y_line = live[keep], y_line[keep]
                le_kept = le_kept[keep]
        prior_v = cfg.interleaver.apply(le_kept)

    if not genie:
        iters[:] = executed
    trace = None
    if true_u is not None:
        mi = mi[:executed if collect_trace else 0]
        trace = IterationTrace(iterations=iters, executed=executed,
                               mi_prior_inner=mi[:, 0], mi_ext_inner=mi[:, 1],
                               mi_ext_outer=mi[:, 2], ber=ber[:executed])
    return u_hat, trace
