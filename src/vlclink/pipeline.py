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

import numpy as np

from . import codes, dimming, siso
from .channel import awgn, ook_modulate
from .codes import (FramingError, LutCodeSpec, PuncturePattern,
                    RATE_23_PUNCTURE, TrellisSpec)

INNER_RATES = {
    "split-phase": Fraction(1, 2),
    "bmc": Fraction(1, 2),
    "manchester": Fraction(1, 2),
    "4b6b": Fraction(2, 3),
}


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
    inner: str                     # split-phase | bmc | manchester | 4b6b
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
    lut: LutCodeSpec | None = field(init=False)
    inner_trellis: TrellisSpec | None = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "interleaver",
                           make_interleaver(self.n, self.interleaver_seed))
        object.__setattr__(self, "dim",
                           dimming.plan_dimming(self.n_line, self.d))
        object.__setattr__(self, "lut",
                           codes.build_4b6b() if self.inner == "4b6b" else None)
        tr = None
        if self.inner == "split-phase":
            tr = codes.build_split_phase()
        elif self.inner == "bmc":
            tr = codes.build_bmc()
        object.__setattr__(self, "inner_trellis", tr)

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
        ri = INNER_RATES[self.inner]
        return int(self.n / ri)

    @property
    def n_tx(self) -> int:
        return self.n_line

    @property
    def outer_rate(self) -> Fraction:
        if self.puncture is None:
            return Fraction(1, self.outer.outputs_per_step)
        return Fraction(self.puncture.period,
                        self.puncture.kept_per_period)

    @property
    def ideal_rate(self) -> Fraction:
        return self.outer_rate * INNER_RATES[self.inner]  # dimming rate is 1

    @property
    def effective_rate(self) -> float:
        """Includes termination and padding overhead."""
        return self.k_user / self.n_tx

    @property
    def mean_symbol_energy(self) -> float:
        """Mean energy per {0,1} channel use at the configured dimming."""
        return self.d

    def rates(self) -> dict:
        return {"outer": str(self.outer_rate),
                "inner": str(INNER_RATES[self.inner]),
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

    The message is zero-padded (k_pad >= k) until the outer step count is
    divisible by the puncture period and the interleaver length fits the
    inner code framing; padding is stripped before error counting.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if scheme == "cc-split-phase-dim60":
        inner, punct = "split-phase", None
        d = 0.6 if d is None else d
    elif scheme == "cc-4b6b":
        inner, punct = "4b6b", None
    else:
        inner, punct = scheme.removeprefix("cc-"), RATE_23_PUNCTURE
    d = 0.5 if d is None else d

    outer = codes.build_outer_cc()
    k_pad = k
    while True:
        steps = k_pad + outer.memory
        coded = steps * outer.outputs_per_step
        if punct is not None and steps % punct.period:
            k_pad += 1
            continue
        n = coded if punct is None else int(punct.mask(coded).sum())
        if inner == "4b6b" and n % 4:
            k_pad += 1
            continue
        n_line = int(n / INNER_RATES[inner])
        if n_line % 2:
            k_pad += 1
            continue
        break
    return ChainConfig(scheme=scheme, inner=inner, outer=outer,
                       puncture=punct, k_user=k, k_pad=k_pad,
                       iterations=iterations, genie_stopping=genie_stopping,
                       d=d, interleaver_seed=interleaver_seed)


def builtin_configs() -> dict[str, ChainConfig]:
    """The four overall-rate-1/3 schemes at full operating size, plus the
    rate-1/4 60%-dimming scheme with its 512-bit message."""
    cfgs = {
        "cc-4b6b": make_chain("cc-4b6b", k=16382, iterations=100),
        "cc-manchester": make_chain("cc-manchester", k=21844, iterations=100),
        "cc-bmc": make_chain("cc-bmc", k=21844, iterations=100),
        "cc-split-phase": make_chain("cc-split-phase", k=21844,
                                     iterations=100),
        "cc-split-phase-dim60": make_chain("cc-split-phase-dim60", k=512,
                                           iterations=100),
    }
    return cfgs


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


def inner_encode(cfg: ChainConfig, v: np.ndarray) -> np.ndarray:
    if cfg.inner == "manchester":
        return codes.encode_manchester(v)
    if cfg.inner == "4b6b":
        return codes.encode_lut(cfg.lut, v)
    return codes.encode(cfg.inner_trellis, v)


def encode_chain(u: np.ndarray, cfg: ChainConfig) -> dict:
    """All intermediate bit streams of the transmitter, batched."""
    up = _pad(u, cfg)
    coded = codes.encode(cfg.outer, up)
    kept = coded if cfg.puncture is None else codes.apply_puncture(
        coded, cfg.puncture)
    v = cfg.interleaver.apply(kept)
    line = inner_encode(cfg, v)
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


def _inner_extrinsic(cfg: ChainConfig, y_line: np.ndarray, prior: np.ndarray,
                     sigma2: float) -> np.ndarray:
    if cfg.inner == "manchester":
        return siso.map_manchester(y_line, prior, sigma2)
    if cfg.inner == "4b6b":
        return siso.map_lut(cfg.lut, y_line, prior, sigma2)
    return siso.bcjr_extrinsic(cfg.inner_trellis, observations=y_line,
                               prior=prior, sigma2=sigma2)


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
    if y.shape[-1] != cfg.n_tx:
        raise FramingError(f"received length {y.shape[-1]}, expected "
                           f"{cfg.n_tx}")
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
        nb = live.size
        le_v = _inner_extrinsic(cfg, y_line, prior_v, sigma2)
        la_kept = cfg.interleaver.invert(le_v)
        if cfg.puncture is not None:
            la_full = codes.insert_erasures(la_kept, cfg.puncture,
                                            cfg.n_coded)
        else:
            la_full = la_kept
        code_prior = la_full.reshape(nb, cfg.n_steps,
                                     cfg.outer.outputs_per_step)
        res = siso.bcjr_decode(cfg.outer,
                               siso.gamma_table_llr(cfg.outer, code_prior))
        le_kept = (res.app_output
                   - siso.clamp_llr(code_prior)).reshape(nb, -1)
        if cfg.puncture is not None:
            le_kept = codes.apply_puncture(le_kept, cfg.puncture)
        u_it = (res.app_input[:, :cfg.k_user] > 0).astype(np.uint8)
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
