"""Dimming control: puncture line-coded bits and insert compensation bits.

Each output pair of split-phase and Manchester holds one 1 (make_chain
dims no other line code), so puncturing whole pairs removes exactly half
ones and half zeros; inserting p compensation bits (all 1s for d > 0.5,
all 0s for d < 0.5) then lands the transmitted ones fraction on d exactly
(up to the even-p rounding, <= 1/N).  Frame length is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import OOK_MIDPOINT
from .codes import FramingError


@dataclass(frozen=True, eq=False)
class DimmingConfig:
    frame_len: int
    puncture_positions: np.ndarray   # sorted indices into the line-coded frame
    insertion_positions: np.ndarray  # sorted indices into the transmitted frame
    compensation_value: int
    # complements, precomputed for encode/decode
    kept_positions: np.ndarray = field(init=False)
    data_slots: np.ndarray = field(init=False)

    def __post_init__(self):
        pp = np.array(self.puncture_positions, dtype=np.int64)
        ip = np.array(self.insertion_positions, dtype=np.int64)
        if pp.size != ip.size:
            raise ValueError("puncture and insertion counts differ")
        keep = np.setdiff1d(np.arange(self.frame_len), pp)
        slots = np.setdiff1d(np.arange(self.frame_len), ip)
        for name, arr in (("puncture_positions", pp),
                          ("insertion_positions", ip),
                          ("kept_positions", keep), ("data_slots", slots)):
            arr.flags.writeable = False         # chains are shared
            object.__setattr__(self, name, arr)

    @property
    def p(self) -> int:
        return int(self.puncture_positions.size)


def _spread(count: int, total: int) -> np.ndarray:
    """count distinct indices spread evenly over range(total)."""
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    return np.floor((np.arange(count) + 0.5) * total / count).astype(np.int64)


def plan_dimming(frame_len: int, d: float) -> DimmingConfig:
    """Deterministic dimming plan for one frame length and target d.

    p = round(|2d-1| * N) rounded to an even count; p/2 whole output pairs
    are punctured and p compensation bits are inserted, both evenly spread.
    """
    if not 0.0 < d < 1.0:
        raise ValueError(f"dimming target {d} outside (0, 1)")
    if frame_len % 2:
        raise ValueError("frame length must be even (whole output pairs)")
    p = int(round(abs(2.0 * d - 1.0) * frame_len))
    p += p % 2
    if p > frame_len:
        raise ValueError("dimming target needs more punctures than bits")
    pairs = _spread(p // 2, frame_len // 2)
    punct = np.sort(np.concatenate([2 * pairs, 2 * pairs + 1]))
    ins = _spread(p, frame_len)
    return DimmingConfig(frame_len=frame_len, puncture_positions=punct,
                         insertion_positions=ins,
                         compensation_value=1 if d > 0.5 else 0)


def dim_encode(c: np.ndarray, cfg: DimmingConfig) -> np.ndarray:
    """Remove punctured bits and insert compensation bits; length preserved."""
    c = np.asarray(c)
    if c.shape[-1] != cfg.frame_len:
        raise FramingError(f"frame length {c.shape[-1]}, expected "
                           f"{cfg.frame_len}")
    out = np.empty(c.shape, dtype=c.dtype)
    out[..., cfg.insertion_positions] = cfg.compensation_value
    out[..., cfg.data_slots] = c[..., cfg.kept_positions]
    return out


def dim_decode(y: np.ndarray, cfg: DimmingConfig) -> np.ndarray:
    """Drop compensation-bit observations; write OOK_MIDPOINT, whose
    channel LLR is 0, at punctured positions (erasures)."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape[-1] != cfg.frame_len:
        raise FramingError(f"frame length {y.shape[-1]}, expected "
                           f"{cfg.frame_len}")
    out = np.full(y.shape, OOK_MIDPOINT)
    out[..., cfg.kept_positions] = y[..., cfg.data_slots]
    return out
