"""Encoder definitions: trellis codes, LUT line codes, and puncturing.

All encoders here are deterministic finite-state machines (or memoryless
maps) operating on {0,1} bit arrays.  Specs are immutable after
construction (their arrays are read-only), so each builder returns one
cached instance, safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class FramingError(ValueError):
    """Input length incompatible with a code's framing."""


# ---------------------------------------------------------------------------
# Trellis codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TrellisSpec:
    """Deterministic finite-state encoder with one input bit per step,
    starting in state 0.

    next_state[s, a] and output_bits[s, a, :] describe the transition taken
    from state s on input bit a.
    """

    name: str
    num_states: int
    outputs_per_step: int
    next_state: np.ndarray      # (S, 2) int
    output_bits: np.ndarray     # (S, 2, outputs_per_step) uint8
    termination: str = "none"   # "none" | "tail-to-zero"

    def __post_init__(self):
        S = self.num_states
        ns = np.array(self.next_state, dtype=np.int64)
        ob = np.array(self.output_bits, dtype=np.uint8)
        if ns.shape != (S, 2):
            raise ValueError(f"next_state shape {ns.shape}, expected {(S, 2)}")
        if ob.shape != (S, 2, self.outputs_per_step):
            raise ValueError("output_bits shape mismatch")
        if ns.min() < 0 or ns.max() >= S:
            raise ValueError("next_state out of range")
        if not np.isin(ob, (0, 1)).all():
            raise ValueError("output labels must be bits")
        if self.termination not in ("none", "tail-to-zero"):
            raise ValueError(f"unknown termination {self.termination!r}")
        for name, arr in (("next_state", ns), ("output_bits", ob)):
            arr.flags.writeable = False         # specs are shared
            object.__setattr__(self, name, arr)

    @property
    def memory(self) -> int:
        return max(1, int(np.ceil(np.log2(self.num_states))))

    def tail_table(self) -> np.ndarray:
        """Input sequence of length `memory` driving each state to state 0.

        Only meaningful for tail-to-zero termination; found by exhaustive
        search over input sequences (states are few).
        """
        m = self.memory
        table = np.full((self.num_states, m), -1, dtype=np.int64)
        for s0 in range(self.num_states):
            for seq in range(2 ** m):
                s = s0
                bits = [(seq >> j) & 1 for j in range(m)]
                for a in bits:
                    s = self.next_state[s, a]
                if s == 0:
                    table[s0] = bits
                    break
            else:
                raise ValueError(f"state {s0} of {self.name} cannot reach 0 "
                                 f"in {m} steps")
        return table


def as_bits(x, what: str = "encoder input") -> np.ndarray:
    """x as an int64 array; ValueError naming `what` unless every entry
    is 0 or 1."""
    x = np.asarray(x)
    if not ((x == 0) | (x == 1)).all():
        raise ValueError(f"{what} must hold only bits 0 and 1")
    return x.astype(np.int64)


def encode(spec: TrellisSpec, bits: np.ndarray) -> np.ndarray:
    """Run the encoder over one or a batch of input blocks.

    bits: (..., n_steps), one input bit per step.  Tail-to-zero
    termination appends `memory` extra steps (per-block tail inputs).
    Returns (..., n_steps_total * outputs_per_step) bit array.
    """
    bits = as_bits(bits)
    single = bits.ndim == 1
    bits = np.atleast_2d(bits)
    B, n_steps = bits.shape
    # Chunks of about sqrt(n) steps save the per-step overhead of n steps
    # but follow every start state in phase 1; that pays up to about 256
    # (state, block) pairs per step.  Wider batches run as one chunk, the
    # plain per-step loop.
    chunk = round(n_steps ** 0.5) if spec.num_states * B <= 256 else n_steps
    out, state = _run(spec, bits, chunk)

    if spec.termination == "tail-to-zero":
        tails = spec.tail_table()[state]          # (B, memory)
        tail_out = np.empty((B, spec.memory, spec.outputs_per_step),
                            dtype=np.uint8)
        for j in range(spec.memory):
            a = tails[:, j]
            tail_out[:, j] = spec.output_bits[state, a]
            state = spec.next_state[state, a]
        out = np.concatenate([out, tail_out], axis=1)
        if not (state == 0).all():
            raise AssertionError("tail failed to terminate trellis")

    coded = out.reshape(B, -1)
    return coded[0] if single else coded


def _run(spec: TrellisSpec, bits: np.ndarray, chunk: int):
    """Labels (B, n, outputs_per_step) and end states (B,) of the encoder
    run from state 0 over bits (B, n), as a scan in chunks of `chunk`
    steps.

    (1) Each chunk's end state from every start state, vectorised over
    chunks; (2) a walk over the chunk starts; (3) each chunk's labels from
    its true start, vectorised over chunks.  The n mod chunk remaining
    steps follow one at a time; unless chunk splits n at least in two,
    that is all of them, the plain per-step loop.
    """
    B, n = bits.shape
    out = np.empty((B, n, spec.outputs_per_step), dtype=np.uint8)
    state = np.zeros(B, dtype=np.int64)
    K = n // chunk if 0 < 2 * chunk <= n else 0
    m = K * chunk
    if K:
        steps = bits[:, :m].reshape(B, K, chunk)
        ends = np.arange(spec.num_states)[:, None, None]
        for t in range(chunk):
            ends = spec.next_state[ends, steps[:, :-1, t]]
        starts = np.zeros((B, K), dtype=np.int64)
        rows = np.arange(B)
        for k in range(1, K):
            starts[:, k] = ends[starts[:, k - 1], rows, k - 1]
        chunked = out[:, :m].reshape(B, K, chunk, -1, copy=False)
        for t in range(chunk):
            a = steps[:, :, t]
            chunked[:, :, t] = spec.output_bits[starts, a]
            starts = spec.next_state[starts, a]
        state = starts[:, -1]
    for l in range(m, n):
        a = bits[:, l]
        out[:, l] = spec.output_bits[state, a]
        state = spec.next_state[state, a]
    return out, state


@lru_cache(maxsize=1)
def build_outer_cc() -> TrellisSpec:
    """Memory-2 recursive systematic rate-1/2 code, generator [1, 5/7] octal.

    Feedback 7 = 1+D+D^2, feedforward 5 = 1+D^2; systematic bit first.
    State packs the registers as s = s1*2 + s2 (s1 most recent).
    """
    S, A = 4, 2
    ns = np.zeros((S, A), dtype=np.int64)
    ob = np.zeros((S, A, 2), dtype=np.uint8)
    for s in range(S):
        s1, s2 = (s >> 1) & 1, s & 1
        for u in range(A):
            fb = u ^ s1 ^ s2
            parity = fb ^ s2
            ns[s, u] = (fb << 1) | s1
            ob[s, u] = (u, parity)
    return TrellisSpec(name="cc-rsc-5/7", num_states=4,
                       outputs_per_step=2, next_state=ns, output_bits=ob,
                       termination="tail-to-zero")


@lru_cache(maxsize=1)
def build_split_phase() -> TrellisSpec:
    """Two-state differential bi-phase code, rate 1/2.

    States carry the output pair labels (state 0 <-> 01, state 1 <-> 10);
    input toggles the state and the encoder emits the new state's label,
    so every emitted pair is balanced.
    """
    ns = np.array([[0, 1], [1, 0]], dtype=np.int64)
    labels = {0: (0, 1), 1: (1, 0)}
    ob = np.array([[labels[ns[s, a]] for a in range(2)] for s in range(2)],
                  dtype=np.uint8)
    return TrellisSpec(name="split-phase", num_states=2,
                       outputs_per_step=2, next_state=ns, output_bits=ob)


@lru_cache(maxsize=1)
def build_bmc() -> TrellisSpec:
    """Bi-phase mark code on its two-state last-level trellis, rate 1/2.

    From level L: input 0 emits (~L, ~L) and moves to ~L; input 1 emits
    (~L, L) and stays at L.
    """
    ns = np.zeros((2, 2), dtype=np.int64)
    ob = np.zeros((2, 2, 2), dtype=np.uint8)
    for L in range(2):
        ns[L, 0], ob[L, 0] = 1 - L, (1 - L, 1 - L)
        ns[L, 1], ob[L, 1] = L, (1 - L, L)
    return TrellisSpec(name="bmc", num_states=2,
                       outputs_per_step=2, next_state=ns, output_bits=ob)


# ---------------------------------------------------------------------------
# LUT codes (Manchester, 4B6B)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LutCodeSpec:
    """Block substitution code mapping input_width bits to output_width bits."""

    name: str
    input_width: int
    output_width: int
    table: np.ndarray           # (2^input_width, output_width) uint8

    def __post_init__(self):
        tab = np.array(self.table, dtype=np.uint8)
        if tab.shape != (1 << self.input_width, self.output_width):
            raise ValueError("table shape mismatch")
        packed = {tuple(row) for row in tab}
        if len(packed) != tab.shape[0]:
            raise ValueError("table entries not pairwise distinct")
        if (tab.sum(axis=1) != self.output_width // 2).any():
            raise ValueError("codewords are not balanced "
                             "(constant-weight check failed)")
        tab.flags.writeable = False             # specs are shared
        object.__setattr__(self, "table", tab)


@lru_cache(maxsize=1)
def build_manchester() -> LutCodeSpec:
    """Memoryless map 0 -> 01, 1 -> 10 (rate 1/2, balanced pairs)."""
    return LutCodeSpec(name="manchester", input_width=1, output_width=2,
                       table=[[0, 1], [1, 0]])


@lru_cache(maxsize=1)
def build_4b6b() -> LutCodeSpec:
    """IEEE 802.15.7 4B6B substitution table: row i is the 6-bit word of
    the 4-bit symbol i (MSB first), each of weight 3."""
    words = ("001110", "001101", "010011", "010110", "010101", "100011",
             "100110", "100101", "011001", "011010", "011100", "110001",
             "110010", "101001", "101010", "101100")
    return LutCodeSpec(name="4b6b", input_width=4, output_width=6,
                       table=[[int(b) for b in w] for w in words])


def encode_lut(spec: LutCodeSpec, v: np.ndarray) -> np.ndarray:
    """Replace each input_width-bit symbol by its table entry (MSB first)."""
    v = as_bits(v)
    n = v.shape[-1]
    if n % spec.input_width:
        raise FramingError(f"input length {n} not divisible by "
                           f"{spec.input_width}")
    syms = v.reshape(*v.shape[:-1], -1, spec.input_width)
    weights = 1 << np.arange(spec.input_width - 1, -1, -1)
    idx = syms @ weights
    out = spec.table[idx]
    return out.reshape(*v.shape[:-1], -1)


# ---------------------------------------------------------------------------
# Puncturing
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PuncturePattern:
    """Keep/drop flags: rows = encoder output streams, columns = time steps."""

    keep: np.ndarray            # (streams, period) bool

    def __post_init__(self):
        keep = np.array(self.keep, dtype=bool)
        if keep.ndim != 2:
            raise ValueError("keep must be 2-D")
        if not keep.any(axis=0).all():
            raise ValueError("every column must keep at least one bit")
        keep.flags.writeable = False            # patterns are shared
        object.__setattr__(self, "keep", keep)

    @property
    def streams(self) -> int:
        return self.keep.shape[0]

    @property
    def period(self) -> int:
        return self.keep.shape[1]

    @property
    def kept_per_period(self) -> int:
        return int(self.keep.sum())

    def mask(self, n: int) -> np.ndarray:
        """Flat keep mask over n bits laid out stream-major per time step."""
        block = self.streams * self.period
        if n % block:
            raise FramingError(f"length {n} not divisible by {block}")
        return np.tile(self.keep.T.ravel(), n // block)


# Rate 1/2 -> 2/3: keep every systematic bit, drop every second parity bit.
RATE_23_PUNCTURE = PuncturePattern(keep=np.array([[1, 1], [1, 0]], dtype=bool))
# The unpunctured mother code: keep every bit (rate 1/2).
NO_PUNCTURE = PuncturePattern(keep=np.ones((2, 1), dtype=bool))


def apply_puncture(c: np.ndarray, pattern: PuncturePattern) -> np.ndarray:
    """Drop flagged positions from a stream-major coded sequence."""
    c = np.asarray(c)
    return c[..., pattern.mask(c.shape[-1])]


def insert_erasures(llrs: np.ndarray, pattern: PuncturePattern,
                    full_len: int) -> np.ndarray:
    """Inverse of apply_puncture on LLRs: dropped positions become 0."""
    llrs = np.asarray(llrs, dtype=np.float64)
    mask = pattern.mask(full_len)
    if llrs.shape[-1] != int(mask.sum()):
        raise FramingError(f"got {llrs.shape[-1]} LLRs for {int(mask.sum())} "
                           "kept positions")
    out = np.zeros(llrs.shape[:-1] + (full_len,), dtype=np.float64)
    out[..., mask] = llrs
    return out
