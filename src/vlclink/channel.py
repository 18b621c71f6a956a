"""On-off keying over AWGN and Eb/N0 bookkeeping."""

from __future__ import annotations

import numpy as np

# Halfway between OFF and ON: the observation whose channel LLR is 0.
OOK_MIDPOINT = 0.5


def ook_modulate(bits: np.ndarray) -> np.ndarray:
    """Bit 1 -> amplitude 1.0 (LED on), bit 0 -> amplitude 0.0."""
    return np.asarray(bits, dtype=np.float64)


def block_rng(master_seed: int, *index: int) -> np.random.Generator:
    """Independent generator for one block, pure function of (seed, index)."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=tuple(index)))


def check_sigma2(sigma2) -> None:
    """Reject a noise variance that is not positive and finite."""
    if not (np.isfinite(sigma2) and sigma2 > 0):
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")


def awgn(x: np.ndarray, sigma2: float,
         rng: np.random.Generator) -> np.ndarray:
    """y = x + n with n iid Gaussian, mean zero, variance sigma2."""
    check_sigma2(sigma2)
    x = np.asarray(x, dtype=np.float64)
    return x + rng.normal(0.0, np.sqrt(sigma2), size=x.shape)


def ebn0_to_sigma2(ebn0_db: float, rate: float, es: float) -> float:
    """Noise variance for an Eb/N0 point.

    Convention: energy per info bit Eb = Es / rate, N0 = 2 sigma^2, so
    sigma^2 = Es / (2 * rate * 10^(ebn0_db/10)).  Es is the mean energy per
    channel use of the {0,1} constellation at the configured dimming
    (0.5 at 50% dimming).  ebn0_db must be finite, and rate and es
    positive and finite; a ValueError names the argument that is not.  An
    ebn0_db so far out that the noise variance is not positive and finite
    (beyond about +-3080 dB at rate 1/2 and Es 1/2) raises a ValueError
    naming ebn0_db too.
    """
    if not np.isfinite(ebn0_db):
        raise ValueError(f"ebn0_db must be finite, got {ebn0_db}")
    for name, value in (("rate", rate), ("es", es)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, "
                             f"got {value}")
    try:
        with np.errstate(over="ignore", divide="ignore", under="ignore"):
            sigma2 = es / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))
    except (OverflowError, ZeroDivisionError):     # Python floats raise
        sigma2 = np.nan
    if not (np.isfinite(sigma2) and sigma2 > 0):
        raise ValueError(f"ebn0_db={ebn0_db} gives a noise variance that is "
                         "not positive and finite")
    return sigma2
