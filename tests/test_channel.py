import warnings

import numpy as np
import pytest

from vlclink.channel import awgn, block_rng, ebn0_to_sigma2, ook_modulate
from vlclink.pipeline import make_chain


def test_ook_definition():
    assert ook_modulate([1, 0, 1]).tolist() == [1.0, 0.0, 1.0]


def test_balanced_frame_mean():
    rng = np.random.default_rng(0)
    from vlclink import codes
    v = rng.integers(0, 2, 5000)
    line = codes.encode_lut(codes.build_manchester(), v)
    assert ook_modulate(line).mean() == 0.5


def test_awgn_statistics():
    rng = np.random.default_rng(1)
    x = np.zeros(10 ** 6)
    sigma2 = 0.37
    n = awgn(x, sigma2, rng) - x
    assert abs(n.mean()) < 0.01
    assert sigma2 * 0.99 < n.var() < sigma2 * 1.01


def test_awgn_reproducible():
    x = np.ones(100)
    a = awgn(x, 0.5, block_rng(42, 3))
    b = awgn(x, 0.5, block_rng(42, 3))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("sigma2", [1e-6, 0.137, 0.5, 3.7])
def test_awgn_is_scaled_standard_normal(sigma2):
    """awgn's noise is sqrt(sigma2) times the generator's standard-normal
    draws, bit for bit, and leaves the stream at the same place, also when
    the draws fill a preallocated array; exitchart draws the noise once
    and rescales it per noise level on this identity."""
    x = ook_modulate(np.random.default_rng(3).integers(0, 2, (5, 77)))
    a, b, c = (block_rng(9, 2) for _ in range(3))
    y = awgn(x, sigma2, a)
    np.testing.assert_array_equal(
        y, x + np.sqrt(sigma2) * b.standard_normal(x.shape))
    z = np.empty(x.shape)
    c.standard_normal(out=z)
    np.testing.assert_array_equal(y, x + np.sqrt(sigma2) * z)
    assert a.random() == b.random() == c.random()


def test_seed_isolation():
    """Block noise depends only on (master seed, index), not on order."""
    draws1 = [awgn(np.zeros(8), 1.0, block_rng(7, i)) for i in (0, 1, 2)]
    draws2 = [awgn(np.zeros(8), 1.0, block_rng(7, i)) for i in (2, 0, 1)]
    np.testing.assert_array_equal(draws1[0], draws2[1])
    np.testing.assert_array_equal(draws1[2], draws2[0])


def test_ebn0_conversion_closed_form():
    assert ebn0_to_sigma2(0.0, 1 / 3, 0.5) == pytest.approx(0.75)


def test_ebn0_limits_and_scaling():
    assert ebn0_to_sigma2(60.0, 1 / 3, 0.5) < 1e-6
    a = ebn0_to_sigma2(3.0, 1 / 4, 0.5)
    b = ebn0_to_sigma2(3.0, 1 / 2, 0.5)
    assert a == pytest.approx(2 * b)


def test_monotone_in_ebn0():
    grid = np.linspace(-5, 15, 41)
    s2 = [ebn0_to_sigma2(x, 1 / 3, 0.5) for x in grid]
    assert (np.diff(s2) < 0).all()


def test_parameter_errors():
    with pytest.raises(ValueError, match="rate must be positive"):
        ebn0_to_sigma2(1.0, 0.0, 0.5)
    with pytest.raises(ValueError, match="es must be positive"):
        ebn0_to_sigma2(1.0, 0.5, -1.0)
    for sigma2 in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            awgn(np.zeros(4), sigma2, np.random.default_rng(0))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["ebn0_db", "rate", "es"])
def test_nonfinite_argument_rejected(name, value):
    """A NaN or infinite argument raises a ValueError naming it, where it
    used to give NaN, 0.0 or a ZeroDivisionError."""
    args = dict(ebn0_db=3.0, rate=0.5, es=0.5)
    args[name] = value
    with pytest.raises(ValueError, match=f"^{name} must be"):
        ebn0_to_sigma2(**args)


@pytest.mark.parametrize("ebn0_db", [3100.0, -3300.0, np.float64(3100.0),
                                     np.float64(-3300.0), 10 ** 6, -10 ** 6])
def test_out_of_range_noise_variance_rejected(ebn0_db):
    """An Eb/N0 so far out that the noise variance overflows or underflows
    raises a ValueError naming ebn0_db, directly and through a chain, where
    it used to raise a bare OverflowError or ZeroDivisionError (or, for a
    numpy float, return 0.0 or inf with a RuntimeWarning)."""
    chain = make_chain("cc-split-phase", 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for convert in (lambda e: ebn0_to_sigma2(e, 0.5, 0.5),
                        chain.sigma2):
            with pytest.raises(ValueError, match=f"^ebn0_db={ebn0_db} "):
                convert(ebn0_db)


def test_extreme_but_representable_ebn0_kept():
    """Near the ends of the range the closed form still holds."""
    assert ebn0_to_sigma2(3000.0, 0.5, 0.5) == pytest.approx(5e-301,
                                                             rel=1e-15)
    assert ebn0_to_sigma2(-3000.0, 0.5, 0.5) == pytest.approx(5e299,
                                                              rel=1e-15)
