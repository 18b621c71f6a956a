import numpy as np
import pytest

from vlclink.channel import awgn, block_rng, ebn0_to_sigma2, ook_modulate


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
    with pytest.raises(ValueError):
        ebn0_to_sigma2(1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        ebn0_to_sigma2(1.0, 0.5, -1.0)
    for sigma2 in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            awgn(np.zeros(4), sigma2, np.random.default_rng(0))
