import numpy as np
import pytest

from vlclink import codes
from vlclink.codes import FramingError
from vlclink.dimming import (DimmingConfig, dim_decode, dim_encode,
                             plan_dimming)
from vlclink.siso import bcjr_extrinsic

import oracles


def _split_phase_frame(n_in, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.integers(0, 2, n_in)
    return codes.encode(codes.build_split_phase(), v)


def test_plan_counts_d60():
    cfg = plan_dimming(1000, 0.6)
    assert cfg.p == 200
    assert cfg.compensation_value == 1
    assert cfg.puncture_positions.size == 200
    # whole pairs: even indices paired with their +1 neighbour
    pp = cfg.puncture_positions.reshape(-1, 2)
    assert (pp[:, 1] == pp[:, 0] + 1).all()
    assert (pp[:, 0] % 2 == 0).all()


def test_plan_arrays_read_only_copies():
    cfg = plan_dimming(1000, 0.6)
    for name in ("puncture_positions", "insertion_positions",
                 "kept_positions", "data_slots"):
        a = getattr(cfg, name)
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]
    pp, ip = np.array([0, 1]), np.array([0, 3])
    cfg = DimmingConfig(frame_len=4, puncture_positions=pp,
                        insertion_positions=ip, compensation_value=1)
    pp[0], ip[0] = 2, 1
    assert cfg.puncture_positions.tolist() == [0, 1]
    assert cfg.insertion_positions.tolist() == [0, 3]


def test_plan_counts_d40():
    cfg = plan_dimming(1000, 0.4)
    assert cfg.p == 200
    assert cfg.compensation_value == 0


def test_identity_at_half():
    cfg = plan_dimming(1000, 0.5)
    assert cfg.p == 0
    c = _split_phase_frame(500)
    assert (dim_encode(c, cfg) == c).all()
    y = np.random.default_rng(1).normal(size=1000)
    np.testing.assert_array_equal(dim_decode(y, cfg), y)


@pytest.mark.parametrize("d,expect", [(0.6, 0.6), (0.4, 0.4), (0.75, 0.75)])
def test_exact_ones_fraction(d, expect):
    c = _split_phase_frame(500)
    cfg = plan_dimming(1000, d)
    tx = dim_encode(c, cfg)
    assert tx.size == 1000
    assert abs(tx.mean() - expect) <= 1 / 1000


def test_bad_target():
    with pytest.raises(ValueError):
        plan_dimming(1000, 0.0)
    with pytest.raises(ValueError):
        plan_dimming(1000, 1.0)


def test_frame_length_errors():
    cfg = plan_dimming(100, 0.6)
    with pytest.raises(FramingError):
        dim_encode(np.zeros(99), cfg)
    with pytest.raises(FramingError):
        dim_decode(np.zeros(101), cfg)


def test_decode_restores_surviving_positions():
    cfg = plan_dimming(200, 0.6)
    c = _split_phase_frame(100)
    y = dim_encode(c, cfg).astype(float)
    back = dim_decode(y, cfg)
    assert (back[cfg.kept_positions] == c[cfg.kept_positions]).all()
    assert (back[cfg.puncture_positions] == 0.5).all()


def test_neutral_reinsertion_equals_shortened_decode():
    """Decoding with 1/2 at the punctured positions equals an
    exhaustive decode whose metric leaves those positions out entirely,
    for equal-weight (split-phase) and unequal-weight (BMC) labels."""
    n = 8
    sigma2 = 0.5
    cfg = plan_dimming(2 * n, 0.625)   # punctures one pair
    for trellis in (codes.build_split_phase(), codes.build_bmc()):
        rng = np.random.default_rng(2)
        c = codes.encode(trellis, rng.integers(0, 2, n))
        y_tx = dim_encode(c, cfg) + rng.normal(0, np.sqrt(sigma2), 2 * n)
        y = dim_decode(y_tx, cfg)
        prior = rng.normal(0, 1, n)
        got = bcjr_extrinsic(trellis, observations=y, prior=prior,
                             sigma2=sigma2)[0]
        want = oracles.exhaustive_inner_extrinsic(
            trellis, y[cfg.kept_positions], prior, sigma2,
            observed=cfg.kept_positions)
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_run_length_bound_with_insertions():
    c = _split_phase_frame(500, seed=3)
    cfg = plan_dimming(1000, 0.6)
    tx = dim_encode(c, cfg)
    change = np.flatnonzero(np.diff(tx)) + 1
    edges = np.concatenate([[0], change, [tx.size]])
    assert np.diff(edges).max() <= 3   # native run 2 + single spread 1s
