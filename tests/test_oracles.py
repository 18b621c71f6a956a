"""Checks on the structure the 4B6B error-floor bound is computed from."""

from math import erfc, sqrt

import numpy as np
import pytest

from oracles import (committed_4b6b_table, lut_flip_distances,
                     outer_distance_spectrum, serial_union_bound)
from vlclink import codes
from vlclink.channel import ebn0_to_sigma2


def test_committed_table_is_the_ieee_802_15_7_table():
    words = ["001110", "001101", "010011", "010110", "010101", "100011",
             "100110", "100101", "011001", "011010", "011100", "110001",
             "110010", "101001", "101010", "101100"]
    want = np.array([[int(b) for b in w] for w in words])
    assert (codes.build_4b6b().table == want).all()


def test_4b6b_flip_profile():
    flips = lut_flip_distances(committed_4b6b_table())
    assert np.bincount(flips).tolist() == [0, 0, 24, 0, 40]


def test_outer_spectrum_leading_terms():
    spectrum = outer_distance_spectrum(codes.build_outer_cc(), d_max=8)
    assert spectrum == {5: 3, 6: 6, 7: 14, 8: 32}


def test_single_event_bound_is_one_pairwise_error_probability():
    sigma2 = 0.3
    got = serial_union_bound({2: 1}, np.array([1, 3]), sigma2)
    want = sum(0.5 * erfc(sqrt(D / (8 * sigma2))) / n
               for D, n in ((2, 4), (4, 2), (6, 4)))
    assert got == pytest.approx(want, rel=1e-12)


def test_4b6b_floor_bound_values():
    spectrum = outer_distance_spectrum(codes.build_outer_cc(), d_max=16)
    flips = lut_flip_distances(committed_4b6b_table())
    ub = [serial_union_bound(spectrum, flips, ebn0_to_sigma2(e, 1 / 3, 0.5))
          for e in (4.48, 4.98, 5.48)]
    assert ub == pytest.approx([5.19e-4, 1.974e-4, 7.127e-5], rel=2e-3)
