"""The numbers a refactor must leave unchanged.

The same-numbers probe (tools/same_numbers.py) recomputes its
simulate_point records and run_threshold results, and they must equal the
saved fixture: every record field and each threshold and `found` flag
exactly (floats by float.hex), the tunnel gap to 1e-9.  A change that
alters these numbers on purpose rewrites the fixture with
`python tools/same_numbers.py --fixture tests/data/same_numbers.json` and
declares the diff.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "same_numbers", ROOT / "tools" / "same_numbers.py")
probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(probe)

SAVED = json.loads((ROOT / "tests" / "data" / "same_numbers.json")
                   .read_text())


def test_simulate_point_records():
    assert probe.ber_records() == SAVED["simulate_point"]


def test_thresholds():
    got = probe.thresholds()
    assert got.keys() == SAVED["run_threshold"].keys()
    for setting, schemes in SAVED["run_threshold"].items():
        assert got[setting].keys() == schemes.keys(), setting
        for scheme, want in schemes.items():
            have, want = dict(got[setting][scheme]), dict(want)
            gap = float.fromhex(have.pop("tunnel_min_gap"))
            assert gap == pytest.approx(
                float.fromhex(want.pop("tunnel_min_gap")), rel=0, abs=1e-9)
            assert have == want, (setting, scheme)
