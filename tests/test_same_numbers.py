"""The numbers a refactor must leave unchanged.

The same-numbers probe (tools/same_numbers.py) recomputes its
simulate_point records and run_threshold results, and they must equal the
saved fixture: every record field and each threshold and `found` flag
exactly (floats by float.hex), the tunnel gap to 1e-9.  A change that
alters these numbers on purpose rewrites the fixture with
`python tools/same_numbers.py --fixture tests/data/same_numbers.json` and
declares the diff.  The probe's --compare exits with status 1 when two
saved runs differ.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
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


@pytest.mark.parametrize("after, status", [
    ({"x": [0.0, 1.0], "y": [2.0]}, 0),
    ({"x": [0.0, 1.0 + 2 ** -52], "y": [2.0]}, 1),
    ({"x": [0.0, 1.0], "y": [2.0, 2.0]}, 1),
    ({"x": [0.0, 1.0]}, 1),
    ({"x": [0.0, 1.0], "y": [2.0], "z": [3.0]}, 1)],
    ids=["identical", "differs", "shape", "only before", "only after"])
def test_compare_exit_status(tmp_path, capsys, after, status):
    np.savez(tmp_path / "before.npz", x=[0.0, 1.0], y=[2.0])
    np.savez(tmp_path / "after.npz", **after)
    with pytest.raises(SystemExit) as exc:
        probe.main(["--compare", str(tmp_path / "before.npz"),
                    str(tmp_path / "after.npz")])
    assert exc.value.code == status
    assert len(capsys.readouterr().out.splitlines()) == len({"x", "y", *after})
