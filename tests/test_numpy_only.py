"""The library needs numpy alone: with scipy unimportable, every vlclink
module imports and a small threshold search runs.  (perfbench still uses
scipy for its reference limits.)"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None         # every import of scipy now fails
import vlclink
for info in pkgutil.iter_modules(vlclink.__path__):
    importlib.import_module("vlclink." + info.name)
from vlclink import harness
cfg = harness.load_config(None, overrides={
    "exit_samples": 600, "threshold_resolution_db": 0.5})
print(",".join(sorted(harness.run_threshold(cfg))))
"""


def test_library_runs_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", PROGRAM],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["cc-4b6b,cc-bmc,cc-split-phase"]
