"""Print, as JSON, the numbers a refactor of vlclink must leave unchanged.

    python tools/same_numbers.py [--save after.npz] > after.json
    python tools/same_numbers.py --compare before.npz after.npz
    python tools/same_numbers.py --fixture tests/data/same_numbers.json

Run it on two checkouts and diff the outputs: a change that claims the
same numbers must print the same file.  It records

- simulate_point records, floats by float.hex and the wall time dropped,
  at the benchmark's desk and dim60 settings and at small cc-bmc,
  cc-4b6b and cc-manchester points, each at batch 1, 3 and 8;
- run_threshold at seed 1 with 5000 samples, at seed 2 with 2000, at
  seed 3 with 12 800, whose 50 blocks per EXIT grid point are more than
  one inner-decoder call takes, and at seed 4 with 2000 and
  threshold_hi_db = 4.0, where split-phase and BMC find no threshold (its
  schemes and floats by float.hex);
- SHA-256 digests of the bytes of bcjr_forward_backward's alpha and beta
  and of bcjr_extrinsic, bcjr_decode and map_lut outputs, on fixed
  random inputs at long, medium, wide and short shapes, and of the values
  of EXIT curves: outer_curve for both punctures at 600, 2000 and 5000
  samples, and one split-phase inner_curve.

A digest tells only that an output changed.  --save also keeps those
decoder outputs in an .npz file, and --compare reads two such files and
prints, per output, "identical" or the largest absolute difference, which
tells rounding (about 1e-15) from a changed metric.  It exits with status
1 if any output differs, changes shape or is in one file only, else 0.

--fixture writes the simulate_point records and run_threshold results,
without the decoder digests, to the file tests/test_same_numbers.py
checks; a change that alters those numbers on purpose rewrites it.

The source tree imported is the one next to this script.  It takes well
under a minute on a 2-core 2.0 GHz Xeon VM.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vlclink import (codes, exitchart, harness, pipeline,  # noqa: E402
                     siso)

# (scheme, k, iterations, Eb/N0 dB, point index, seed)
POINTS = {
    "desk": ("cc-split-phase", 5460, 30, 4.6, 0, 1),
    "dim60": ("cc-split-phase-dim60", 512, 100, 5.0, 1, 1),
    "cc-bmc": ("cc-bmc", 600, 10, 4.0, 2, 7),
    "cc-4b6b": ("cc-4b6b", 600, 10, 4.0, 2, 7),
    "cc-manchester": ("cc-manchester", 600, 10, 4.0, 2, 7),
}
BLOCKS = 8
BATCHES = (1, 3, 8)
# (blocks, sections) of the decoder calls digested
INNER_SHAPES = ((8, 8193), (8, 1028), (20, 256), (2, 7))
OUTER_SHAPES = ((8, 5462), (8, 514), (26, 130), (3, 203))
LUT_SHAPES = ((8, 1366), (40, 64), (2, 3))
# samples per grid point of the outer curves recorded: 4, 11 and 26
# rate-2/3 blocks, 3, 8 and 20 unpunctured ones
CURVE_SAMPLES = (600, 2000, 5000)
# (seed, EXIT samples, other config keys) of the threshold searches
THRESHOLD_SETTINGS = ((1, 5000, {}), (2, 2000, {}), (3, 12_800, {}),
                      (4, 2000, {"threshold_hi_db": 4.0}))


def _plain(value):
    return float.hex(value) if isinstance(value, float) else value


def _digest(x) -> str:
    return hashlib.sha256(np.ascontiguousarray(x, np.float64)
                          .tobytes()).hexdigest()


def ber_records() -> dict:
    out = {}
    for name, (scheme, k, iters, ebn0, point, seed) in POINTS.items():
        chain = pipeline.make_chain(scheme, k, iterations=iters,
                                    genie_stopping=True)
        for batch in BATCHES:
            rec = harness.simulate_point(chain, ebn0, point, seed,
                                         max_blocks=BLOCKS,
                                         target_errors=200, batch=batch)
            out[f"{name} batch {batch}"] = {
                f.name: _plain(getattr(rec, f.name))
                for f in dataclasses.fields(rec) if f.name != "wall_time_s"}
    return out


def thresholds() -> dict:
    """run_threshold's results, "seed <s>, <n> samples[, <key> <value>]"
    -> scheme -> fields."""
    out = {}
    for seed, samples, keys in THRESHOLD_SETTINGS:
        cfg = harness.load_config(None, overrides={"exit_samples": samples,
                                                   "seed": seed, **keys})
        setting = f"seed {seed}, {samples} samples" + "".join(
            f", {k} {v}" for k, v in keys.items())
        out[setting] = {
            scheme: {k: _plain(v) for k, v in
                     dataclasses.asdict(res).items()}
            for scheme, res in harness.run_threshold(cfg).items()}
    return out


def fixture() -> dict:
    """The records and thresholds, the part of the JSON a Tier-1 test
    keeps."""
    return {"simulate_point": ber_records(), "run_threshold": thresholds()}


def decoder_outputs() -> dict:
    """Decoder outputs on fixed random inputs, "<code> <B>x<n> <what>" ->
    array, and EXIT curve values, "<curve> [<puncture>] <samples>" ->
    array."""
    rng = np.random.default_rng(2024)
    out = {}
    for trellis in (codes.build_split_phase(), codes.build_bmc()):
        for B, n in INNER_SHAPES:
            y = (codes.encode(trellis, rng.integers(0, 2, (B, n)))
                 + rng.normal(0, 0.6, (B, 2 * n)))
            prior = rng.normal(0, 2.0, (B, n))
            gamma = siso.gamma_table_ook(trellis, y, prior, 0.36)
            ws = siso.bcjr_forward_backward(trellis, gamma)
            key = f"{trellis.name} {B}x{n}"
            out[f"{key} alpha"], out[f"{key} beta"] = ws.alpha, ws.beta
            out[f"{key} extrinsic"] = siso.bcjr_extrinsic(
                trellis, observations=y, prior=prior, sigma2=0.36)
    cc = codes.build_outer_cc()
    for B, n in OUTER_SHAPES:
        gamma = siso.gamma_table_llr(cc, rng.normal(0, 1.5, (B, n, 2)))
        ws = siso.bcjr_forward_backward(cc, gamma)
        res = siso.bcjr_decode(cc, gamma)
        key = f"{cc.name} {B}x{n}"
        out[f"{key} alpha"], out[f"{key} beta"] = ws.alpha, ws.beta
        out[f"{key} app_input"] = res.app_input
        out[f"{key} app_output"] = res.app_output
    for spec in (codes.build_4b6b(), codes.build_manchester()):
        for B, nsym in LUT_SHAPES:
            bits = rng.integers(0, 2, (B, nsym * spec.input_width))
            y = (codes.encode_lut(spec, bits)
                 + rng.normal(0, 0.6, (B, nsym * spec.output_width)))
            prior = rng.normal(0, 2.0, bits.shape)
            out[f"{spec.name} {B}x{nsym} extrinsic"] = siso.map_lut(
                spec, y, prior, sigma2=0.36)
    for name, puncture in (("rate-2/3", codes.RATE_23_PUNCTURE),
                           ("rate-1/2", codes.NO_PUNCTURE)):
        for samples in CURVE_SAMPLES:
            out[f"outer_curve {name} {samples}"] = exitchart.outer_curve(
                cc, puncture, samples=samples, seed=1).values
    out["inner_curve split-phase 5000"] = exitchart.inner_curve(
        "split-phase", 0.36, samples=5000, seed=1).values
    return out


def compare(before: str, after: str) -> bool:
    """Print each saved output's largest absolute difference; True if
    every output is in both files and identical."""
    same = True
    with np.load(before) as a, np.load(after) as b:
        for name in sorted(set(a.files) | set(b.files)):
            if name not in a.files or name not in b.files:
                only = before if name in a.files else after
                print(f"{name}: only in {only}")
            elif a[name].shape != b[name].shape:
                print(f"{name}: shape {a[name].shape} -> {b[name].shape}")
            elif np.array_equal(a[name], b[name]):
                print(f"{name}: identical")
                continue
            else:
                print(f"{name}: max |delta| = "
                      f"{np.max(np.abs(a[name] - b[name])):.3g}")
            same = False
    return same


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="NPZ",
                        help="also keep the decoder outputs in this file")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two saved runs and exit")
    parser.add_argument("--fixture", metavar="JSON",
                        help="write the records and thresholds only to this "
                             "file and exit")
    args = parser.parse_args(argv)
    if args.compare:
        sys.exit(0 if compare(*args.compare) else 1)
    if args.fixture:
        with open(args.fixture, "w") as f:
            json.dump(fixture(), f, indent=1)
            f.write("\n")
        return
    outputs = decoder_outputs()
    if args.save:
        np.savez(args.save, **outputs)
    json.dump({**fixture(),
               "decoders": {name: _digest(x)
                            for name, x in outputs.items()}},
              sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
