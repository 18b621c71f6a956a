"""Print, as JSON, the numbers a refactor of vlclink must leave unchanged.

    python tools/same_numbers.py > after.json

Run it on two checkouts and diff the outputs: a change that claims the
same numbers must print the same file.  It records

- simulate_point records, floats by float.hex and the wall time dropped,
  at the benchmark's desk and dim60 settings and at small cc-bmc,
  cc-4b6b and cc-manchester points, each at batch 1, 3 and 8;
- run_threshold at 5000 samples (its schemes and floats by float.hex);
- SHA-256 digests of the bytes of bcjr_forward_backward's alpha and beta
  and of bcjr_extrinsic, bcjr_decode and map_lut outputs, on fixed
  random inputs at long, medium, wide and short shapes.

The source tree imported is the one next to this script.  It takes well
under a minute on a 2-core 2.0 GHz Xeon VM.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vlclink import codes, harness, pipeline, siso  # noqa: E402

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
    cfg = harness.load_config(None, overrides={"exit_samples": 5000,
                                               "seed": 1})
    return {scheme: {k: _plain(v) for k, v in
                     dataclasses.asdict(res).items()}
            for scheme, res in harness.run_threshold(cfg).items()}


def decoder_digests() -> dict:
    rng = np.random.default_rng(2024)
    out = {}
    for trellis in (codes.build_split_phase(), codes.build_bmc()):
        for B, n in INNER_SHAPES:
            y = (codes.encode(trellis, rng.integers(0, 2, (B, n)))
                 + rng.normal(0, 0.6, (B, 2 * n)))
            prior = rng.normal(0, 2.0, (B, n))
            gamma = siso.gamma_table_ook(trellis, y, prior, 0.36)
            ws = siso.bcjr_forward_backward(trellis, gamma)
            ext = siso.bcjr_extrinsic(trellis, observations=y, prior=prior,
                                      sigma2=0.36)
            out[f"{trellis.name} {B}x{n}"] = [
                _digest(ws.alpha), _digest(ws.beta), _digest(ext)]
    cc = codes.build_outer_cc()
    for B, n in OUTER_SHAPES:
        gamma = siso.gamma_table_llr(cc, rng.normal(0, 1.5, (B, n, 2)))
        ws = siso.bcjr_forward_backward(cc, gamma)
        res = siso.bcjr_decode(cc, gamma)
        out[f"{cc.name} {B}x{n}"] = [
            _digest(ws.alpha), _digest(ws.beta), _digest(res.app_input),
            _digest(res.app_output)]
    for spec in (codes.build_4b6b(), codes.build_manchester()):
        for B, nsym in LUT_SHAPES:
            bits = rng.integers(0, 2, (B, nsym * spec.input_width))
            y = (codes.encode_lut(spec, bits)
                 + rng.normal(0, 0.6, (B, nsym * spec.output_width)))
            prior = rng.normal(0, 2.0, bits.shape)
            out[f"{spec.name} {B}x{nsym}"] = _digest(
                siso.map_lut(spec, y, prior, sigma2=0.36))
    return out


def main() -> None:
    json.dump({"simulate_point": ber_records(),
               "run_threshold": thresholds(),
               "decoders": decoder_digests()}, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
