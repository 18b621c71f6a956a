"""Benchmark of vlclink: one workload, one process, one BLAS thread.

    python3 perfbench/run.py --workload desk-waterfall --seed 1 \
        --seconds 36 --trace 0

Run from the repository root; vlclink is imported from ./src.  The run
sets the program up SETUPS times (a fresh `import vlclink` each time) and
keeps the last set-up, then repeats the workload's one operation on the
same inputs while the next round still fits in --seconds (a traced run
makes at least two rounds).  It checks the outputs and prints, as its last
line, a JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics: setup_s (median set-up time),
op_s (median operation time) and peak_rss_mb.  --trace 1 alternates
untraced and traced operations and reports the per-layer metrics of the
traced ones (see spans.py) and trace.overhead_ratio.  Times are scaled to
the host's nominal speed (see `calibrate`).  Each run leaves its record,
with the raw wall times, under perfbench/out/runs/ and, when traced, its
spans under perfbench/out/traces/.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse                                         # noqa: E402
import gc                                               # noqa: E402
import importlib                                        # noqa: E402
import json                                             # noqa: E402
import platform                                         # noqa: E402
import resource                                         # noqa: E402
import statistics                                       # noqa: E402
import sys                                              # noqa: E402
import time                                             # noqa: E402
import traceback                                        # noqa: E402
from pathlib import Path                                # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUPS = 11

# numpy and scipy load before any clock starts: their import time measures
# the disk cache, not this program.
import numpy as np                                      # noqa: E402
import scipy.interpolate                                # noqa: E402,F401

import reference                                        # noqa: E402
import spans                                            # noqa: E402
import workloads                                        # noqa: E402

PER_LAYER = {
    "siso.bcjr_forward_backward.self_s": "s",
    "siso.bcjr_forward_backward.sections": "count",
    "siso.bcjr_decode.self_s": "s",
    "siso.bcjr_extrinsic.self_s": "s",
    "siso.gamma_table_ook.self_s": "s",
    "siso.gamma_table_llr.self_s": "s",
    "siso.map_lut.self_s": "s",
    "siso.map_lut.symbols": "count",
    "siso.workspace_mb": "MB",
    "pipeline.receive.self_s": "s",
    "pipeline.encode_chain.self_s": "s",
    "pipeline.receive.block_iters_decoded": "count",
    "pipeline.receive.block_iters_useful": "count",
    "pipeline.receive.useful_ratio": "ratio",
    "pipeline.make_chain.s": "s",
    "codes.encode.self_s": "s",
    "codes.encode_lut.self_s": "s",
    "codes.apply_puncture.self_s": "s",
    "codes.insert_erasures.self_s": "s",
    "channel.awgn.self_s": "s",
    "channel.block_rng.self_s": "s",
    "dimming.dim_encode.self_s": "s",
    "dimming.dim_decode.self_s": "s",
    "dimming.plan_dimming.s": "s",
    "exitchart.inner_curve.self_s": "s",
    "exitchart.inner_curve.calls": "count",
    "exitchart.outer_curve.self_s": "s",
    "exitchart.outer_curve.calls": "count",
    "exitchart.find_threshold.self_s": "s",
    "exitchart.measure_mi.self_s": "s",
    "exitchart.sample_priors.self_s": "s",
    "exitchart.j_inverse.self_s": "s",
    "harness.simulate_point.self_s": "s",
    "harness.run_threshold.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "host.calibration_s": "s",
}
COUNTS = ("siso.bcjr_forward_backward.sections", "siso.map_lut.symbols",
          "siso.workspace_mb", "pipeline.receive.block_iters_decoded",
          "pipeline.receive.block_iters_useful")
# Counts that identical inputs must reproduce exactly.
REPEATED = COUNTS + ("exitchart.inner_curve.calls",
                     "exitchart.outer_curve.calls")

# Host-speed calibration.  This host's speed drifts by up to 1.7x within a
# minute, while the time of a vlclink operation divided by the time of a
# fixed decode by the benchmark's own reference code, measured right before
# and after it, moves a few percent.  So each set-up and each operation is
# timed between two calibrations and scaled to seconds at the host's
# nominal speed: a set-up by CAL_NOMINAL_S / (the mean of its two), an
# operation by CAL_NOMINAL_S / (the median of its two and of the one before
# and the one after them).  One calibration lasts a fraction of a second
# and can catch a burst that a 10 s operation averages out; the median of
# four keeps such a burst from setting the operation's scale.
CAL_NOMINAL_S = 0.025
_CAL_ARGS = (reference.split_phase(),
             np.random.default_rng(0).normal(0.5, 0.5, (8, 800)),
             np.zeros((8, 400)), 0.3)


def calibrate(reps: int, log: list) -> float:
    """Mean time of `reps` fixed reference decodes; appended to log."""
    t0 = time.perf_counter()
    for _ in range(reps):
        reference.inner_extrinsic(*_CAL_ARGS)
    log.append((time.perf_counter() - t0) / reps)
    return log[-1]


def fresh_vlclink():
    """Import vlclink and its harness from ./src as if for the first time."""
    for name in [m for m in sys.modules
                 if m == "vlclink" or m.startswith("vlclink.")]:
        del sys.modules[name]
    pkg = importlib.import_module("vlclink")
    importlib.import_module("vlclink.harness")
    if Path(pkg.__file__).resolve().parent != SRC / "vlclink":
        raise ImportError(f"vlclink loaded from {pkg.__file__}, not {SRC}")
    return pkg


def layer_values(summary: dict, counts: dict, scale: float) -> dict:
    """Per-layer metrics of one traced operation, times scaled."""
    out = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in COUNTS:
            out[name] = counts.get(name, 0)
        elif field == "calls":
            out[name] = summary.get(span, {}).get(field, 0)
        elif field == "self_s":
            out[name] = scale * summary.get(span, {}).get(field, 0)
    decoded = out["pipeline.receive.block_iters_decoded"]
    out["pipeline.receive.useful_ratio"] = (
        out["pipeline.receive.block_iters_useful"] / decoded if decoded else 0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vlclink" / "__init__.py").is_file():
        print(f"perfbench: no vlclink sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None

    cal = []
    wall = {"setup_s": [], "op_s": [], "traced_op_s": [], "calibration_s": cal}
    setup_s, setup_layers = [], {"pipeline.make_chain": [],
                                 "dimming.plan_dimming": []}
    before = calibrate(3, cal)
    for _ in range(SETUPS):
        gc.collect()
        first = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        vl = fresh_vlclink()
        if tracer:
            tracer.install(vl)
        state = wl.setup(vl, args.seed)
        dt = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
        after = calibrate(3, cal)
        scale = CAL_NOMINAL_S / ((before + after) / 2)
        before = after
        wall["setup_s"].append(dt)
        setup_s.append(scale * dt)
        if tracer:
            summary = tracer.summary(first, len(tracer.spans))
            for span, vals in setup_layers.items():
                vals.append(scale * summary.get(span, {}).get("total_s", 0))
            tracer.take_counts()

    # One round is one operation, or an untraced then a traced one.  A
    # traced run makes two rounds at least, so that its counts can be seen
    # to repeat.
    kinds = (False, True) if tracer else (False,)
    min_rounds = 2 if tracer else 1
    rounds = 0
    capture = workloads.Capture()
    capture.install(vl)
    ops = []            # (traced, seconds, index of the calibration before)
    traced_ops, results = [], []
    attempted = failed = 0
    calibrate(8, cal)
    first_cal = len(cal) - 1
    start = time.perf_counter()
    last_round = 0.0
    while rounds < min_rounds or (time.perf_counter() - start + last_round
                                  <= args.seconds):
        rounds += 1
        round_start = time.perf_counter()
        for traced in kinds:
            if traced:
                tracer.install(vl)
                first = len(tracer.spans)
            gc.collect()
            attempted += 1
            t0 = time.perf_counter()
            try:
                res = wl.op(state)
            except Exception:
                if not failed:
                    traceback.print_exc(file=sys.stderr)
                failed += 1
                res = None
            dt = time.perf_counter() - t0
            capture.uninstall()
            if traced:
                tracer.uninstall()
                traced_ops.append((len(cal) - 1,
                                   tracer.summary(first, len(tracer.spans)),
                                   tracer.take_counts()))
            if res is not None:
                wall["traced_op_s" if traced else "op_s"].append(dt)
                ops.append((traced, dt, len(cal) - 1))
                results.append(res)
            calibrate(8, cal)
        last_round = time.perf_counter() - round_start

    def op_scale(i):
        return CAL_NOMINAL_S / statistics.median(cal[max(first_cal, i - 1):
                                                     i + 3])
    times = {traced: [op_scale(i) * dt for t, dt, i in ops if t == traced]
             for traced in (False, True)}
    per_op = [layer_values(summary, counts, op_scale(i))
              for i, summary, counts in traced_ops]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = (wl.check(state, results, capture.calls) if results
                else ["no operation succeeded"])
    if tracer:
        for name in REPEATED:
            if len({op[name] for op in per_op}) > 1:
                problems.append(f"{name} differs between operations")
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)

    if tracer:
        metrics = {name: statistics.median(op[name] for op in per_op)
                   for name in per_op[0]}
        for span, vals in setup_layers.items():
            metrics[span + ".s"] = statistics.median(vals)
        metrics["trace.overhead_ratio"] = (statistics.median(times[True])
                                           / statistics.median(times[False]))
        metrics["host.calibration_s"] = statistics.median(cal)
        units = PER_LAYER
    else:
        metrics = {"setup_s": statistics.median(setup_s),
                   "op_s": statistics.median(times[False]),
                   "peak_rss_mb": peak_rss_mb}
        units = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    (OUT / "runs" / f"{tag}.json").write_text(json.dumps({
        "args": vars(args), "result": result, "problems": problems,
        "wall": wall, "per_op": per_op, "python": platform.python_version(),
        "numpy": np.__version__, "cpus": os.cpu_count()}, indent=1))
    if tracer:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        (OUT / "traces" / f"{tag}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"],
             "spans": tracer.spans}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
