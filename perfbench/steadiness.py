"""Do two sets of benchmark runs of unchanged code agree?

    python3 perfbench/steadiness.py [--runs 10]

Runs `run.py --trace 0` as separate processes, one after another: set A
with seeds 1..N, then set B with seeds 101..100+N, each set cycling through
the workloads.  For every end-to-end metric of every workload it prints each
set's median and quartiles (statistics.quantiles, n=4), each set's spread
(q3 - q1) / median, and the change of B's median from A's, positive in the
worse direction.  A metric agrees when the size of that change, in either
direction, stays within its bound in BENCHMARK.json and so does each
spread, except that of setup_s.  The share of failed operations must be
equal in both sets.  The table and every run's result are also written to
perfbench/out/steadiness-<time>.json.  Exits 1 if anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED_BASE = {"A": 1, "B": 101}


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload in each set")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    runs = {(s, w): [] for s in SEED_BASE for w in names}
    for s, base in SEED_BASE.items():
        for i in range(args.runs):
            for w in names:
                res = run_once(spec, w, base + i)
                runs[(s, w)].append(res)
                print(f"set {s} {w} seed {base + i}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
                    + ("" if res["correct"] else " INCORRECT"), flush=True)

    ok, table = True, []
    print(f"\n{'workload':16} {'metric':12} {'set':3} {'q1':>10} "
          f"{'median':>10} {'q3':>10} {'spread':>7}  bound  change  agree")
    for w in names:
        shares = {s: sum(r["failed"] for r in runs[(s, w)])
                  / sum(r["attempted"] for r in runs[(s, w)])
                  for s in SEED_BASE}
        correct = all(r["correct"] for s in SEED_BASE for r in runs[(s, w)])
        ok &= correct and shares["A"] == shares["B"]
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = {}
            for s in SEED_BASE:
                vals = [r["metrics"][name]["value"] for r in runs[(s, w)]]
                q1, med, q3 = quartiles(vals)
                stats[s] = {"q1": q1, "median": med, "q3": q3,
                            "spread": (q3 - q1) / med, "values": vals}
            a, b = stats["A"]["median"], stats["B"]["median"]
            change = (b - a) / a if m["better"] == "lower" else (a - b) / a
            agree = abs(change) <= bound and (name == "setup_s" or all(
                stats[s]["spread"] <= bound for s in SEED_BASE))
            ok &= agree
            for s in SEED_BASE:
                st = stats[s]
                tail = (f"  {bound:.2f}  {change:+.3f}  "
                        f"{'yes' if agree else 'NO'}" if s == "B" else "")
                print(f"{w:16} {name:12} {s:3} {st['q1']:10.5g} "
                      f"{st['median']:10.5g} {st['q3']:10.5g} "
                      f"{st['spread']:7.3f}{tail}")
            table.append({"workload": w, "metric": name, "bound": bound,
                          "change": change, "agree": agree, "sets": stats})
        print(f"{w:16} failed share A {shares['A']:.3g}, B {shares['B']:.3g};"
              f" all outputs correct: {correct}")

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json").write_text(
        json.dumps({"runs_per_set": args.runs, "table": table,
                    "runs": {f"{s}/{w}": r for (s, w), r in runs.items()}},
                   indent=1))
    print("\nall agree" if ok else "\nDISAGREEMENT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
