"""Command-line interface.

Subcommands: ber, exit, threshold, metrics, presets.  Configuration comes
from a flat key=value file (--config), an optional named preset
(--preset), and flag overrides; flags win over file, file over preset.
ber, exit and threshold write result files to --out; only ber takes
--workers, and only metrics --blocks.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import harness, pipeline


def _common(sub):
    sub.add_argument("--config", help="path to key=value config file")
    sub.add_argument("--preset", help="named preset (see `presets`)")
    sub.add_argument("--seed", type=int, help="master seed override")


def _resolve(args) -> dict:
    overrides = {"seed": args.seed, "workers": getattr(args, "workers", None)}
    return harness.load_config(args.config, preset=args.preset,
                               overrides=overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vlclink",
        description="Concatenated FEC/line-code simulator for optical "
                    "wireless links")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, hlp in [("ber", "run a Monte-Carlo BER sweep"),
                      ("exit", "measure EXIT transfer curves"),
                      ("threshold", "search convergence thresholds"),
                      ("metrics", "stream metrics of an encoded frame"),
                      ("presets", "list named presets")]:
        sub = subs.add_parser(name, help=hlp)
        if name != "presets":
            _common(sub)
        if name in ("ber", "exit", "threshold"):
            sub.add_argument("--out", help="output directory for result files")
        if name == "ber":
            sub.add_argument("--workers", type=int, help="parallel workers")
        if name == "metrics":
            sub.add_argument("--blocks", type=int, default=1)

    args = parser.parse_args(argv)
    if args.command == "presets":
        print(json.dumps(harness.PRESETS, indent=2))
        return 0

    try:
        cfg = _resolve(args)
        chain = harness.chain_from_config(cfg)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "ber":
        records = harness.run_ber_sweep(cfg, out_dir=args.out)
        print(",".join(harness.BER_COLUMNS))
        for r in records:
            print(",".join(str(x) for x in r.row()))
    elif args.command == "exit":
        curves = harness.run_exit(cfg, out_dir=args.out)
        for c in curves:
            print(f"{c.component}: I_E range "
                  f"[{c.values.min():.4f}, {c.values.max():.4f}]")
    elif args.command == "threshold":
        results = harness.run_threshold(cfg, out_dir=args.out)
        for scheme, res in results.items():
            star = ("not found" if not res.found
                    else f"{res.ebn0_db_star:.2f} dB")
            print(f"{scheme}: threshold {star} "
                  f"(min gap {res.tunnel_min_gap:.4f})")
    elif args.command == "metrics":
        if args.blocks < 1:
            print(f"error: --blocks must be >= 1, got {args.blocks}",
                  file=sys.stderr)
            return 2
        rng = np.random.default_rng(cfg["seed"])
        u = rng.integers(0, 2, size=(args.blocks, chain.k_user))
        tx = pipeline.encode_chain(u, chain)["tx"]
        m = harness.stream_metrics(tx)
        print(json.dumps({"scheme": cfg["scheme"],
                          "ones_fraction": m.ones_fraction,
                          "max_run_0": m.max_run_0,
                          "max_run_1": m.max_run_1}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
