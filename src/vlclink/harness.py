"""Simulation front end: config files, BER sweeps, EXIT runs, stream metrics.

Config files are flat key=value text ('#' comments).  Every numeric output
is a pure function of (config, master seed): `decode_blocks` draws block i
at grid point j, message then noise, from the generator seeded by
(seed, j, i), so scheduling order and worker count never change results.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import exitchart, pipeline
from .channel import awgn, block_rng, ook_modulate

EXIT_COLUMNS = ["component", "ebn0_db", "i_a", "i_e", "samples"]
TRAJECTORY_COLUMNS = ["half_iteration", "i_a", "i_e"]


class ConfigError(ValueError):
    """Invalid or missing configuration key."""


# ---------------------------------------------------------------------------
# Config files and presets
# ---------------------------------------------------------------------------

DEFAULTS = {
    "scheme": "cc-split-phase",
    "k": 5460,
    "iterations": 30,
    "genie": "true",
    "d": "",                   # empty -> scheme default
    "ebn0_db": "4.0,4.5,5.0,5.5",
    "max_blocks": 200,
    "target_errors": 200,
    "batch": 8,
    "seed": 12345,
    "interleaver_seed": 1,
    "workers": 1,
    # EXIT-specific
    "exit_samples": 100000,
    "exit_ebn0_db": 5.0,
    "threshold_lo_db": 2.0,
    "threshold_hi_db": 7.0,
    "threshold_resolution_db": 0.05,
    "trajectory_blocks": 0,
}

PRESETS = {
    # Desk-scale: interleaver ~8192, L=30, 200-error stopping.
    "desk": {"scheme": "cc-split-phase", "k": 5460, "iterations": 30,
             "max_blocks": 200, "target_errors": 200},
    # Full operating point: interleaver ~32768, L=100, genie stopping.
    "full": {"scheme": "cc-split-phase", "k": 21844, "iterations": 100,
             "max_blocks": 1000, "target_errors": 200,
             "ebn0_db": "5.5"},
    # 60% dimming, 512-bit messages, overall rate 1/4.
    "dim60": {"scheme": "cc-split-phase-dim60", "k": 512, "iterations": 100,
              "max_blocks": 2000, "target_errors": 200,
              "ebn0_db": "4.0,5.0,6.0,7.0"},
}

_INT_KEYS = {"k", "iterations", "max_blocks", "target_errors", "batch",
             "seed", "interleaver_seed", "workers", "exit_samples",
             "trajectory_blocks"}
_FLOAT_KEYS = {"exit_ebn0_db", "threshold_lo_db", "threshold_hi_db",
               "threshold_resolution_db"}
# smallest allowed value of each count and seed
_MINIMUM = {"k": 1, "iterations": 1, "batch": 1, "max_blocks": 1,
            "target_errors": 1, "workers": 1, "exit_samples": 1,
            "trajectory_blocks": 0, "seed": 0, "interleaver_seed": 0}


def _read_pairs(text: str) -> dict:
    """The key = value pairs of a config file, as strings."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got "
                              f"{raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        pairs[key] = val
    return pairs


def parse_config_text(text: str) -> dict:
    return _coerce(dict(DEFAULTS, **_read_pairs(text)))


def _number(key: str, val) -> float:
    try:
        x = float(val)
    except (TypeError, ValueError):
        raise ConfigError(f"key {key!r}: expected number, got {val!r}")
    if not np.isfinite(x):
        raise ConfigError(f"key {key!r}: must be finite, got {val!r}")
    return x


def _coerce(cfg: dict) -> dict:
    out = dict(cfg)
    for k in _INT_KEYS:
        try:
            out[k] = int(cfg[k])
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"key {k!r}: expected integer, got {cfg[k]!r}")
        if not isinstance(cfg[k], str) and out[k] != cfg[k]:
            raise ConfigError(f"key {k!r}: expected integer, got {cfg[k]!r}")
    for k, least in _MINIMUM.items():
        if out[k] < least:
            raise ConfigError(f"key {k!r}: must be >= {least}, got {out[k]}")
    for k in _FLOAT_KEYS:
        out[k] = _number(k, out[k])
    if out["threshold_resolution_db"] <= 0:
        raise ConfigError("key 'threshold_resolution_db': must be > 0, got "
                          f"{out['threshold_resolution_db']}")
    if out["threshold_lo_db"] >= out["threshold_hi_db"]:
        raise ConfigError("key 'threshold_lo_db': must be below "
                          f"threshold_hi_db, got {out['threshold_lo_db']} "
                          f">= {out['threshold_hi_db']}")
    genie = str(out["genie"]).lower()
    if genie not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ConfigError(f"key 'genie': expected 1/0, true/false, yes/no "
                          f"or on/off, got {out['genie']!r}")
    out["genie"] = genie in ("1", "true", "yes", "on")
    if out["d"] is None or not str(out["d"]).strip():
        out["d"] = None
    else:
        out["d"] = _number("d", out["d"])
        if not 0.0 < out["d"] < 1.0:
            raise ConfigError(f"key 'd': must lie in (0, 1), got {out['d']}")
    grid = out["ebn0_db"]
    if not isinstance(grid, (list, tuple)):
        grid = [s for s in str(grid).split(",") if s.strip()]
    if not grid:
        raise ConfigError("key 'ebn0_db': empty Eb/N0 grid")
    out["ebn0_db"] = [_number("ebn0_db", x) for x in grid]
    if out["scheme"] not in pipeline.SCHEMES:
        raise ConfigError(f"key 'scheme': unknown scheme {out['scheme']!r}")
    return out


def load_config(path: str | Path, preset: str | None = None,
                overrides: dict | None = None) -> dict:
    base = dict(DEFAULTS)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        base.update(PRESETS[preset])
    if path is not None:
        pairs = _read_pairs(Path(path).read_text())
        _coerce(dict(DEFAULTS, **pairs))        # the file is valid alone
        base.update(pairs)
    if overrides:
        unknown = sorted(set(overrides) - set(DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown override key(s) {unknown}")
        base.update({k: v for k, v in overrides.items() if v is not None})
    return _coerce({k: base[k] for k in DEFAULTS})


# Performance knobs: they change no number, so they stay out of the digest.
_PERF_KEYS = {"workers"}


def config_digest(cfg: dict) -> str:
    canon = json.dumps({k: cfg[k] for k in sorted(cfg)
                        if k not in _PERF_KEYS}, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def chain_from_config(cfg: dict) -> pipeline.ChainConfig:
    """The chain a resolved config describes."""
    return pipeline.make_chain(cfg["scheme"], cfg["k"],
                               iterations=cfg["iterations"],
                               genie_stopping=cfg["genie"], d=cfg["d"],
                               interleaver_seed=cfg["interleaver_seed"])


# ---------------------------------------------------------------------------
# Stream metrics
# ---------------------------------------------------------------------------

@dataclass
class StreamMetrics:
    ones_fraction: float
    max_run_0: int
    max_run_1: int


def stream_metrics(bits: np.ndarray) -> StreamMetrics:
    """Ones density and run-length statistics of a bit stream, single pass."""
    bits = np.asarray(bits).ravel()
    if bits.size == 0:
        return StreamMetrics(0.0, 0, 0)
    change = np.flatnonzero(np.diff(bits)) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [bits.size]])
    lengths = ends - starts
    symbols = bits[starts]
    runs0 = lengths[symbols == 0]
    runs1 = lengths[symbols == 1]
    return StreamMetrics(
        ones_fraction=float(bits.mean()),
        max_run_0=int(runs0.max()) if runs0.size else 0,
        max_run_1=int(runs1.max()) if runs1.size else 0)


# ---------------------------------------------------------------------------
# BER sweep
# ---------------------------------------------------------------------------

@dataclass
class BerRecord:
    ebn0_db: float
    sigma2: float
    blocks_run: int
    bit_errors: int
    ber: float
    ber_ci_lo: float
    ber_ci_hi: float
    frame_errors: int
    fer: float
    mean_iterations: float
    wall_time_s: float
    config_digest: str

    def row(self) -> list:
        return [getattr(self, c) for c in BER_COLUMNS]


BER_COLUMNS = [f.name for f in fields(BerRecord)]


def _wilson_ci(errors: int, n: int) -> tuple[float, float]:
    """95 % Wilson interval on errors / n; lo = 0 at no errors, hi = 1 at n."""
    z = 1.959963984540054
    phat = errors / n
    denom = 1 + z * z / n
    centre = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, centre - half) if errors else 0.0,
            min(1.0, centre + half) if errors < n else 1.0)


def decode_blocks(chain: pipeline.ChainConfig, sigma2: float, seed: int,
                  point: int, first: int, count: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Bit errors and iterations, each (count,), of blocks first, first+1,
    ... at one point.  Block i draws its message, then its noise, from
    block_rng(seed, point, i), whichever call decodes it."""
    rngs = [block_rng(seed, point, first + i) for i in range(count)]
    u = np.stack([r.integers(0, 2, size=chain.k_user)
                  for r in rngs]).astype(np.uint8)
    tx = pipeline.encode_chain(u, chain)["tx"]
    y = np.stack([awgn(ook_modulate(t), sigma2, r) for t, r in zip(tx, rngs)])
    u_hat, trace = pipeline.receive(y, chain, sigma2, true_u=u)
    return (u_hat != u).sum(axis=1), trace.iterations


def simulate_point(cfg_chain: pipeline.ChainConfig, ebn0_db: float,
                   point_index: int, master_seed: int, max_blocks: int,
                   target_errors: int, batch: int) -> BerRecord:
    """Decode blocks 0, 1, ... at one Eb/N0 point, a batch at a time, until
    max_blocks or, checked after each batch, target_errors bit errors."""
    for name, n in (("max_blocks", max_blocks),
                    ("target_errors", target_errors), ("batch", batch)):
        if not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
    sigma2 = cfg_chain.sigma2(ebn0_db)
    t0 = time.perf_counter()
    errs = iters = np.zeros(0, dtype=np.int64)
    while errs.size < max_blocks and errs.sum() < target_errors:
        e, it = decode_blocks(cfg_chain, sigma2, master_seed, point_index,
                              errs.size, min(batch, max_blocks - errs.size))
        errs, iters = np.append(errs, e), np.append(iters, it)
    blocks, bit_errors = errs.size, int(errs.sum())
    frame_errors, nbits = int((errs > 0).sum()), blocks * cfg_chain.k_user
    lo, hi = _wilson_ci(bit_errors, nbits)
    return BerRecord(ebn0_db=ebn0_db, sigma2=sigma2, blocks_run=blocks,
                     bit_errors=bit_errors, ber=bit_errors / nbits,
                     ber_ci_lo=lo, ber_ci_hi=hi, frame_errors=frame_errors,
                     fer=frame_errors / blocks,
                     mean_iterations=int(iters.sum()) / blocks,
                     wall_time_s=time.perf_counter() - t0, config_digest="")


def _point_job(args):
    cfg, j, ebn0 = args
    rec = simulate_point(chain_from_config(cfg), ebn0, j, cfg["seed"],
                         cfg["max_blocks"], cfg["target_errors"], cfg["batch"])
    return replace(rec, config_digest=config_digest(cfg))


def run_ber_sweep(cfg: dict, out_dir: str | Path | None = None
                  ) -> list[BerRecord]:
    jobs = [(cfg, j, ebn0) for j, ebn0 in enumerate(cfg["ebn0_db"])]
    if cfg["workers"] > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=cfg["workers"]) as pool:
            records = list(pool.map(_point_job, jobs))
    else:
        records = [_point_job(j) for j in jobs]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / "ber.csv", BER_COLUMNS, [r.row() for r in records])
        write_manifest(out / "manifest.json", cfg, extra={
            "points": [{"ebn0_db": r.ebn0_db, "sigma2": r.sigma2}
                       for r in records]})
    return records


# ---------------------------------------------------------------------------
# EXIT runs
# ---------------------------------------------------------------------------

def run_exit(cfg: dict, out_dir: str | Path | None = None) -> list:
    """Inner curves for all four line codes plus both outer CC curves."""
    from .codes import NO_PUNCTURE, RATE_23_PUNCTURE, build_outer_cc
    ebn0 = cfg["exit_ebn0_db"]
    samples = cfg["exit_samples"]
    curves = []
    for name in pipeline.INNER_CODES:
        s2 = pipeline.make_chain(f"cc-{name}", 64).sigma2(ebn0)
        curves.append(exitchart.inner_curve(name, s2, samples=samples,
                                            seed=cfg["seed"], ebn0_db=ebn0))
    outer = build_outer_cc()
    curves.append(exitchart.outer_curve(outer, RATE_23_PUNCTURE,
                                        samples=samples, seed=cfg["seed"]))
    rate12 = exitchart.outer_curve(outer, NO_PUNCTURE, samples=samples,
                                   seed=cfg["seed"])
    curves.append(replace(rate12, component="outer:cc-rate-1/2"))

    rows = []
    for c in curves:
        for ia, ie in zip(c.grid, c.values):
            rows.append([c.component,
                         "" if c.ebn0_db is None else c.ebn0_db,
                         float(ia), float(ie), c.samples_per_point])
    traj_rows = []
    if cfg["trajectory_blocks"] > 0:
        chain = chain_from_config(dict(cfg, genie=False))
        pts = exitchart.record_trajectory(chain, ebn0,
                                          blocks=cfg["trajectory_blocks"],
                                          seed=cfg["seed"])
        traj_rows = [[h, ia, ie] for h, ia, ie in pts]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / "exit_curves.csv", EXIT_COLUMNS, rows)
        if traj_rows:
            write_csv(out / "trajectory.csv", TRAJECTORY_COLUMNS, traj_rows)
        write_manifest(out / "manifest.json", cfg)
    return curves


def run_threshold(cfg: dict, schemes=("cc-split-phase", "cc-bmc", "cc-4b6b"),
                  out_dir: str | Path | None = None) -> dict:
    """Convergence thresholds of the requested schemes."""
    results = {}
    outer_curves = {}       # one measurement per (outer code, puncture)
    for scheme in schemes:
        chain = pipeline.make_chain(scheme, 64)
        key = (chain.outer.name, chain.puncture)
        if key not in outer_curves:
            outer_curves[key] = exitchart.outer_curve(
                chain.outer, chain.puncture, samples=cfg["exit_samples"],
                seed=cfg["seed"])
        outer = outer_curves[key]
        res = exitchart.find_threshold(
            chain, outer, lo_db=cfg["threshold_lo_db"],
            hi_db=cfg["threshold_hi_db"],
            resolution_db=cfg["threshold_resolution_db"],
            samples=cfg["exit_samples"], seed=cfg["seed"])
        results[scheme] = res
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        payload = {s: {"ebn0_db_star": r.ebn0_db_star,
                       "tunnel_min_gap": r.tunnel_min_gap,
                       "search_resolution_db": r.search_resolution_db,
                       "found": r.found} for s, r in results.items()}
        (out / "thresholds.json").write_text(json.dumps(payload, indent=2))
        write_manifest(out / "manifest.json", cfg)
    return results


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def write_csv(path: Path, columns: list[str], rows: list[list]) -> None:
    import csv
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows(rows)


def write_manifest(path: Path, cfg: dict, extra: dict | None = None) -> None:
    chain = chain_from_config(cfg)
    manifest = {
        "config": cfg,
        "config_digest": config_digest(cfg),
        "rates": chain.rates(),
        "interleaver_length": chain.n,
        "transmitted_frame_length": chain.n_line,
        "dimming": {"target_d": chain.d, "p": chain.dim.p,
                    "compensation_value": chain.dim.compensation_value},
        "mean_symbol_energy": chain.mean_symbol_energy,
    }
    if extra:
        manifest.update(extra)
    path.write_text(json.dumps(manifest, indent=2))
