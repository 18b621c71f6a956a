"""End-to-end behavioral contract of the package.

Each test prints one PASS/FAIL line (run pytest with -s to see them even on
success).  The criteria:

1. every SISO decoder matches an exhaustive-enumeration reference to 1e-9;
2. EXIT convergence thresholds sit in known brackets;
3. the Manchester inner curve is flat and gives no iterative gain;
4. the 4B6B curve misses the top-right corner, and the 4B6B BER follows
   its distance-limited floor where split-phase has no errors;
5. the split-phase waterfall sits between 4.0 and 5.5 dB at desk scale;
6. dimming hits its ones-fraction targets exactly and decodes cleanly;
7. encoded streams never exceed their run-length bounds;
8. genie stopping changes iteration counts but never decisions;
9. the full-scale configuration executes end to end.
"""

import time

import numpy as np
import pytest

from oracles import (committed_4b6b_table, exhaustive_inner_extrinsic,
                     exhaustive_lut_extrinsic, exhaustive_manchester_extrinsic,
                     exhaustive_outer_extrinsic, lut_flip_distances,
                     outer_distance_spectrum, serial_union_bound)
from vlclink import codes, exitchart, harness, pipeline, siso
from vlclink.channel import awgn, block_rng, ebn0_to_sigma2, ook_modulate


def _report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}" +
          (f" — {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


# -------------------------------------------------------------------------
# 1. Oracle equivalence: 500 random trials per decoder, <= 12 input bits,
#    sigma^2 in [0.2, 2], random priors, 1e-9 per-LLR agreement, < 1 min.
# -------------------------------------------------------------------------

def _max_dev(a, b):
    """Largest |a-b| of library values a against reference values b,
    counting equal values as 0.  A reference ±inf (a bit the trellis
    forces) is matched by a same-signed library LLR saturated at
    ±siso.LLR_SAT, less at most the clamped prior an extrinsic subtracts."""
    saturated = (np.isinf(b) & (np.sign(a) == np.sign(b))
                 & (np.abs(a) >= siso.LLR_SAT - siso.LLR_CLAMP))
    with np.errstate(invalid="ignore"):
        d = np.where((a == b) | saturated, 0.0, np.abs(a - b))
    return np.inf if np.isnan(d).any() else float(d.max()) if d.size else 0.0


def test_1_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240501)
    worst = 0.0
    trials = 500

    outer = codes.build_outer_cc()
    for _ in range(trials):
        k = int(rng.integers(1, 11))          # 12 total with 2 tail bits
        steps = k + outer.memory
        cp = rng.normal(0.0, 2.0, (steps, 2))
        ref_ext, ref_app = exhaustive_outer_extrinsic(outer, cp, k)
        res = siso.bcjr_decode(outer, siso.gamma_table_llr(outer, cp[None]))
        ext = res.app_output[0] - siso.clamp_llr(cp)
        app = res.app_input[0, :k]
        worst = max(worst, _max_dev(ext, ref_ext), _max_dev(app, ref_app))

    for build in (codes.build_split_phase, codes.build_bmc):
        tr = build()
        for _ in range(trials):
            n = int(rng.integers(1, 13))
            s2 = float(rng.uniform(0.2, 2.0))
            prior = rng.normal(0.0, 2.0, n)
            y = awgn(ook_modulate(rng.integers(0, 2, 2 * n)), s2, rng)
            ref = exhaustive_inner_extrinsic(tr, y, prior, s2)
            got = siso.bcjr_extrinsic(tr, observations=y, prior=prior,
                                      sigma2=s2)
            worst = max(worst, float(np.abs(got - ref).max()))

    for _ in range(trials):
        n = int(rng.integers(1, 13))
        s2 = float(rng.uniform(0.2, 2.0))
        prior = rng.normal(0.0, 2.0, n)
        y = awgn(ook_modulate(rng.integers(0, 2, 2 * n)), s2, rng)
        ref = exhaustive_manchester_extrinsic(y, prior, s2)
        got = siso.map_lut(codes.build_manchester(), y, prior, sigma2=s2)
        worst = max(worst, float(np.abs(got - ref).max()))

    lut = codes.build_4b6b()
    for _ in range(trials):
        nsym = int(rng.integers(1, 4))        # 4-12 input bits
        s2 = float(rng.uniform(0.2, 2.0))
        prior = rng.normal(0.0, 2.0, 4 * nsym)
        y = awgn(ook_modulate(rng.integers(0, 2, 6 * nsym)), s2, rng)
        ref = exhaustive_lut_extrinsic(lut, y, prior, s2)
        got = siso.map_lut(lut, y, prior, sigma2=s2)
        worst = max(worst, float(np.abs(got - ref).max()))

    dt = time.perf_counter() - t0
    _report("1 oracle equivalence", worst <= 1e-9 and dt < 60.0,
            f"max |Δ| = {worst:.2e} over 5×{trials} trials in {dt:.1f}s")


# -------------------------------------------------------------------------
# 2. EXIT thresholds in brackets (10^5 bits per curve point).
# -------------------------------------------------------------------------

def test_2_exit_thresholds():
    cfg = dict(harness.DEFAULTS, exit_samples=100000, seed=2024)
    cfg = harness._coerce(cfg)
    res = harness.run_threshold(cfg)
    sp = res["cc-split-phase"].ebn0_db_star
    bmc = res["cc-bmc"].ebn0_db_star
    b46 = res["cc-4b6b"].ebn0_db_star
    ok = (res["cc-split-phase"].found and res["cc-bmc"].found
          and res["cc-4b6b"].found
          and 4.4 <= sp <= 5.0 and 2.8 <= b46 <= 3.5
          and abs(sp - bmc) <= 0.15)
    _report("2 EXIT thresholds",
            ok, f"split-phase {sp:.2f} dB, bmc {bmc:.2f} dB, "
                f"4b6b {b46:.2f} dB")


# -------------------------------------------------------------------------
# 3. Manchester: flat inner curve; no iterative gain.
# -------------------------------------------------------------------------

def test_3_manchester_no_iterative_gain():
    s2 = ebn0_to_sigma2(5.0, 1 / 3, 0.5)
    c = exitchart.inner_curve("manchester", s2, samples=200000, seed=3)
    spread = float(c.values.max() - c.values.min())

    chain1 = pipeline.make_chain("cc-manchester", 1000, iterations=1,
                                 genie_stopping=False)
    chain10 = pipeline.make_chain("cc-manchester", 1000, iterations=10,
                                  genie_stopping=False)
    rng = np.random.default_rng(33)
    u = rng.integers(0, 2, size=(20, chain1.k_user)).astype(np.uint8)
    y = pipeline.transmit(u, chain1, s2, np.random.default_rng(34))
    u1, _ = pipeline.receive(y, chain1, s2)
    u10, _ = pipeline.receive(y, chain10, s2)
    same = bool((u1 == u10).all())
    ber = float((u1 != u).mean())
    _report("3 Manchester flatness / no gain", spread < 0.01 and same,
            f"curve spread {spread:.4f}, iter-1 vs iter-10 BER "
            f"{ber:.4f} identical={same}")


# -------------------------------------------------------------------------
# 4. 4B6B corner deficiency and error floor vs split-phase.  The floor is
#    the serial-concatenation union bound UB, fixed by the outer code's
#    error events and the 4B6B flip distances: at each point the 4B6B
#    Wilson 95 % interval must meet [UB/2, 2 UB] (the slack covers an
#    iterative decoder against an ML bound), and split-phase must sit
#    strictly below it.
# -------------------------------------------------------------------------

def test_4_4b6b_corner_and_floor():
    s2 = ebn0_to_sigma2(3.5, 1 / 3, 0.5)
    c = exitchart.inner_curve("4b6b", s2, grid=np.array([0.999]),
                              samples=100000, seed=4)
    corner = float(c.values[-1])

    def sweep(scheme, k, thr, max_blocks, target_errors):
        # interleaver length 8192/8193 for both schemes
        chain = pipeline.make_chain(scheme, k, iterations=30,
                                    genie_stopping=True)
        return [harness.simulate_point(chain, thr + off, j, 777,
                                       max_blocks=max_blocks,
                                       target_errors=target_errors, batch=8)
                for j, off in enumerate([1.0, 1.5, 2.0])]

    recs46 = sweep("cc-4b6b", 4094, 3.48, 100, 300)
    recssp = sweep("cc-split-phase", 5460, 4.54, 250, 150)

    spectrum = outer_distance_spectrum(codes.build_outer_cc(), d_max=16)
    flips = lut_flip_distances(committed_4b6b_table())
    ubs = [serial_union_bound(spectrum, flips,
                              ebn0_to_sigma2(r.ebn0_db, 1 / 3, 0.5))
           for r in recs46]
    on_floor = all(r.ber_ci_lo <= 2 * ub and r.ber_ci_hi >= ub / 2
                   for r, ub in zip(recs46, ubs))
    below = all(sp.ber_ci_hi < r.ber_ci_lo for sp, r in zip(recssp, recs46))
    ok = corner < 0.999 and on_floor and below

    def ci(r):
        return f"{r.ber:.2e} [{r.ber_ci_lo:.2e}, {r.ber_ci_hi:.2e}]"

    _report("4 4B6B corner deficiency / floor",
            ok, f"I_E(0.999)={corner:.4f}; 4b6b BERs "
                f"{[ci(r) for r in recs46]} vs UB "
                f"{[f'{ub:.2e}' for ub in ubs]}; split-phase BERs "
                f"{[ci(r) for r in recssp]}")


# -------------------------------------------------------------------------
# 5. Waterfall placement at desk scale (interleaver ~8192, L = 30, genie).
# -------------------------------------------------------------------------

def test_5_waterfall_placement():
    t0 = time.perf_counter()
    chain = pipeline.make_chain("cc-split-phase", 5460, iterations=30,
                                genie_stopping=True)
    hi = harness.simulate_point(chain, 5.5, 0, 555, max_blocks=200,
                                target_errors=200, batch=8)
    lo = harness.simulate_point(chain, 4.0, 1, 555, max_blocks=20,
                                target_errors=10 ** 9, batch=8)
    dt = time.perf_counter() - t0
    ok = hi.ber <= 1e-4 and lo.ber >= 1e-2 and dt < 600
    _report("5 waterfall placement",
            ok, f"BER(5.5 dB)={hi.ber:.2e}, BER(4.0 dB)={lo.ber:.2e}, "
                f"{dt:.0f}s")


# -------------------------------------------------------------------------
# 6. Dimming exactness: 50% exact; 60% within 1/N and error-free at low
#    noise over 100 blocks.
# -------------------------------------------------------------------------

def test_6_dimming_exactness():
    chain50 = pipeline.make_chain("cc-split-phase", 512)
    rng = np.random.default_rng(6)
    u = rng.integers(0, 2, size=(100, chain50.k_user)).astype(np.uint8)
    tx50 = pipeline.encode_chain(u, chain50)["tx"]
    exact_half = bool((tx50.mean(axis=1) == 0.5).all())

    chain60 = pipeline.make_chain("cc-split-phase-dim60", 512)
    u = rng.integers(0, 2, size=(100, chain60.k_user)).astype(np.uint8)
    tx60 = pipeline.encode_chain(u, chain60)["tx"]
    dev = float(np.abs(tx60.mean(axis=1) - 0.6).max())
    within = dev <= 1.0 / chain60.n_line + 1e-12

    sigma2 = 1e-3
    y = awgn(ook_modulate(tx60), sigma2, np.random.default_rng(66))
    u_hat, _ = pipeline.receive(y, chain60, sigma2)
    clean = bool((u_hat == u).all())
    _report("6 dimming exactness", exact_half and within and clean,
            f"50% exact={exact_half}, 60% max dev {dev:.2e} "
            f"(1/N={1 / chain60.n_line:.2e}), error-free={clean}")


# -------------------------------------------------------------------------
# 7. Run-length bounds: exhaustive <= 16-bit inputs plus 10^6-bit streams.
# -------------------------------------------------------------------------

def _max_run(bits):
    m = harness.stream_metrics(bits)
    return max(m.max_run_0, m.max_run_1)


def _row_max_runs(rows):
    """The longest run of equal bits in each row of a 2-D bit array, all
    rows at once: a diff padded with a mark at both ends of every row
    marks where runs start, and flatnonzero's gaps are the run lengths.
    The one-long gap from a row's end mark to the next row's start mark
    joins that row's reduction; a row's longest run is at least 1."""
    n, w = rows.shape
    marks = np.ones((n, w + 1), dtype=bool)
    marks[:, 1:w] = rows[:, 1:] != rows[:, :-1]
    at = np.flatnonzero(marks)
    return np.maximum.reduceat(np.diff(at), np.flatnonzero(at % (w + 1) == 0))


def test_7_run_length_bounds():
    enc = {
        "split-phase": (lambda v: codes.encode(codes.build_split_phase(), v),
                        2, 1),
        "bmc": (lambda v: codes.encode(codes.build_bmc(), v), 2, 1),
        "manchester": (
            lambda v: codes.encode_lut(codes.build_manchester(), v), 2, 1),
        "4b6b": (lambda v: codes.encode_lut(codes.build_4b6b(), v), 4, 4),
    }
    worst = {}
    rng = np.random.default_rng(7)
    for name, (f, bound, step) in enc.items():
        w = 0
        for n in range(step, 17, step):
            x = np.arange(1 << n, dtype=np.uint32)
            vs = ((x[:, None] >> (n - 1 - np.arange(n))) & 1).astype(np.uint8)
            line = f(vs)
            runs = _row_max_runs(line)
            if n == 8:
                assert runs.tolist() == [_max_run(row) for row in line]
            w = max(w, int(runs.max()))
        stream = f(rng.integers(0, 2, 10 ** 6))
        w = max(w, _max_run(stream))
        worst[name] = (w, bound)
    ok = all(w <= b for w, b in worst.values())
    _report("7 run-length bounds", ok,
            ", ".join(f"{k}: {w} (≤{b})" for k, (w, b) in worst.items()))


# -------------------------------------------------------------------------
# 8. Genie stopping changes only iteration counts, never decisions.
# -------------------------------------------------------------------------

def test_8_genie_neutrality():
    on = pipeline.make_chain("cc-split-phase", 512, iterations=12,
                             genie_stopping=True)
    off = pipeline.make_chain("cc-split-phase", 512, iterations=12,
                              genie_stopping=False)
    sigma2 = ebn0_to_sigma2(5.0, float(on.ideal_rate), 0.5)
    identical = True
    fewer = 0
    for b in range(0, 200, 50):
        rng = block_rng(888, 0, b)
        u = rng.integers(0, 2, size=(50, on.k_user)).astype(np.uint8)
        y = pipeline.transmit(u, on, sigma2, rng)
        u_on, tr_on = pipeline.receive(y, on, sigma2, true_u=u)
        u_off, tr_off = pipeline.receive(y, off, sigma2, true_u=u)
        identical &= bool((u_on == u_off).all())
        fewer += int((tr_on.iterations < tr_off.iterations).sum())
    _report("8 genie-stopping neutrality", identical,
            f"û identical over 200 blocks={identical}; "
            f"{fewer} blocks stopped early")


# -------------------------------------------------------------------------
# 9. Full-scale preset (interleaver ~32768, L = 100) runs end to end.
# -------------------------------------------------------------------------

def test_9_full_scale_runs():
    cfg = harness.load_config(None, preset="full",
                              overrides={"max_blocks": 2, "batch": 2,
                                         "target_errors": 10 ** 9})
    chain = harness.chain_from_config(cfg)
    rec = harness.simulate_point(chain, cfg["ebn0_db"][0], 0, cfg["seed"],
                                 cfg["max_blocks"], cfg["target_errors"],
                                 cfg["batch"])
    ok = (abs(chain.n - 32768) <= 4 and chain.iterations == 100
          and rec.blocks_run == 2 and np.isfinite(rec.ber))
    _report("9 full-scale preset runs",
            ok, f"interleaver {chain.n}, L={chain.iterations}, "
                f"BER({cfg['ebn0_db'][0]} dB)={rec.ber:.2e} on "
                f"{rec.blocks_run} blocks")
