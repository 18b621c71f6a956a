"""The benchmark's workloads: what each one sets up, the one operation it
times, and how its outputs are checked.

Every check compares against `reference` (written apart from vlclink) or
against a property the method must have; none compares against stored
output.  The decoder LLRs checked are those of the workload's own decoder
calls, copied out by `Capture` during the first operation of a run.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference
import spans

LLR_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str               # BENCHMARK.json says why each one is there
    setup: Callable         # (vlclink package, seed) -> state
    op: Callable            # state -> result
    check: Callable         # (state, results, captured calls) -> problems


# ---------------------------------------------------------------------------
# Recording the workload's own calls
# ---------------------------------------------------------------------------

OUTER = "cc-rsc-5/7"        # the outer code of every workload's chains


def _nonzero(x) -> bool:
    return x is not None and bool(np.any(np.asarray(x)))


class Capture:
    """Copies out, from the workload's own calls, the arrays the checks
    need, and nothing else: calls[key] = {name: array}.

    Decoders are captured at their first call whose a-priori input is not
    all zero, so that the checks cover how the prior is clamped, combined
    and subtracted: "split-phase" (bcjr_extrinsic), "outer" (a
    gamma_table_llr call and the bcjr_decode of its table) and "4b6b"
    (map_lut).  "encode_chain" and "receive" are their first calls.
    """

    def __init__(self):
        self.calls: dict = {}
        self._undo: list = []
        self._outer_gamma = None     # table awaiting its bcjr_decode call
        self._outer_prior = None

    def install(self, pkg) -> None:
        for layer, func in (("pipeline", "encode_chain"),
                            ("pipeline", "receive"),
                            ("siso", "bcjr_extrinsic"),
                            ("siso", "gamma_table_llr"),
                            ("siso", "bcjr_decode"),
                            ("siso", "map_lut")):
            self._undo.append(spans.patch(pkg, layer, func,
                                          self._recorder(func)))

    def uninstall(self) -> None:
        for restore in reversed(self._undo):
            restore()
        self._undo.clear()
        self._outer_gamma = self._outer_prior = None

    def _recorder(self, func):
        keep = getattr(self, "_keep_" + func)

        def make(fn):
            sig = inspect.signature(fn)

            def recorded(*args, **kwargs):
                out = fn(*args, **kwargs)
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                keep(bound.arguments, out)
                return out
            return recorded
        return make

    def _put(self, key, **arrays) -> None:
        self.calls[key] = {k: np.array(v, copy=True)
                           for k, v in arrays.items()}

    def _keep_encode_chain(self, a, out):
        if "encode_chain" not in self.calls:
            self._put("encode_chain", tx=out["tx"])

    def _keep_receive(self, a, out):
        if "receive" not in self.calls:
            u_hat, trace = out
            self._put("receive", true_u=a["true_u"], u_hat=u_hat,
                      iterations=trace.iterations)

    def _keep_bcjr_extrinsic(self, a, out):
        if (a["trellis"].name == "split-phase"
                and "split-phase" not in self.calls
                and _nonzero(a["prior"])):
            self._put("split-phase", observations=a["observations"],
                      prior=a["prior"], sigma2=a["sigma2"], extrinsic=out)

    def _keep_gamma_table_llr(self, a, out):
        if (a["trellis"].name == OUTER and "outer" not in self.calls
                and self._outer_gamma is None
                and _nonzero(a["code_prior"])):
            self._outer_gamma = out
            self._outer_prior = np.array(a["code_prior"], copy=True)

    def _keep_bcjr_decode(self, a, out):
        if self._outer_gamma is not None and a["gamma"] is self._outer_gamma:
            self._put("outer", code_prior=self._outer_prior,
                      app_input=out.app_input, app_output=out.app_output)
            self._outer_gamma = self._outer_prior = None

    def _keep_map_lut(self, a, out):
        if (a["spec"].name == "4b6b" and "4b6b" not in self.calls
                and _nonzero(a["prior"])):
            self._put("4b6b", y=a["y"], prior=a["prior"], sigma2=a["sigma2"],
                      extrinsic=out)


# ---------------------------------------------------------------------------
# Checks shared by the workloads
# ---------------------------------------------------------------------------

def _llr_problem(what, got, want) -> list[str]:
    err = float(np.max(np.abs(np.asarray(got) - want)))
    if err <= LLR_TOL:
        return []
    return [f"{what}: max |LLR - reference| {err:.3g}"]


def check_trellis_decoders(calls: dict) -> list[str]:
    """The captured split-phase and outer decoder calls against the
    reference."""
    if "split-phase" not in calls or "outer" not in calls:
        return ["no split-phase or outer decoder call with a prior recorded"]
    c = calls["split-phase"]
    want = reference.inner_extrinsic(reference.split_phase(),
                                     c["observations"], c["prior"],
                                     float(c["sigma2"]))
    problems = _llr_problem("split-phase extrinsic", c["extrinsic"], want)
    c = calls["outer"]
    app_in, app_out = reference.outer_app(reference.rsc_5_7(),
                                          c["code_prior"])
    problems += _llr_problem("outer input APP", c["app_input"], app_in)
    problems += _llr_problem("outer code-bit APP", c["app_output"], app_out)
    return problems


def max_run(bits: np.ndarray) -> int:
    """Longest run of equal symbols in any row."""
    longest = 0
    for row in np.atleast_2d(bits):
        edges = np.flatnonzero(np.diff(row)) + 1
        bounds = np.concatenate([[0], edges, [row.size]])
        longest = max(longest, int(np.diff(bounds).max()))
    return longest


# ---------------------------------------------------------------------------
# BER workloads: one simulate_point batch
# ---------------------------------------------------------------------------

BER_KEYS = ("ebn0_db", "sigma2", "blocks_run", "bit_errors", "ber",
            "ber_ci_lo", "ber_ci_hi", "frame_errors", "fer",
            "mean_iterations", "config_digest")


BLOCKS = 8


def ber_workload(name, scheme, k, iterations, ebn0_db, point_index,
                 all_iterations=False):
    """all_iterations: the workload is meant to keep every block decoding
    for all its iterations, and checks that none stopped early."""
    def setup(vl, seed):
        chain = vl.pipeline.make_chain(scheme, k, iterations=iterations,
                                       genie_stopping=True)
        return {"vl": vl, "chain": chain, "seed": seed}

    def op(state):
        return state["vl"].harness.simulate_point(
            state["chain"], ebn0_db, point_index, state["seed"],
            max_blocks=BLOCKS, target_errors=200, batch=BLOCKS)

    def check(state, records, calls):
        chain, rec = state["chain"], records[0]
        problems = []
        if any(tuple(getattr(r, f) for f in BER_KEYS)
               != tuple(getattr(rec, f) for f in BER_KEYS)
               for r in records[1:]):
            problems.append("repeated simulate_point results differ")
        if rec.blocks_run != BLOCKS:
            problems.append(f"{rec.blocks_run} blocks run, not {BLOCKS}")
        lo, hi = reference.wilson_interval(rec.bit_errors,
                                           rec.blocks_run * chain.k_user)
        if not (math.isclose(lo, rec.ber_ci_lo, rel_tol=1e-9, abs_tol=1e-15)
                and math.isclose(hi, rec.ber_ci_hi, rel_tol=1e-9)):
            problems.append(f"Wilson interval ({rec.ber_ci_lo}, "
                            f"{rec.ber_ci_hi}), reference ({lo}, {hi})")

        tx = calls["encode_chain"]["tx"]
        n_tx = tx.shape[-1]
        ones = tx.sum(axis=-1)
        if chain.d == 0.5:
            dimmed_ok, run_limit = (ones * 2 == n_tx).all(), 2
        else:
            # a native run of 2 plus one inserted compensation bit
            dimmed_ok = (np.abs(ones / n_tx - chain.d) <= 1.0 / n_tx).all()
            run_limit = 3
        if not dimmed_ok:
            problems.append(f"ones fractions {ones / n_tx} miss d={chain.d}")
        if max_run(tx) > run_limit:
            problems.append(f"run of {max_run(tx)} > {run_limit}")

        rx = calls["receive"]
        errors = (rx["u_hat"] != rx["true_u"]).sum(axis=1)
        stopped = rx["iterations"] < chain.iterations
        if errors[stopped].any():
            problems.append("a block stopped early with errors")
        if all_iterations and stopped.any():
            problems.append(f"{int(stopped.sum())} blocks stopped early")
        if int(errors.sum()) != rec.bit_errors:
            problems.append("bit_errors disagrees with the decisions")
        if rx["iterations"].sum() != round(rec.mean_iterations * BLOCKS):
            problems.append("mean_iterations disagrees with the decoder's "
                            "iteration counts")
        return problems + check_trellis_decoders(calls)

    return Workload(name, setup, op, check)


# ---------------------------------------------------------------------------
# EXIT threshold workload
# ---------------------------------------------------------------------------

THRESHOLD_SCHEMES = ("cc-split-phase", "cc-bmc", "cc-4b6b")
EXIT_SAMPLES = 5_000


def _threshold_setup(vl, seed):
    chains = {s: vl.pipeline.make_chain(s, 64) for s in THRESHOLD_SCHEMES}
    vl.exitchart.j_inverse(0.5)           # builds the cached J^-1 table
    cfg = vl.harness.load_config(None, overrides={
        "exit_samples": EXIT_SAMPLES, "seed": seed})
    return {"vl": vl, "chains": chains, "cfg": cfg}


def _threshold_op(state):
    return state["vl"].harness.run_threshold(state["cfg"])


def _threshold_check(state, results, calls):
    problems = []

    def key(res):
        return {s: (r.ebn0_db_star, r.tunnel_min_gap, r.found)
                for s, r in res.items()}
    if any(key(r) != key(results[0]) for r in results[1:]):
        problems.append("repeated run_threshold results differ")
    for scheme in THRESHOLD_SCHEMES:
        res = results[0].get(scheme)
        if res is None or not res.found:
            problems.append(f"{scheme}: no threshold found")
            continue
        chain = state["chains"][scheme]
        limit = reference.ook_shannon_limit_db(float(chain.ideal_rate),
                                               chain.mean_symbol_energy)
        if not res.ebn0_db_star > limit:
            problems.append(f"{scheme}: threshold {res.ebn0_db_star} dB is "
                            f"not above the Shannon limit {limit:.3f} dB")
    # The BMC decoder is left out: its branch metric is not the Gaussian
    # likelihood the reference uses (see the README).
    problems += check_trellis_decoders(calls)
    if "4b6b" not in calls:
        return problems + ["no 4B6B decoder call with a prior recorded"]
    c = calls["4b6b"]
    want = reference.lut_extrinsic(reference.TABLE_4B6B, c["y"], c["prior"],
                                   float(c["sigma2"]))
    return problems + _llr_problem("4B6B extrinsic", c["extrinsic"], want)


WORKLOADS = {w.name: w for w in (
    # the ROADMAP desk chain inside its waterfall
    ber_workload("desk-waterfall", "cc-split-phase", k=5460, iterations=30,
                 ebn0_db=4.6, point_index=0),
    # the dim60 preset at its grid point 5.0 dB, where no block converges
    ber_workload("dim60-no-stop", "cc-split-phase-dim60", k=512,
                 iterations=100, ebn0_db=5.0, point_index=1,
                 all_iterations=True),
    Workload("exit-threshold", _threshold_setup, _threshold_op,
             _threshold_check),
)}
