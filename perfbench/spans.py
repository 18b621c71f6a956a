"""Spans and counts recorded around vlclink's public functions, from outside.

`patch` rebinds a library function everywhere the package holds it, so
calls between modules (which look the name up in the calling module's
globals) go through the wrapper too.  `Tracer` uses it to open and close a
span at each call of the functions in LAYERS, keeps the spans in memory and
adds the per-call counts of COUNTERS.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

# Public functions wrapped in a traced run, by layer (= vlclink module).
LAYERS = {
    "harness": ("simulate_point", "run_threshold"),
    "pipeline": ("receive", "encode_chain", "make_chain"),
    "siso": ("bcjr_forward_backward", "bcjr_decode", "bcjr_extrinsic",
             "gamma_table_ook", "gamma_table_llr", "map_lut"),
    "codes": ("encode", "encode_lut", "apply_puncture", "insert_erasures"),
    "channel": ("awgn", "block_rng"),
    "dimming": ("dim_encode", "dim_decode", "plan_dimming"),
    "exitchart": ("inner_curve", "outer_curve", "find_threshold",
                  "measure_mi", "sample_priors", "j_inverse"),
}


def patch(pkg, layer: str, name: str, make_wrapper):
    """Replace `pkg.<layer>.<name>` by make_wrapper(original) in every
    vlclink module that binds it; returns a function that undoes this."""
    original = getattr(getattr(pkg, layer), name)
    wrapper = make_wrapper(original)
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != pkg.__name__ and not mod_name.startswith(
                pkg.__name__ + "."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr))

    def restore():
        for mod, attr in undo:
            setattr(mod, attr, original)
    return restore


def _args(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_sections(fn, args, kwargs, out, counts):
    gamma = _args(fn, args, kwargs)["gamma"]
    counts["siso.bcjr_forward_backward.sections"] += (gamma.shape[0]
                                                      * gamma.shape[1])
    mb = (out.alpha.nbytes + out.beta.nbytes + out.gamma.nbytes) / 2**20
    counts["siso.workspace_mb"] = max(counts["siso.workspace_mb"], mb)


def _count_symbols(fn, args, kwargs, out, counts):
    a = _args(fn, args, kwargs)
    counts["siso.map_lut.symbols"] += a["y"].size // a["spec"].output_width


def _count_block_iters(fn, args, kwargs, out, counts):
    trace = out[1]
    if trace is not None:
        counts["pipeline.receive.block_iters_decoded"] += (
            trace.iterations.size * trace.executed)
        counts["pipeline.receive.block_iters_useful"] += int(
            trace.iterations.sum())


COUNTERS = {
    "siso.bcjr_forward_backward": _count_sections,
    "siso.map_lut": _count_symbols,
    "pipeline.receive": _count_block_iters,
}


class Tracer:
    """In-memory spans: [name, start, end, parent index] per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list = []

    def install(self, pkg) -> None:
        for layer, names in LAYERS.items():
            for name in names:
                self._undo.append(patch(pkg, layer, name,
                                        self._wrap(f"{layer}.{name}")))

    def uninstall(self) -> None:
        for restore in reversed(self._undo):
            restore()
        self._undo.clear()

    def _wrap(self, span_name: str):
        counter = COUNTERS.get(span_name)

        def make(fn):
            def traced(*args, **kwargs):
                idx = len(self.spans)
                self.spans.append([span_name, 0.0, 0.0,
                                   self._stack[-1] if self._stack else -1])
                self._stack.append(idx)
                start = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    self.spans[idx][1:3] = start, end
                if counter is not None:
                    counter(fn, args, kwargs, out, self.counts)
                return out
            return traced
        return make

    def take_counts(self) -> dict:
        out = dict(self.counts)
        self.counts.clear()
        return out

    def summary(self, first: int, last: int) -> dict:
        """Per span name: calls, total and self seconds of spans[first:last]
        (self = duration minus the time covered by direct children)."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans[first:last]:
            if parent >= first:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i in range(first, last):
            name, start, end, _ = self.spans[i]
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child[i]
        return dict(out)
