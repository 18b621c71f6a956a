"""What perfbench binds in vlclink, by name.

perfbench wraps the functions named in perfbench/spans.py's LAYERS by
looking them up on the package, reads decoder arguments by parameter name
(perfbench/workloads.py, Capture) and checks a few result fields.  A
rename in the library would make a traced run fail, or leave a workload's
decoder check with no recorded call; these tests catch that first.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import vlclink
from vlclink import codes, harness, pipeline, siso

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans_layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  PERFBENCH / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)        # imports only the standard library
    return mod.LAYERS


def test_traced_names_resolve():
    layers = _spans_layers()
    assert layers
    for layer, names in layers.items():
        importlib.import_module(f"vlclink.{layer}")
        for name in names:
            assert callable(getattr(getattr(vlclink, layer), name)), \
                f"{layer}.{name}"


@pytest.mark.parametrize("fn, params", [
    (siso.bcjr_extrinsic, ("trellis", "observations", "prior", "sigma2")),
    (siso.gamma_table_llr, ("trellis", "code_prior")),
    (siso.bcjr_decode, ("trellis", "gamma")),
    (siso.map_lut, ("spec", "y", "prior", "sigma2")),
    (siso.bcjr_forward_backward, ("gamma",)),
    (pipeline.receive, ("true_u",)),
    (pipeline.make_chain, ("iterations", "genie_stopping")),
    (harness.simulate_point, ("max_blocks", "target_errors", "batch")),
    (harness.load_config, ("overrides",)),
])
def test_bound_parameters(fn, params):
    assert set(params) <= set(inspect.signature(fn).parameters)


def test_code_names():
    # Capture picks decoder calls by the name of their code
    assert codes.build_split_phase().name == "split-phase"
    assert codes.build_outer_cc().name == "cc-rsc-5/7"
    assert codes.build_4b6b().name == "4b6b"
    # Manchester decodes through map_lut too; Capture keeps only 4B6B's
    assert codes.build_manchester().name == "manchester"


def test_result_fields():
    cc = codes.build_outer_cc()
    gamma = siso.gamma_table_llr(cc, np.zeros((1, 6, 2)))
    res = siso.bcjr_decode(cc, gamma)
    assert res.app_input.shape == (1, 6)
    assert res.app_output.shape == (1, 6, 2)
    ws = siso.bcjr_forward_backward(cc, gamma)
    assert ws.alpha.shape == ws.beta.shape == (1, 7, 4)
    assert ws.gamma is gamma
    chain = pipeline.make_chain("cc-split-phase-dim60", 64)
    assert chain.mean_symbol_energy == 0.6


def test_config_keys_and_chain_fields():
    # the exit-threshold workload's config overrides
    cfg = harness.load_config(None, overrides={"exit_samples": 5000,
                                               "seed": 3})
    assert (cfg["exit_samples"], cfg["seed"]) == (5000, 3)
    # the chain fields the BER and threshold checks read
    chain = pipeline.make_chain("cc-split-phase", 64, iterations=7,
                                genie_stopping=True)
    assert (chain.k_user, chain.d, chain.iterations) == (64, 0.5, 7)
    assert float(chain.ideal_rate) == pytest.approx(1 / 3)
    assert chain.mean_symbol_energy == 0.5


def test_outer_decode_gets_the_table_it_was_given(monkeypatch):
    """Capture pairs a gamma_table_llr call with the bcjr_decode call that
    receives the very same array."""
    tables, decoded = [], []
    table_llr, decode = siso.gamma_table_llr, siso.bcjr_decode

    def table_spy(*args, **kwargs):
        tables.append(table_llr(*args, **kwargs))
        return tables[-1]

    def decode_spy(trellis, gamma):
        decoded.append(gamma)
        return decode(trellis, gamma)
    monkeypatch.setattr(siso, "gamma_table_llr", table_spy)
    monkeypatch.setattr(siso, "bcjr_decode", decode_spy)
    prior = np.random.default_rng(31).normal(0, 2, (2, 66))
    pipeline.outer_extrinsic(codes.build_outer_cc(), codes.RATE_23_PUNCTURE,
                             prior)
    assert len(tables) == len(decoded) == 1
    assert decoded[0] is tables[0]
