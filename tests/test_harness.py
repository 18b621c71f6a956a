import csv
import json

import numpy as np
import pytest

from vlclink import cli, harness, pipeline
from vlclink.codes import build_split_phase, encode
from vlclink.harness import ConfigError


class TestConfigParsing:

    def test_defaults_and_overrides(self):
        cfg = harness.parse_config_text(
            "scheme = cc-bmc   # line code\nk = 100\nebn0_db = 3.0, 4.0\n")
        assert cfg["scheme"] == "cc-bmc"
        assert cfg["k"] == 100
        assert cfg["ebn0_db"] == [3.0, 4.0]
        assert cfg["iterations"] == harness.DEFAULTS["iterations"]

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*turbo"):
            harness.parse_config_text("k = 8\nturbo = yes\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            harness.parse_config_text("just some words\n")

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="'k'"):
            harness.parse_config_text("k = twelve\n")

    def test_empty_grid(self):
        with pytest.raises(ConfigError, match="empty"):
            harness.parse_config_text("ebn0_db = ,\n")

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError, match="scheme"):
            harness.parse_config_text("scheme = cc-8b10b\n")

    @pytest.mark.parametrize("key, value", [
        ("k", 0), ("iterations", 0), ("batch", 0), ("max_blocks", 0),
        ("target_errors", 0), ("workers", 0), ("exit_samples", 0),
        ("k", -3), ("trajectory_blocks", -1), ("seed", -1),
        ("interleaver_seed", -1)])
    def test_count_below_minimum(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}'.*>="):
            harness.load_config(None, overrides={key: value})

    @pytest.mark.parametrize("key, value", [
        ("k", 2.7), ("seed", 1.9), ("iterations", 0.5),
        ("exit_samples", float("inf")), ("batch", float("nan"))])
    def test_non_integral_count_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}'.*integer"):
            harness.load_config(None, overrides={key: value})

    def test_integral_float_count_accepted(self):
        cfg = harness.load_config(None, overrides={"k": 3.0, "seed": 7.0})
        assert type(cfg["k"]) is int and cfg["k"] == 3
        want = harness.load_config(None, overrides={"k": 3, "seed": 7})
        assert cfg == want
        assert harness.config_digest(cfg) == harness.config_digest(want)

    @pytest.mark.parametrize("overrides", [
        {"exit_sample": 10}, {"sede": 3}, {"exit_sample": 10, "sede": 3},
        {"seed": 3, "sede": None}])
    def test_unknown_override_rejected(self, overrides):
        with pytest.raises(ConfigError, match="unknown override") as err:
            harness.load_config(None, overrides=overrides)
        for key in set(overrides) - set(harness.DEFAULTS):
            assert repr(key) in str(err.value)

    def test_none_override_skipped(self):
        # the CLI passes every flag, unset ones as None
        cfg = harness.load_config(None, overrides={"seed": None,
                                                   "workers": None})
        assert cfg == harness.load_config(None)

    def test_genie_boolean_forms(self):
        for text, want in [("genie = off", False), ("genie = 1", True),
                           ("genie = FALSE", False), ("genie = Yes", True),
                           ("genie = no", False), ("genie = ON", True),
                           ("genie = 0", False), ("genie = true", True)]:
            assert harness.parse_config_text(text)["genie"] is want
        for value in (True, False):
            cfg = harness.load_config(None, overrides={"genie": value})
            assert cfg["genie"] is value

    @pytest.mark.parametrize("text, key", [
        ("d = abc", "d"), ("d = 1.5", "d"), ("d = 0", "d"), ("d = 1", "d"),
        ("d = nan", "d"), ("genie = ture", "genie"), ("genie = 2", "genie"),
        ("threshold_resolution_db = 0", "threshold_resolution_db"),
        ("threshold_resolution_db = -0.1", "threshold_resolution_db"),
        ("ebn0_db = nan", "ebn0_db"), ("ebn0_db = 4.0, inf", "ebn0_db"),
        ("ebn0_db = 4.0, x", "ebn0_db"),
        ("exit_ebn0_db = inf", "exit_ebn0_db"),
        ("threshold_hi_db = -inf", "threshold_hi_db"),
        ("threshold_lo_db = 7\nthreshold_hi_db = 2", "threshold_lo_db"),
        ("threshold_lo_db = 3\nthreshold_hi_db = 3", "threshold_lo_db")])
    def test_bad_value_rejected(self, tmp_path, text, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            harness.parse_config_text(text)
        # the same through a config file, under a preset
        p = tmp_path / "c.cfg"
        p.write_text(text + "\n")
        with pytest.raises(ConfigError, match=f"'{key}'"):
            harness.load_config(p, preset="dim60")

    def test_preset_layering(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("k = 7\n")
        cfg = harness.load_config(p, preset="dim60",
                                  overrides={"seed": 99})
        assert cfg["scheme"] == "cc-split-phase-dim60"  # from preset
        assert cfg["k"] == 7                             # file beats preset
        assert cfg["seed"] == 99                         # override beats file

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            harness.load_config(None, preset="bench")

    def test_digest_stable_and_sensitive(self):
        a = harness.parse_config_text("k = 64\n")
        b = harness.parse_config_text("k = 64\n")
        c = harness.parse_config_text("k = 65\n")
        d = harness.parse_config_text("k = 64\nworkers = 4\n")
        assert harness.config_digest(a) == harness.config_digest(b)
        assert harness.config_digest(a) != harness.config_digest(c)
        # workers is a perf knob: it changes no number, so not the digest
        assert harness.config_digest(a) == harness.config_digest(d)


class TestStreamMetrics:

    def test_examples(self):
        m = harness.stream_metrics(np.array([0, 0, 1, 1, 1, 0, 1]))
        assert m.ones_fraction == pytest.approx(4 / 7)
        assert m.max_run_0 == 2
        assert m.max_run_1 == 3

    def test_empty(self):
        m = harness.stream_metrics(np.array([], dtype=np.uint8))
        assert (m.ones_fraction, m.max_run_0, m.max_run_1) == (0.0, 0, 0)

    def test_all_ones(self):
        m = harness.stream_metrics(np.ones(17, dtype=np.uint8))
        assert m.max_run_1 == 17 and m.max_run_0 == 0

    def test_split_phase_stream(self):
        rng = np.random.default_rng(3)
        line = encode(build_split_phase(), rng.integers(0, 2, 4000))
        m = harness.stream_metrics(line)
        assert m.ones_fraction == 0.5
        assert max(m.max_run_0, m.max_run_1) <= 2


def _tiny_cfg(**over):
    cfg = harness.parse_config_text("")
    cfg.update({"k": 128, "iterations": 5, "max_blocks": 4,
                "target_errors": 10 ** 9, "batch": 2,
                "ebn0_db": [6.0], "exit_samples": 4000})
    cfg.update(over)
    return cfg


class TestBerSweep:

    def test_deterministic_across_runs_and_workers(self, tmp_path):
        cfg = _tiny_cfg(ebn0_db=[3.0, 6.0])
        r1 = harness.run_ber_sweep(cfg, out_dir=tmp_path / "a")
        r2 = harness.run_ber_sweep(dict(cfg, workers=2),
                                   out_dir=tmp_path / "b")
        for a, b in zip(r1, r2):
            ra, rb = a.row(), b.row()
            wt = harness.BER_COLUMNS.index("wall_time_s")
            ra[wt] = rb[wt] = 0.0
            assert ra == rb

    def test_csv_schema(self, tmp_path):
        harness.run_ber_sweep(_tiny_cfg(), out_dir=tmp_path)
        with open(tmp_path / "ber.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == harness.BER_COLUMNS
        assert len(rows) == 2
        rec = dict(zip(rows[0], rows[1]))
        assert float(rec["ebn0_db"]) == 6.0
        assert int(rec["blocks_run"]) == 4
        assert 0.0 <= float(rec["ber"]) <= 1.0
        assert float(rec["ber_ci_lo"]) <= float(rec["ber"]) \
            <= float(rec["ber_ci_hi"])

    def test_manifest_contents(self, tmp_path):
        cfg = _tiny_cfg()
        harness.run_ber_sweep(cfg, out_dir=tmp_path)
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["config_digest"] == harness.config_digest(cfg)
        assert man["rates"]["outer"] == "2/3"
        assert man["mean_symbol_energy"] == 0.5

    def test_target_errors_stops_early(self):
        cfg = _tiny_cfg(ebn0_db=[0.0], max_blocks=50, target_errors=5,
                        batch=1)
        rec = harness.run_ber_sweep(cfg)[0]
        assert rec.bit_errors >= 5
        assert rec.blocks_run < 50


class TestSimulatePoint:

    chain = pipeline.make_chain("cc-split-phase", 128, iterations=5,
                                genie_stopping=True)

    def test_blocks_do_not_depend_on_the_call(self):
        s2 = self.chain.sigma2(5.0)
        whole = harness.decode_blocks(self.chain, s2, 3, 1, 0, 8)
        head = harness.decode_blocks(self.chain, s2, 3, 1, 0, 3)
        tail = harness.decode_blocks(self.chain, s2, 3, 1, 3, 5)
        for got, a, b in zip(whole, head, tail):
            assert got.shape == (8,)
            np.testing.assert_array_equal(got, np.concatenate([a, b]))
        errors, iterations = whole
        assert 0 < (errors > 0).sum() < 8       # some blocks fail, some not
        assert len(set(iterations)) > 1         # genie stops some early

    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("ebn0, max_blocks, target", [
        (3.0, 20, 100),         # stops on bit errors
        (5.0, 7, 10 ** 9)])     # stops on blocks
    def test_fold_over_decode_blocks(self, batch, ebn0, max_blocks, target):
        rec = harness.simulate_point(self.chain, ebn0, 1, 3, max_blocks,
                                     target, batch)
        s2 = self.chain.sigma2(ebn0)
        errors, iterations = [], []
        while len(errors) < max_blocks and sum(errors) < target:
            e, it = harness.decode_blocks(
                self.chain, s2, 3, 1, len(errors),
                min(batch, max_blocks - len(errors)))
            errors += e.tolist()
            iterations += it.tolist()
        blocks, bits = len(errors), len(errors) * self.chain.k_user
        frames = sum(e > 0 for e in errors)
        assert (blocks < max_blocks) == (target < 10 ** 9)
        assert (rec.sigma2, rec.blocks_run) == (s2, blocks)
        assert (rec.bit_errors, rec.ber) == (sum(errors), sum(errors) / bits)
        assert (rec.frame_errors, rec.fer) == (frames, frames / blocks)
        assert rec.mean_iterations == sum(iterations) / blocks
        assert rec.ber_ci_lo < rec.ber < rec.ber_ci_hi

    @pytest.mark.parametrize("key, value", [
        ("max_blocks", 0), ("target_errors", 0), ("batch", 0),
        ("batch", -1), ("max_blocks", 2.5), ("target_errors", None)])
    def test_unusable_count_rejected(self, key, value):
        counts = dict(max_blocks=4, target_errors=10, batch=2)
        counts[key] = value
        chain = pipeline.make_chain("cc-split-phase", 64)
        with pytest.raises(ValueError, match=f"{key} must be .*>= 1"):
            harness.simulate_point(chain, 6.0, 0, 1, **counts)


class TestWilsonInterval:

    Z = 1.959963984540054

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 4800, 10 ** 9])
    def test_bounds(self, n):
        for errors in sorted({0, 1, n // 2, n - 1, n}):
            lo, hi = harness._wilson_ci(errors, n)
            assert type(lo) is float and type(hi) is float
            assert 0.0 <= lo <= errors / n <= hi <= 1.0
            assert (lo == 0.0) == (errors == 0)
            assert (hi == 1.0) == (errors == n)
        # no errors: the upper bound is the root z^2 / (n + z^2)
        assert harness._wilson_ci(0, n)[1] == pytest.approx(
            self.Z ** 2 / (n + self.Z ** 2), rel=1e-12)


class TestThreshold:

    def test_shared_outer_curve_measured_once(self, monkeypatch):
        cfg = harness.load_config(None, overrides={
            "exit_samples": 2000, "seed": 3, "threshold_resolution_db": 0.25})
        punctures = []
        outer_curve = harness.exitchart.outer_curve

        def counted(outer, puncture, **kwargs):
            punctures.append(puncture)
            return outer_curve(outer, puncture, **kwargs)
        monkeypatch.setattr(harness.exitchart, "outer_curve", counted)
        both = harness.run_threshold(cfg, schemes=("cc-split-phase",
                                                   "cc-bmc", "cc-4b6b"))
        assert len(punctures) == 2      # rate-2/3 once, unpunctured once
        alone = harness.run_threshold(cfg, schemes=("cc-bmc",))
        assert both["cc-bmc"] == alone["cc-bmc"]


class TestCli:

    def test_presets_lists_all(self, capsys):
        assert cli.main(["presets"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == set(harness.PRESETS)

    def test_bad_config_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        for command, text, name in (("ber", "voltage = 5\n", "voltage"),
                                    ("metrics", "d = abc\n", "'d'")):
            p.write_text(text)
            assert cli.main([command, "--config", str(p)]) == 2
            assert name in capsys.readouterr().err

    def test_ber_subcommand(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("k = 128\niterations = 5\nmax_blocks = 2\n"
                     "batch = 2\nebn0_db = 6.0\n")
        out = tmp_path / "res"
        assert cli.main(["ber", "--config", str(p),
                         "--out", str(out)]) == 0
        assert (out / "ber.csv").exists()
        assert (out / "manifest.json").exists()
        first = capsys.readouterr().out.splitlines()[0]
        assert first == ",".join(harness.BER_COLUMNS)

    def test_exit_subcommand(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("exit_samples = 3000\nk = 128\niterations = 8\n"
                     "trajectory_blocks = 1\nexit_ebn0_db = 6.0\n")
        out = tmp_path / "res"
        assert cli.main(["exit", "--config", str(p),
                         "--out", str(out)]) == 0
        assert (out / "exit_curves.csv").exists()
        assert (out / "trajectory.csv").exists()
        with open(out / "exit_curves.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == harness.EXIT_COLUMNS
        comps = {r[0] for r in rows[1:]}
        assert comps == {"inner:split-phase", "inner:bmc",
                         "inner:manchester", "inner:4b6b",
                         "outer:cc", "outer:cc-rate-1/2"}

    def test_threshold_subcommand(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("exit_samples = 20000\nthreshold_lo_db = 3.0\n"
                     "threshold_hi_db = 6.0\n"
                     "threshold_resolution_db = 0.5\n")
        out = tmp_path / "res"
        assert cli.main(["threshold", "--config", str(p),
                         "--out", str(out)]) == 0
        data = json.loads((out / "thresholds.json").read_text())
        assert set(data) == {"cc-split-phase", "cc-bmc", "cc-4b6b"}
        for rec in data.values():
            assert rec["found"]
            assert 3.0 <= rec["ebn0_db_star"] <= 6.0

    def test_metrics_rejects_no_blocks(self, capsys):
        assert cli.main(["metrics", "--blocks", "0"]) == 2
        assert "--blocks" in capsys.readouterr().err

    def test_metrics_subcommand(self, capsys, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("scheme = cc-4b6b\nk = 64\n")
        assert cli.main(["metrics", "--config", str(p), "--blocks", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scheme"] == "cc-4b6b"
        assert data["ones_fraction"] == 0.5
        assert max(data["max_run_0"], data["max_run_1"]) <= 4
