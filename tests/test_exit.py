import numpy as np
import pytest

from vlclink import codes, exitchart as ex
from vlclink.channel import awgn, ebn0_to_sigma2, ook_modulate
from vlclink.codes import NO_PUNCTURE, RATE_23_PUNCTURE, build_outer_cc
from vlclink.pipeline import INNER_CODES, make_chain, outer_extrinsic


class TestJFunction:

    def test_endpoints(self):
        assert ex.j_function(0.0) == 0.0
        assert ex.j_function(10.0) >= 0.999

    def test_monotone(self):
        sig = np.linspace(0, 8, 50)
        vals = [ex.j_function(s) for s in sig]
        assert (np.diff(vals) >= 0).all()

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 4.0])
    def test_roundtrip(self, sigma):
        assert abs(ex.j_inverse(ex.j_function(sigma)) - sigma) <= 1e-4

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ex.j_inverse(1.0)
        with pytest.raises(ValueError):
            ex.j_function(-1.0)


class TestMeasureMi:

    def test_zero_llrs(self):
        assert ex.measure_mi(np.zeros(100), np.zeros(100)) == 0.0

    def test_near_certainty(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 2, 1000)
        llrs = np.where(truth == 1, 50.0, -50.0)
        assert ex.measure_mi(llrs, truth) >= 0.999

    def test_matches_j_function_on_model(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 2, 10 ** 6)
        llrs = ex.sample_priors(truth, 2.0, rng)
        assert abs(ex.measure_mi(llrs, truth) - ex.j_function(2.0)) < 0.01

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ex.measure_mi(np.zeros(5), np.zeros(6))

    def test_softplus_matches_logaddexp(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.normal(0, 30, 10 ** 5),
                            [0.0, 1e-300, -1e-300, 700.0, -700.0, 800.0,
                             -800.0, 1e300, -1e300]])
        np.testing.assert_allclose(ex._softplus(x), np.logaddexp(0.0, x),
                                   rtol=1e-12, atol=1e-12)
        truth = rng.integers(0, 2, x.size)
        signed = (2.0 * truth - 1.0) * x
        want = 1.0 - np.mean(np.logaddexp(0.0, -signed)) / ex.LN2
        assert abs(ex.measure_mi(x, truth) - min(max(want, 0.0), 1.0)) < 1e-12


@pytest.fixture(scope="module")
def sigma2_5db():
    return ebn0_to_sigma2(5.0, 1 / 3, 0.5)


class TestCurves:

    def test_manchester_flat(self, sigma2_5db):
        c = ex.inner_curve("manchester", sigma2_5db, samples=200000, seed=2)
        assert c.values.max() - c.values.min() < 0.01

    def test_inner_curves_monotone(self, sigma2_5db):
        for name in ("split-phase", "bmc", "4b6b"):
            c = ex.inner_curve(name, sigma2_5db, samples=150000, seed=3)
            assert (np.diff(c.values) >= -0.005).all()

    def test_4b6b_corner_deficiency(self):
        s2 = ebn0_to_sigma2(3.5, 1 / 3, 0.5)
        c = ex.inner_curve("4b6b", s2, grid=np.array([0.5, 0.999]),
                           samples=50000, seed=4)
        assert c.values[-1] < 0.999

    def test_split_phase_reaches_corner(self, sigma2_5db):
        c = ex.inner_curve("split-phase", sigma2_5db,
                           grid=np.array([0.999]), samples=50000, seed=5)
        assert c.values[0] >= 0.99

    def test_outer_curve_monotone_and_corner(self):
        c = ex.outer_curve(build_outer_cc(), RATE_23_PUNCTURE,
                           samples=30000, seed=6)
        assert (np.diff(c.values) >= -0.005).all()
        assert c.values[-1] >= 0.99   # recursive terminated code reaches 1

    def test_outer_area_matches_rate(self):
        c = ex.outer_curve(build_outer_cc(), RATE_23_PUNCTURE,
                           samples=60000, seed=7)
        area = np.trapezoid(c.values, c.grid)
        assert abs(area - (1 - 2 / 3)) < 0.03


def _inner_curve_per_point(inner, sigma2, grid, samples, seed):
    """Reference inner curve: each grid point encodes its own messages."""
    code = INNER_CODES[inner]
    nblocks = max(1, int(np.ceil(samples / ex._INNER_BLOCK)))
    values = []
    for gi, ia in enumerate(grid):
        rng = np.random.default_rng([seed, gi])
        v = rng.integers(0, 2, size=(nblocks, ex._INNER_BLOCK)).astype(
            np.uint8)
        y = awgn(ook_modulate(code.encode(v)), sigma2, rng)
        prior = ex.sample_priors(v, ex.j_inverse(float(ia)), rng)
        values.append(ex.measure_mi(code.extrinsic(y, prior, sigma2), v))
    return np.array(values)


def _outer_curve_per_point(outer, puncture, grid, samples, seed):
    """Reference outer curve: each grid point encodes its own messages."""
    steps = ex._OUTER_BLOCK + outer.memory
    steps += -steps % puncture.period
    k0 = steps - outer.memory
    n_kept = int(puncture.mask(steps * outer.outputs_per_step).sum())
    nblocks = max(1, int(np.ceil(samples / n_kept)))
    values = []
    for gi, ia in enumerate(grid):
        rng = np.random.default_rng([seed, 7, gi])
        u = rng.integers(0, 2, size=(nblocks, k0)).astype(np.uint8)
        kept = codes.apply_puncture(codes.encode(outer, u), puncture)
        prior_kept = ex.sample_priors(kept, ex.j_inverse(float(ia)), rng)
        ext_kept, _ = outer_extrinsic(outer, puncture, prior_kept)
        values.append(ex.measure_mi(ext_kept, kept))
    return np.array(values)


class TestOneEncoderCall:
    """A curve encodes its whole grid at once; every generator still draws
    the same numbers, so the curve equals the per-point reference."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("inner", sorted(INNER_CODES))
    def test_inner_same_numbers(self, inner, seed):
        c = ex.inner_curve(inner, 0.3, samples=600, seed=seed)
        np.testing.assert_array_equal(
            c.values,
            _inner_curve_per_point(inner, 0.3, ex.DEFAULT_GRID, 600, seed))

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("puncture", [RATE_23_PUNCTURE, NO_PUNCTURE],
                             ids=["rate-2/3", "unpunctured"])
    def test_outer_same_numbers(self, puncture, seed):
        outer = build_outer_cc()
        c = ex.outer_curve(outer, puncture, samples=600, seed=seed)
        np.testing.assert_array_equal(
            c.values,
            _outer_curve_per_point(outer, puncture, ex.DEFAULT_GRID, 600,
                                   seed))

    @pytest.mark.parametrize("grid", [[0.5], [0.0, 0.999], None],
                             ids=["1-point", "2-point", "default"])
    def test_one_call_whatever_the_grid(self, monkeypatch, grid):
        calls = []
        for name in ("encode", "encode_lut"):
            def spy(*args, _fn=getattr(codes, name), **kwargs):
                calls.append(_fn)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(codes, name, spy)
        for inner in INNER_CODES:
            calls.clear()
            ex.inner_curve(inner, 0.3, grid=grid, samples=300)
            assert len(calls) == 1, inner
        for puncture in (RATE_23_PUNCTURE, NO_PUNCTURE):
            calls.clear()
            ex.outer_curve(build_outer_cc(), puncture, grid=grid,
                           samples=300)
            assert len(calls) == 1


class TestThreshold:

    def test_bracket_validity(self):
        chain = make_chain("cc-split-phase", 64)
        outer = ex.outer_curve(chain.outer, chain.puncture, samples=50000,
                               seed=8)
        res = ex.find_threshold(chain, outer, lo_db=3.0, hi_db=6.5,
                                resolution_db=0.1, samples=50000, seed=8)
        assert res.found
        assert res.tunnel_min_gap > 0
        # closed one resolution step below
        s2 = ebn0_to_sigma2(res.ebn0_db_star - res.search_resolution_db,
                            float(chain.ideal_rate),
                            chain.mean_symbol_energy)
        below = ex.inner_curve(chain.inner, s2, samples=50000, seed=8)
        assert ex._tunnel_gap(below, outer, 0.01) <= 0

    def test_not_found_reported(self):
        chain = make_chain("cc-split-phase", 64)
        outer = ex.outer_curve(chain.outer, chain.puncture, samples=20000,
                               seed=9)
        res = ex.find_threshold(chain, outer, lo_db=-2.0, hi_db=0.0,
                                resolution_db=0.25, samples=20000, seed=9)
        assert not res.found
        assert res.ebn0_db_star is None

    def test_each_point_measured_once(self, monkeypatch):
        chain = make_chain("cc-split-phase", 64)
        outer = ex.outer_curve(chain.outer, chain.puncture, samples=2000,
                               seed=10)
        measured = []
        inner_curve = ex.inner_curve

        def counted(*args, **kwargs):
            measured.append(kwargs["ebn0_db"])
            return inner_curve(*args, **kwargs)
        monkeypatch.setattr(ex, "inner_curve", counted)
        for lo, hi in ((3.0, 6.5), (-2.0, 0.0), (6.0, 7.0)):
            measured.clear()
            ex.find_threshold(chain, outer, lo_db=lo, hi_db=hi,
                              resolution_db=0.25, samples=2000, seed=10)
            assert len(measured) == len(set(measured))

    @pytest.mark.parametrize("lo, hi", [(5.0, 5.0), (6.5, 3.0)])
    def test_inverted_bracket_rejected(self, monkeypatch, lo, hi):
        chain = make_chain("cc-split-phase", 64)
        outer = ex.outer_curve(chain.outer, chain.puncture, samples=2000,
                               seed=10)
        measured = []
        monkeypatch.setattr(ex, "inner_curve",
                            lambda *args, **kwargs: measured.append(kwargs))
        with pytest.raises(ValueError, match=f"lo_db={lo} .* hi_db={hi}"):
            ex.find_threshold(chain, outer, lo_db=lo, hi_db=hi,
                              samples=2000, seed=10)
        assert not measured


class TestTrajectory:

    def test_reaches_corner_above_threshold(self):
        cfg = make_chain("cc-split-phase", k=2000, iterations=40,
                         genie_stopping=False)
        pts = ex.record_trajectory(cfg, ebn0_db=5.5, blocks=4, seed=10)
        assert max(ie for _, _, ie in pts) >= 0.99

    def test_points_near_measured_curves(self):
        cfg = make_chain("cc-split-phase", k=2000, iterations=40,
                         genie_stopping=False)
        ebn0 = 5.5
        s2 = ebn0_to_sigma2(ebn0, float(cfg.ideal_rate), 0.5)
        inner = ex.inner_curve("split-phase", s2, samples=40000, seed=11)
        pts = ex.record_trajectory(cfg, ebn0_db=ebn0, blocks=4, seed=11)
        inner_pts = [(ia, ie) for h, ia, ie in pts if h % 2 == 0]
        for ia, ie in inner_pts:
            pred = np.interp(ia, inner.grid, inner.values)
            assert abs(ie - pred) < 0.05
