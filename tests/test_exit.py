import re

import numpy as np
import pytest

from vlclink import codes, exitchart as ex, siso
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

    def test_nan_rejected_inf_is_the_limit(self):
        with pytest.raises(ValueError, match="sigma_a"):
            ex.j_function(np.nan)
        assert ex.j_function(np.inf) == 1.0

    def test_inverse_is_exact(self):
        rng = np.random.default_rng(5)
        for i in [*ex.DEFAULT_GRID[1:], *rng.uniform(0.0, 1.0, 8),
                  np.nextafter(1.0, 0.0)]:
            s = ex.j_inverse(float(i))
            assert ex.j_function(np.nextafter(s, 0.0)) < i \
                <= ex.j_function(s), i

    def test_inverse_of_zero_draws_no_prior(self):
        assert ex.j_inverse(0.0) == 0.0
        draws = ex._draw_inner("split-phase", ex.DEFAULT_GRID, 600, 1)
        assert ex.DEFAULT_GRID[0] == 0.0
        assert (draws.priors[0] == 0.0).all()

    def test_inverse_cached_per_value(self, monkeypatch):
        calls = []
        j_function = ex.j_function

        def counted(sigma_a):
            calls.append(sigma_a)
            return j_function(sigma_a)
        monkeypatch.setattr(ex, "j_function", counted)
        ex.j_inverse.cache_clear()
        ex.inner_curve("manchester", 0.5, samples=256)
        assert calls
        calls.clear()
        ex.inner_curve("manchester", 0.5, samples=256)
        assert calls == []


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

    @pytest.mark.parametrize("truth", [[2, 0], [1, -1], [0.5, 1.0]])
    def test_truth_must_be_bits(self, truth):
        with pytest.raises(ValueError, match="truth"):
            ex.measure_mi(np.array([1.0, -2.0]), np.array(truth))

    def test_nan_rejected_inf_kept(self):
        truth = np.array([1, 0, 1, 0])
        with pytest.raises(ValueError, match="NaN"):
            ex.measure_mi(np.array([2.0, np.nan, -1.0, -3.0]), truth)
        llrs = np.array([np.inf, -np.inf, 1.0, -1.0])
        want = 0.5 + 0.5 * (1.0 - np.log1p(np.exp(-1.0)) / ex.LN2)
        assert ex.measure_mi(llrs, truth) == pytest.approx(want, rel=1e-12)
        assert ex.measure_mi(-llrs, truth) == 0.0

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


    def test_rows_equal_measure_mi_row_by_row(self):
        """measure_mi_rows gives each row measure_mi's value for that row
        alone, to the bit, whatever the row's length or layout; +-inf rows
        count as certain and a row holding a NaN raises, as measure_mi
        does."""
        rng = np.random.default_rng(3)
        for n in (1, 7, 256, 5120, 100_000):
            truth = rng.integers(0, 2, (5, n)).astype(np.uint8)
            llrs = rng.normal(0.0, 4.0, (5, n))
            llrs[1] = np.where(truth[1] == 1, np.inf, -np.inf)
            llrs[2] = -llrs[1]
            llrs[3, ::3] = np.inf
            # the 1-D estimate measure_mi made before it had rows
            want = [float.hex(min(max(1.0 - float(np.mean(ex._softplus(
                -((2.0 * bits - 1.0) * row)))) / ex.LN2, 0.0), 1.0))
                for row, bits in zip(llrs, truth)]
            assert [float.hex(ex.measure_mi(row, bits))
                    for row, bits in zip(llrs, truth)] == want, n
            for layout in (llrs, np.asfortranarray(llrs)):
                got = ex.measure_mi_rows(layout, truth)
                assert [float.hex(float(v)) for v in got] == want, n
        assert ex.measure_mi_rows(llrs[1:3], truth[1:3]).tolist() == [1.0,
                                                                       0.0]
        llrs[4, -1] = np.nan
        for bad in (llrs, llrs[4:]):
            with pytest.raises(ValueError, match="NaN"):
                ex.measure_mi_rows(bad, truth[-len(bad):])
        with pytest.raises(ValueError, match="NaN"):
            ex.measure_mi(llrs[4], truth[4])
        assert ex.measure_mi_rows(np.zeros((3, 0)),
                                  np.zeros((3, 0))).tolist() == [0.0] * 3

    def test_rows_shape_checked(self):
        with pytest.raises(ValueError, match="same"):
            ex.measure_mi_rows(np.zeros((2, 5)), np.zeros((2, 6)))
        with pytest.raises(ValueError, match="same"):
            ex.measure_mi_rows(np.zeros(5), np.zeros(5))


@pytest.fixture(scope="module")
def sigma2_5db():
    return ebn0_to_sigma2(5.0, 1 / 3, 0.5)


class TestCurves:

    @pytest.mark.parametrize("grid, values", [
        ([0.0, np.nan], [0.1, 0.2]), ([np.nan], [0.1]),
        ([0.0, np.inf], [0.1, 0.2]), ([0.0, 0.5], [0.1, np.nan]),
        ([0.0, 0.5], [0.1, np.inf])],
        ids=["grid nan", "one-point grid nan", "grid inf", "values nan",
             "values inf"])
    def test_nonfinite_curve_rejected(self, grid, values):
        with pytest.raises(ValueError, match="grid must be finite|values"):
            ex.ExitCurve("inner:split-phase", 5.0, np.array(grid),
                         np.array(values), 256)

    @pytest.mark.parametrize("grid, values", [
        (ex.DEFAULT_GRID, ex.DEFAULT_GRID[1:]), ([[0.0, 0.5]], [[0.1, 0.2]]),
        ([], []), ([0.0, 0.5], [[0.1, 0.2]])],
        ids=["values shorter", "2-D grid", "empty grid", "2-D values"])
    def test_misshapen_curve_rejected(self, grid, values):
        shapes = re.escape(f"grid of shape {np.shape(grid)} and values of "
                           f"shape {np.shape(values)}")
        with pytest.raises(ValueError, match=shapes):
            ex.ExitCurve("outer:cc", None, np.array(grid), np.array(values),
                         256)

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


def _outer_points(outer, puncture, grid, samples, seed):
    """Reference outer-curve inputs, per grid point: its generator draws
    its own messages, then its priors.  Returns the kept code bits and
    priors of every point, each (nblocks, n_kept), and the steps of a
    block."""
    steps = ex._OUTER_BLOCK + outer.memory
    steps += -steps % puncture.period
    k0 = steps - outer.memory
    n_kept = int(puncture.mask(steps * outer.outputs_per_step).sum())
    nblocks = max(1, int(np.ceil(samples / n_kept)))
    points = []
    for gi, ia in enumerate(grid):
        rng = np.random.default_rng([seed, 7, gi])
        u = rng.integers(0, 2, size=(nblocks, k0)).astype(np.uint8)
        kept = codes.apply_puncture(codes.encode(outer, u), puncture)
        points.append((kept, ex.sample_priors(kept, ex.j_inverse(float(ia)),
                                              rng)))
    return points, steps


def _outer_curve_per_point(outer, puncture, grid, samples, seed):
    """Reference outer curve: each grid point encodes its own messages and
    is decoded alone."""
    points, _ = _outer_points(outer, puncture, grid, samples, seed)
    return np.array([
        ex.measure_mi(outer_extrinsic(outer, puncture, prior_kept)[0], kept)
        for kept, prior_kept in points])


@pytest.fixture
def encoder_calls(monkeypatch):
    """Every codes.encode/encode_lut call made while the test runs."""
    calls = []
    for name in ("encode", "encode_lut"):
        def spy(*args, _fn=getattr(codes, name), **kwargs):
            calls.append(_fn)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(codes, name, spy)
    return calls


class TestOneEncoderCall:
    """A curve encodes its whole grid at once; every generator still draws
    the same numbers, so the curve equals the per-point reference."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("inner", sorted(INNER_CODES))
    def test_inner_same_numbers(self, inner, seed):
        # 3 and 8 blocks per point: whole groups of points per decoder
        # call, and at 2000 samples a last group of 3 points
        for samples in (600, 2000):
            c = ex.inner_curve(inner, 0.3, samples=samples, seed=seed)
            np.testing.assert_array_equal(
                c.values,
                _inner_curve_per_point(inner, 0.3, ex.DEFAULT_GRID, samples,
                                       seed), err_msg=f"{samples} samples")

    @pytest.mark.parametrize("inner", sorted(INNER_CODES))
    def test_one_block_points(self, monkeypatch, inner):
        """At samples <= 256 each point is one block, and a one-block
        split-phase/BMC call takes another chunk plan than the call of
        every point together: the curve equals the reference to rounding,
        and exactly once both calls take the same plan."""
        c = ex.inner_curve(inner, 0.3, samples=200, seed=1)
        want = _inner_curve_per_point(inner, 0.3, ex.DEFAULT_GRID, 200, 1)
        np.testing.assert_allclose(c.values, want, rtol=0, atol=1e-15)
        chunk_plan = siso._chunk_plan
        monkeypatch.setattr(siso, "_chunk_plan",
                            lambda n, B, S, A: chunk_plan(n, 2, S, A))
        c = ex.inner_curve(inner, 0.3, samples=200, seed=1)
        np.testing.assert_array_equal(
            c.values,
            _inner_curve_per_point(inner, 0.3, ex.DEFAULT_GRID, 200, 1))

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("puncture", [RATE_23_PUNCTURE, NO_PUNCTURE],
                             ids=["rate-2/3", "unpunctured"])
    def test_outer_same_numbers(self, puncture, seed):
        # up to 3 (rate 2/3) and 4 (unpunctured) points per decoder call
        # at 5000 samples
        outer = build_outer_cc()
        for samples in (600, 5000):
            c = ex.outer_curve(outer, puncture, samples=samples, seed=seed)
            np.testing.assert_array_equal(
                c.values,
                _outer_curve_per_point(outer, puncture, ex.DEFAULT_GRID,
                                       samples, seed),
                err_msg=f"{samples} samples")

    @pytest.mark.parametrize("grid", [[0.5], [0.0, 0.999], None],
                             ids=["1-point", "2-point", "default"])
    def test_one_call_whatever_the_grid(self, encoder_calls, grid):
        calls = encoder_calls
        for inner in INNER_CODES:
            calls.clear()
            ex.inner_curve(inner, 0.3, grid=grid, samples=300)
            assert len(calls) == 1, inner
        for puncture in (RATE_23_PUNCTURE, NO_PUNCTURE):
            calls.clear()
            ex.outer_curve(build_outer_cc(), puncture, grid=grid,
                           samples=300)
            assert len(calls) == 1

    def test_unknown_inner_code_rejected(self):
        with pytest.raises(ValueError, match="unknown inner code 'bogus'; "
                           "choose from " + ", ".join(INNER_CODES)):
            ex.inner_curve("bogus", 0.3, samples=300)

    @pytest.mark.parametrize("sigma_a", [np.nan, -1.0, np.inf])
    def test_sample_priors_rejects_bad_sigma_a(self, sigma_a):
        with pytest.raises(ValueError, match="sigma_a"):
            ex.sample_priors(np.zeros(4), sigma_a, np.random.default_rng(0))

    @pytest.mark.parametrize("samples", [0, -10, float("nan")])
    def test_samples_below_one_rejected(self, samples):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            ex.inner_curve("split-phase", 0.3, samples=samples)
        with pytest.raises(ValueError, match="samples must be >= 1"):
            ex.outer_curve(build_outer_cc(), RATE_23_PUNCTURE,
                           samples=samples)


@pytest.fixture
def decoder_calls(monkeypatch):
    """(sigma2, prior) of every inner-decoder call made while the test
    runs."""
    calls = []

    def trellis_spy(*args, _fn=siso.bcjr_extrinsic, **kwargs):
        calls.append((kwargs["sigma2"], kwargs["prior"]))
        return _fn(*args, **kwargs)

    def lut_spy(spec, y, prior, _fn=siso.map_lut, **kwargs):
        calls.append((kwargs["sigma2"], prior))
        return _fn(spec, y, prior, **kwargs)
    monkeypatch.setattr(siso, "bcjr_extrinsic", trellis_spy)
    monkeypatch.setattr(siso, "map_lut", lut_spy)
    return calls


class TestGroupedCalls:
    """_inner_at decodes small grid points together: whole points, in grid
    order, at most _ROWS_PER_CALL blocks per decoder call; a point of more
    than half of that is decoded alone."""

    @pytest.mark.parametrize("inner", sorted(INNER_CODES))
    @pytest.mark.parametrize("samples, blocks, merged",
                             [(5000, 20, True), (20_000, 79, False)])
    def test_call_structure(self, decoder_calls, inner, samples, blocks,
                            merged):
        draws = ex._draw_inner(inner, ex.DEFAULT_GRID, samples, 1)
        points = len(ex.DEFAULT_GRID)
        per_call = max(1, ex._ROWS_PER_CALL // blocks)
        assert (per_call > 1) == merged
        decoder_calls.clear()
        ex._inner_at(draws, 0.3)
        assert len(decoder_calls) == -(-points // per_call)
        first = 0
        for _, prior in decoder_calls:
            assert len(prior) % blocks == 0
            assert len(prior) <= max(blocks, ex._ROWS_PER_CALL)
            last = first + len(prior) // blocks
            np.testing.assert_array_equal(
                prior, draws.priors[first:last].reshape(len(prior), -1))
            first = last
        assert first == points


class TestOuterGroupedCalls:
    """outer_curve decodes whole grid points per outer-decoder call, in
    grid order: at most _OUTER_ROWS_PER_CALL blocks (a point of more is
    decoded alone), and never a group whose BCJR chunk plan differs from a
    one-point call's, so every value is the one-point call's."""

    @pytest.mark.parametrize("puncture, samples, budget, per_call", [
        (RATE_23_PUNCTURE, 600, None, 3),       # 4 blocks a point
        (NO_PUNCTURE, 600, None, 1),            # 3: 6 blocks change plan
        (RATE_23_PUNCTURE, 2000, None, 1),      # 11: 22 change plan
        (NO_PUNCTURE, 2000, None, 1),           # 8: 16 change plan
        (RATE_23_PUNCTURE, 5000, None, 3),      # 26: 104 change plan
        (NO_PUNCTURE, 5000, None, 4),           # 20: 100 change plan
        (NO_PUNCTURE, 5000, 40, 2),             # the budget binds
        (RATE_23_PUNCTURE, 20_000, None, 1),    # 103 blocks
        (NO_PUNCTURE, 20_000, 60, 1)],          # 77 blocks, over budget
        ids=["2/3-600", "1/2-600", "2/3-2000", "1/2-2000", "2/3-5000",
             "1/2-5000", "1/2-5000-budget-40", "2/3-20000",
             "1/2-20000-budget-60"])
    def test_call_structure(self, monkeypatch, puncture, samples, budget,
                            per_call):
        outer = build_outer_cc()
        if budget is not None:
            monkeypatch.setattr(ex, "_OUTER_ROWS_PER_CALL", budget)
        points, steps = _outer_points(outer, puncture, ex.DEFAULT_GRID,
                                      samples, 1)
        nblocks = len(points[0][1])
        S, A = outer.next_state.shape
        one_point = siso._chunk_plan(steps, nblocks, S, A)
        calls = []

        def spy(outer_, puncture_, prior, _fn=outer_extrinsic):
            calls.append(prior)
            return _fn(outer_, puncture_, prior)
        monkeypatch.setattr(ex.pipeline, "outer_extrinsic", spy)
        c = ex.outer_curve(outer, puncture, samples=samples, seed=1)
        assert len(calls) == -(-len(points) // per_call)
        first = 0
        for prior in calls:
            assert len(prior) % nblocks == 0
            assert len(prior) <= max(nblocks, ex._OUTER_ROWS_PER_CALL)
            assert siso._chunk_plan(steps, len(prior), S, A) == one_point
            for block in prior.reshape(-1, nblocks, prior.shape[-1]):
                np.testing.assert_array_equal(block, points[first][1])
                first += 1
        assert first == len(points)
        np.testing.assert_array_equal(
            c.values, [ex.measure_mi(outer_extrinsic(outer, puncture, p)[0],
                                     kept) for kept, p in points])


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
        """A closed hi_db reports its gap over every point up to 0.99."""
        chain = make_chain("cc-split-phase", 64)
        outer = ex.outer_curve(chain.outer, chain.puncture, samples=20000,
                               seed=9)
        res = ex.find_threshold(chain, outer, lo_db=-2.0, hi_db=0.0,
                                resolution_db=0.25, samples=20000, seed=9)
        assert not res.found
        assert res.ebn0_db_star is None
        curve = ex.inner_curve(chain.inner, chain.sigma2(0.0),
                               samples=20000, seed=9)
        assert res.tunnel_min_gap == ex._tunnel_gap(curve, outer, 0.01) <= 0

    def test_open_lo_reported(self):
        """An open lo_db is the threshold, with its full minimum gap."""
        chain = make_chain("cc-split-phase", 64)
        outer = ex.outer_curve(chain.outer, chain.puncture, samples=20000,
                               seed=9)
        res = ex.find_threshold(chain, outer, lo_db=6.0, hi_db=7.0,
                                resolution_db=0.25, samples=20000, seed=9)
        assert res.found
        assert res.ebn0_db_star == 6.0
        curve = ex.inner_curve(chain.inner, chain.sigma2(6.0),
                               samples=20000, seed=9)
        assert res.tunnel_min_gap == ex._tunnel_gap(curve, outer, 0.01) > 0

    @pytest.mark.parametrize("lo, hi", [(3.0, 6.5), (-2.0, 0.0), (6.0, 7.0)])
    @pytest.mark.parametrize("inner", sorted(INNER_CODES))
    def test_decoder_calls(self, monkeypatch, decoder_calls, inner, lo, hi):
        """Each Eb/N0 decodes whole grid points, none twice and never the
        0.999 point, in ascending order of their gap at the nearest Eb/N0
        decoded in full (grid order before any).  An open Eb/N0 and a
        reported closed hi_db decode every point; any other closed Eb/N0
        stops after the call that holds its first closed point."""
        chain = make_chain(f"cc-{inner}", 64)
        samples, seed = 2000, 10
        outer = ex.outer_curve(chain.outer, chain.puncture, samples=samples,
                               seed=seed)
        res, visited = _threshold_per_point(chain, outer, lo, hi, 0.25,
                                            samples, seed)
        top = len(ex.DEFAULT_GRID) - 1          # the 0.999 point
        # the gap at every visited point up to 0.99, and the point of each
        # block of priors
        point_gaps = {}
        for ebn0 in visited:
            curve = ex.inner_curve(chain.inner, chain.sigma2(ebn0),
                                   samples=samples, seed=seed)
            point_gaps[ebn0] = np.array([
                ex._tunnel_gap(ex.ExitCurve("inner", ebn0, [i], [v], samples),
                               outer, 0.01)
                for i, v in zip(curve.grid[:top], curve.values[:top])])
        draws = ex._draw_inner(chain.inner, ex.DEFAULT_GRID, samples, seed)
        nblocks = draws.priors.shape[1]
        point_of = {p.tobytes(): i for i, p in enumerate(draws.priors)}
        drawn = []                              # sigma_a of each point drawn

        def counted(truth, sigma_a, rng, _fn=ex.sample_priors):
            drawn.append(sigma_a)
            return _fn(truth, sigma_a, rng)
        monkeypatch.setattr(ex, "sample_priors", counted)

        decoder_calls.clear()
        assert ex.find_threshold(chain, outer, lo_db=lo, hi_db=hi,
                                 resolution_db=0.25, samples=samples,
                                 seed=seed) == res
        assert len(drawn) == top
        assert ex.j_inverse(float(ex.DEFAULT_GRID[top])) not in drawn
        ebn0_of = {chain.sigma2(e): e for e in visited}
        calls = []                              # (Eb/N0, [points]) per call
        for sigma2, prior in decoder_calls:
            calls.append((ebn0_of[sigma2], [
                point_of[b.tobytes()] for b in prior.reshape(
                    -1, nblocks, prior.shape[-1])]))
        assert [e for e, _ in calls] == sorted(
            (e for e, _ in calls), key=list(visited).index)
        assert {e for e, _ in calls} == visited.keys()

        full = []                               # Eb/N0s decoded in full
        for ebn0 in visited:
            per_call = [p for e, p in calls if e == ebn0]
            order = [i for p in per_call for i in p]
            assert top not in order
            assert len(order) == len(set(order)), ebn0
            gaps = point_gaps[ebn0]
            if full:
                near = min(full, key=lambda e: abs(e - ebn0))
                want = np.argsort(point_gaps[near], kind="stable")
            else:
                want = np.arange(top)
            assert order == want[:len(order)].tolist(), ebn0
            if visited[ebn0] > 0 or (ebn0 == hi and not res.found):
                assert sorted(order) == list(range(top)), ebn0
                full.append(ebn0)
            else:
                closing = [any(gaps[i] <= 0 for i in p) for p in per_call]
                assert closing.index(True) == len(per_call) - 1, ebn0

    @pytest.mark.parametrize("lo, hi", [(5.0, 5.0), (6.5, 3.0)])
    def test_inverted_bracket_rejected(self, monkeypatch, lo, hi):
        chain = make_chain("cc-split-phase", 64)
        outer = ex.outer_curve(chain.outer, chain.puncture, samples=2000,
                               seed=10)
        measured = []
        for step in ("_draw_inner", "_inner_at"):
            monkeypatch.setattr(ex, step,
                                lambda *args, **kwargs: measured.append(
                                    kwargs))
        with pytest.raises(ValueError, match=f"lo_db={lo} .* hi_db={hi}"):
            ex.find_threshold(chain, outer, lo_db=lo, hi_db=hi,
                              samples=2000, seed=10)
        assert not measured

    @pytest.mark.parametrize("name, value", [
        ("lo_db", np.nan), ("lo_db", np.inf), ("lo_db", -np.inf),
        ("hi_db", np.nan), ("hi_db", np.inf), ("hi_db", -np.inf),
        ("resolution_db", np.nan), ("resolution_db", np.inf),
        ("resolution_db", 0.0), ("resolution_db", -0.1)])
    def test_bad_bracket_or_resolution_rejected(self, encoder_calls, name,
                                                value):
        chain = make_chain("cc-split-phase", 64)
        outer = ex.outer_curve(chain.outer, chain.puncture, samples=2000,
                               seed=10)
        encoder_calls.clear()
        args = dict(lo_db=3.0, hi_db=6.5, resolution_db=0.25)
        args[name] = value
        with pytest.raises(ValueError, match=f"{name} must be"):
            ex.find_threshold(chain, outer, samples=2000, seed=10, **args)
        assert not encoder_calls


def _threshold_per_point(chain, outer, lo, hi, resolution, samples, seed):
    """Reference bisection: each Eb/N0 visited measures its own
    inner_curve.  Returns the result and the gap at every visited Eb/N0."""
    gaps = {}

    def gap_at(ebn0):
        if ebn0 not in gaps:
            c = ex.inner_curve(chain.inner, chain.sigma2(ebn0),
                               samples=samples, seed=seed, ebn0_db=ebn0)
            gaps[ebn0] = ex._tunnel_gap(c, outer, 0.01)
        return gaps[ebn0]

    if gap_at(lo) > 0:
        return ex.ThresholdResult(lo, gap_at(lo), resolution, True), gaps
    if gap_at(hi) <= 0:
        return ex.ThresholdResult(None, gap_at(hi), resolution, False), gaps
    while hi - lo > resolution + 1e-9:
        mid = (lo + hi) / 2.0
        if gap_at(mid) > 0:
            hi = mid
        else:
            lo = mid
    return ex.ThresholdResult(hi, gap_at(hi), resolution, True), gaps


class TestOneDrawPerSearch:
    """A threshold search draws its inner curve's messages, lines, noise
    and priors once and rescales the noise at each Eb/N0; every point it
    measures is still exactly inner_curve's."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("inner", sorted(INNER_CODES))
    def test_gaps_match_inner_curve(self, monkeypatch, inner, seed):
        """The result is the per-point reference's.  Every point the search
        decodes has inner_curve's value there; an open Eb/N0 decodes every
        point up to 0.99, to the reference's minimum gap, and a closed one
        holds a decoded gap <= 0."""
        chain = make_chain(f"cc-{inner}", 64)
        outer = ex.outer_curve(chain.outer, chain.puncture, samples=600,
                               seed=seed)
        want, want_gaps = _threshold_per_point(chain, outer, 2.0, 7.0, 0.1,
                                               600, seed)
        curves = {chain.sigma2(e): ex.inner_curve(chain.inner,
                                                  chain.sigma2(e),
                                                  samples=600, seed=seed)
                  for e in want_gaps}
        decoded = {}                # sigma2 -> {point index: value}
        decode_points = ex._decode_points

        def recorded(draws, sigma2, order):
            for points, values in decode_points(draws, sigma2, order):
                decoded.setdefault(sigma2, {}).update(zip(points.tolist(),
                                                          values))
                yield points, values
        monkeypatch.setattr(ex, "_decode_points", recorded)
        got = ex.find_threshold(chain, outer, lo_db=2.0, hi_db=7.0,
                                resolution_db=0.1, samples=600, seed=seed)
        assert got == want
        assert decoded.keys() == curves.keys()
        for ebn0, want_gap in want_gaps.items():
            curve = curves[chain.sigma2(ebn0)]
            values = decoded[chain.sigma2(ebn0)]
            assert all(v == curve.values[i] for i, v in values.items())
            gaps = [ex._tunnel_gap(ex.ExitCurve("inner", ebn0,
                                                [curve.grid[i]], [v], 600),
                                   outer, 0.01) for i, v in values.items()]
            if want_gap > 0:
                assert sorted(values) == list(range(len(curve.grid) - 1))
                assert min(gaps) == want_gap, ebn0
            else:
                assert min(gaps) <= 0, ebn0

    def test_one_encoder_call_per_search(self, encoder_calls):
        for inner in INNER_CODES:
            chain = make_chain(f"cc-{inner}", 64)
            outer = ex.outer_curve(chain.outer, chain.puncture, samples=600,
                                   seed=3)
            encoder_calls.clear()
            ex.find_threshold(chain, outer, lo_db=-2.0, hi_db=7.0,
                              resolution_db=0.5, samples=600, seed=3)
            assert len(encoder_calls) == 1, inner

    def test_draws_read_only(self):
        draws = ex._draw_inner("split-phase", ex.DEFAULT_GRID, 600, 1)
        for name in ("messages", "lines", "noise", "priors"):
            a = getattr(draws, name)
            assert not a.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1
        assert draws.messages.dtype == draws.lines.dtype == np.uint8

    @pytest.mark.parametrize("sigma2", [0.0, -0.3, np.nan, np.inf])
    def test_every_evaluation_checks_sigma2(self, sigma2):
        draws = ex._draw_inner("4b6b", ex.DEFAULT_GRID, 600, 1)
        with pytest.raises(ValueError, match="sigma2 must be positive"):
            ex._inner_at(draws, sigma2)


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

    @pytest.mark.parametrize("blocks", [0, -1, 2.5, "4"])
    def test_unusable_block_count_rejected(self, monkeypatch, blocks):
        def no_transmit(*args, **kwargs):
            raise AssertionError("transmitted before checking blocks")
        monkeypatch.setattr(ex.pipeline, "transmit", no_transmit)
        with pytest.raises(ValueError,
                           match=r"blocks must be an integer >= 1, got "):
            ex.record_trajectory(make_chain("cc-split-phase", k=64), 5.5,
                                 blocks=blocks)
