import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multifract.errors import (
    AllBoxesDegenerate,
    DataError,
    DegenerateSeries,
    GridTooSmall,
    ScaleTooLarge,
    SeriesTooShort,
    Underdetermined,
)
from multifract import mfdfa
from multifract.mfdfa import (
    BOX_BLOCK,
    MAX_Q_POINTS,
    AnalysisConfig,
    FluctuationSurface,
    Profile,
    analyze_profile,
    analyze_returns,
    default_q_grid,
    default_scale_grid,
    detrend_segment,
    fluctuation_surface,
    hurst_spectrum,
    local_fluctuation,
    make_profile,
    mass_exponents,
    _box_blocks,
    _box_fluctuations,
    _design_basis,
    overall_fluctuation,
    singularity_spectrum,
)
from multifract.synth import gaussian_white_noise


def brute_power_mean(values, q):
    values = np.asarray(values, dtype=float)
    if q == 0:
        return float(np.exp(np.mean(np.log(values))))
    return float(np.mean(values ** q) ** (1.0 / q))


class TestConfig:
    def test_defaults(self):
        cfg = AnalysisConfig()
        assert cfg.q_grid[0] == -5 and cfg.q_grid[-1] == 5
        assert 0.0 in cfg.q_grid and 2.0 in cfg.q_grid
        assert cfg.scale_grid[0] == 20 and cfg.scale_grid[-1] == 316

    def test_scale_grid_unique_integers(self):
        grid = default_scale_grid()
        assert np.issubdtype(grid.dtype, np.integer)
        assert len(np.unique(grid)) == len(grid)

    @pytest.mark.parametrize("bounds", [(20, 316, 30), (4, 64, 10), (10, 1000, 50), (16, 16, 1)])
    def test_scale_grid_matches_np_unique(self, bounds):
        s_min, s_max, count = bounds
        rounded = np.round(np.exp(np.linspace(np.log(s_min), np.log(s_max), count))).astype(int)
        grid = default_scale_grid(*bounds)
        assert grid.dtype == rounded.dtype and np.array_equal(grid, np.unique(rounded))

    def test_q_grid_needs_4_points(self):
        with pytest.raises(ValueError, match="3 points, fewer than the 4 points"):
            AnalysisConfig(q_grid=np.array([0.0, 1.0, 2.0]))

    @pytest.mark.parametrize("step", [0.0, -0.25, float("nan")])
    def test_q_step_must_be_positive(self, step):
        with pytest.raises(ValueError, match="q step must be positive"):
            default_q_grid(q_step=step)

    def test_q_point_cap(self):
        assert len(default_q_grid(-5.0, 5.0, 10.0 / (MAX_Q_POINTS - 1))) == MAX_Q_POINTS
        with pytest.raises(ValueError, match=f"give {MAX_Q_POINTS + 1} points"):
            default_q_grid(-5.0, 5.0, 10.0 / MAX_Q_POINTS)

    @pytest.mark.parametrize("bounds", [(0, 316, 30), (20, -1, 30), (20, 316, 0)])
    def test_scale_bounds_and_count_must_be_positive(self, bounds):
        with pytest.raises(ValueError, match="must be positive"):
            default_scale_grid(*bounds)

    def test_scale_max_below_min_names_both_bounds(self):
        with pytest.raises(ValueError, match="scales 316..20: s max 20 is below s min 316"):
            default_scale_grid(316, 20)

    def test_scale_grid_short_of_count(self):
        with pytest.raises(ValueError, match="round to 8 distinct"):
            default_scale_grid(5, 12, 30)

    def test_q_grid_must_contain_0_and_2(self):
        with pytest.raises(ValueError):
            AnalysisConfig(q_grid=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            AnalysisConfig(q_grid=np.array([-1.0, 0.0, 1.0]))

    def test_scale_upper_bound_at_analysis_time(self):
        cfg = AnalysisConfig()
        with pytest.raises(ScaleTooLarge) as info:
            fluctuation_surface(Profile(np.arange(600.0) ** 1.3), cfg)
        # a data fault, so the CLI exits 3 wherever the rule fires
        assert isinstance(info.value, SeriesTooShort)


class TestMakeProfile:
    def test_cumulative_sum(self):
        np.testing.assert_allclose(make_profile(np.array([1.0, -1.0, 1.0])).values, [1, 0, 1])

    def test_all_zeros(self):
        np.testing.assert_allclose(make_profile(np.zeros(5)).values, np.zeros(5))

    def test_telescopes_to_log_prices(self):
        rng = np.random.default_rng(1)
        log_prices = np.cumsum(rng.normal(0, 0.01, 300)) + 5.0
        returns = np.diff(log_prices)
        profile = make_profile(returns)
        np.testing.assert_allclose(profile.values, log_prices[1:] - log_prices[0], rtol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_return_rejected(self, bad):
        returns = np.ones(10)
        returns[[3, 7]] = bad
        with pytest.raises(DataError, match="return 3 "):
            make_profile(returns)


def segments(n, s):
    return np.concatenate(list(_box_blocks(np.arange(n), s)))


def box_starts(n, s):
    return segments(n, s)[:, 0].tolist()


class TestPartition:
    def test_exact_division(self):
        assert box_starts(10, 5) == [0, 5]

    def test_both_ends(self):
        assert box_starts(10, 4) == [0, 4, 2, 6]

    def test_window_lengths_and_count(self):
        for n, s in [(100, 7), (64, 8), (1000, 33)]:
            boxes = segments(n, s)
            expected = n // s if n % s == 0 else 2 * (n // s)
            assert boxes.shape == (expected, s)
            # each box is a run of s consecutive points of the series
            assert np.all(np.diff(boxes, axis=1) == 1)


class TestDetrend:
    def test_exact_line(self):
        values = 3.0 * np.arange(50) - 7.0
        residuals = detrend_segment(values, 1)
        assert np.max(np.abs(residuals)) <= 1e-10 * np.linalg.norm(values)

    def test_parabola_orders(self):
        t = np.arange(40, dtype=float)
        values = 0.5 * t ** 2 - t + 2
        assert np.max(np.abs(detrend_segment(values, 2))) <= 1e-8 * np.linalg.norm(values)
        assert np.max(np.abs(detrend_segment(values, 1))) > 1.0

    def test_hand_least_squares(self):
        np.testing.assert_allclose(
            detrend_segment([0.0, 1.0, 0.0], 1), [-1 / 3, 2 / 3, -1 / 3], atol=1e-12
        )

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=80)
        residuals = detrend_segment(values, 2)
        t = np.arange(1, 81, dtype=float)
        norm = np.linalg.norm(values)
        for k in range(3):
            assert abs(np.dot(residuals, t ** k)) <= 1e-8 * norm * np.linalg.norm(t ** k)

    def test_underdetermined(self):
        with pytest.raises(Underdetermined):
            detrend_segment([1.0, 2.0], 1)

    @pytest.mark.parametrize("order", [1, 2])
    def test_basis_built_once_and_read_only(self, order):
        basis = _design_basis(37, order)
        assert _design_basis(37, order) is basis
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0

    @pytest.mark.parametrize("order", [1, 2])
    def test_input_left_unchanged(self, order):
        profile = np.cumsum(np.random.default_rng(4).normal(size=120))
        segment = profile[:40].copy()
        detrend_segment(segment, order)
        np.testing.assert_array_equal(segment, profile[:40])
        before = profile.copy()
        boxes = profile.reshape(3, 40)
        detrend_segment(boxes, order)
        np.testing.assert_array_equal(profile, before)


class TestLocalFluctuation:
    def test_values(self):
        assert local_fluctuation(np.zeros(6)) == 0.0
        assert local_fluctuation(np.ones(4)) == 1.0
        assert math.isclose(local_fluctuation([1.0, 2.0, 3.0]), math.sqrt(14 / 3), rel_tol=1e-12)

    @pytest.mark.parametrize("shape", [(57,), (1, 20), (3276, 20), (131, 500)])
    def test_np_mean_bits_and_input_unchanged(self, shape):
        residuals = np.random.default_rng(5).normal(size=shape)
        before = residuals.copy()
        expected = np.sqrt(np.mean(residuals ** 2, axis=-1))
        assert np.asarray(local_fluctuation(residuals)).tobytes() == expected.tobytes()
        np.testing.assert_array_equal(residuals, before)


class TestOverallFluctuation:
    def test_constant_locals(self):
        for q in (-3.0, -1.0, 0.0, 1.5, 4.0):
            assert math.isclose(overall_fluctuation([2.0, 2.0, 2.0], q), 2.0, rel_tol=1e-12)

    def test_geometric_mean(self):
        assert math.isclose(overall_fluctuation([1.0, math.e ** 2], 0.0), math.e, rel_tol=1e-12)

    def test_against_brute_force(self):
        locals_ = [1.0, 2.0, 4.0]
        for q in (2.0, -2.0):
            expected = brute_power_mean(locals_, q)
            assert math.isclose(overall_fluctuation(locals_, q), expected, rel_tol=1e-12)
        assert math.isclose(overall_fluctuation(locals_, 2.0), math.sqrt(7), rel_tol=1e-12)
        assert math.isclose(overall_fluctuation(locals_, -2.0), math.sqrt(48 / 21), rel_tol=1e-12)
        assert (overall_fluctuation(locals_, -2.0)
                <= overall_fluctuation(locals_, 0.0)
                <= overall_fluctuation(locals_, 2.0))

    def test_all_excluded(self):
        with pytest.raises(AllBoxesDegenerate):
            overall_fluctuation([1e-20, 1e-19], 1.0, floor=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=2, max_size=40),
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
    )
    @example(locals_=[1.0, 8.0], q1=0.0, q2=5e-324)  # subnormal q: dividing by it loses every digit
    def test_power_mean_monotone_in_q(self, locals_, q1, q2):
        lo, hi = sorted((q1, q2))
        assert overall_fluctuation(locals_, lo) <= overall_fluctuation(locals_, hi) * (1 + 1e-9)


def row_max_power_means(log_fv, q_grid):
    """_power_means as it was, with each row's peak taken over the whole
    (n_q, k) product: the reference the peak from the extremes must match."""
    q_grid = np.asarray(q_grid, dtype=float)
    zero_q = np.abs(q_grid) <= 1e-8
    scaled = q_grid[:, None] * log_fv[None, :]
    peak = scaled.max(axis=1)
    np.subtract(scaled, peak[:, None], out=scaled)
    log_means = np.log1p(np.expm1(scaled, out=scaled).mean(axis=1))
    means = np.exp((peak + log_means) / np.where(zero_q, 1.0, q_grid))
    means[zero_q] = np.exp(np.mean(log_fv))
    return means


class TestPowerMeanPeak:
    GRIDS = [default_q_grid(), default_q_grid(-5, -0.5, 0.5), default_q_grid(0, 5, 0.5),
             np.array([-3.0, -5e-324, 0.0, 5e-324, 1e-9, 2.0]), np.array([-0.0, 1.0, 2.0, 7.5])]

    @pytest.mark.parametrize("q_grid", GRIDS, ids=["default", "negative", "positive",
                                                   "subnormal", "negative_zero"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_row_max(self, q_grid, seed):
        rng = np.random.default_rng(seed)
        for fv in (rng.lognormal(0, 2, 5_000), rng.uniform(0.5, 2.0, 3), np.full(4, 1.0),
                   np.exp(rng.normal(0, 100, 64))):
            log_fv = np.log(fv)
            assert mfdfa._power_means(log_fv, q_grid).tobytes() == \
                row_max_power_means(log_fv, q_grid).tobytes()

    @given(st.lists(st.floats(-700, 700), min_size=1, max_size=30),
           st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_row_max_anywhere(self, log_fv, q_grid):
        log_fv, q_grid = np.array(log_fv), np.array(q_grid)
        with np.errstate(over="ignore", invalid="ignore"):
            new = mfdfa._power_means(log_fv, q_grid)
            old = row_max_power_means(log_fv, q_grid)
        assert new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("q", [-2.0, -0.5, 0.0, 1e-9, 0.5, 2.0, 5.0])
    def test_zero_fluctuation_without_a_floor(self, q):
        # log 0 is -inf: the peak is -inf's product for q < 0 and the
        # largest finite one for q > 0, as the row max gives it
        fv = np.array([0.0, 0.25, 1.0, 3.0])
        with np.errstate(divide="ignore", invalid="ignore"):
            new = overall_fluctuation(fv, q, floor=0)
            old = float(row_max_power_means(np.log(fv), [q])[0])
        assert np.float64(new).tobytes() == np.float64(old).tobytes()


def one_block_power_means(log_fv, q_grid):
    """_power_means with every q row's products in one (n_q, k) block: the
    reference the blocks of q rows must match bit for bit."""
    q_grid = np.asarray(q_grid, dtype=float)
    zero_q = np.abs(q_grid) <= 1e-8
    scaled = q_grid[:, None] * log_fv[None, :]
    peak = q_grid * np.where(q_grid >= 0, log_fv.max(), log_fv.min())
    np.subtract(scaled, peak[:, None], out=scaled)
    log_means = np.log1p(np.expm1(scaled, out=scaled).mean(axis=1))
    means = np.exp((peak + log_means) / np.where(zero_q, 1.0, q_grid))
    means[zero_q] = np.exp(np.mean(log_fv))
    return means


class TestPowerMeanBlocks:
    GRIDS = {4: np.array([-2.0, 0.0, 2.0, 5.0]), 41: default_q_grid(),
             1001: default_q_grid(-5, 5, 0.01)}

    # a block holds at most 2^17 cells: 32 rows of 4,096 boxes, 5 of 26,214
    @pytest.mark.parametrize("boxes", [1, 2, 1000, 4096, 4097, 26_214])
    @pytest.mark.parametrize("points", [4, 41, 1001])
    def test_matches_one_block(self, points, boxes):
        log_fv = np.log(np.random.default_rng(boxes).lognormal(0, 2, boxes))
        q_grid = self.GRIDS[points]
        assert mfdfa._power_means(log_fv, q_grid).tobytes() == \
            one_block_power_means(log_fv, q_grid).tobytes()

    def test_long_surface_keeps_its_temporaries_small(self):
        # 2^18 values and 1,001 q points: one block of (q, box) products at
        # s = 20 (26,214 boxes) would take 210 MB
        profile = make_profile(gaussian_white_noise(2 ** 18, 17))
        cfg = AnalysisConfig(q_grid=self.GRIDS[1001], scale_grid=np.array([20, 80, 316]))
        fluctuation_surface(profile, cfg)  # builds the cached fit bases first
        tracemalloc.start()
        try:
            fluctuation_surface(profile, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestSurface:
    def test_perfect_line_degenerate(self):
        cfg = AnalysisConfig()
        with pytest.raises(AllBoxesDegenerate):
            fluctuation_surface(Profile(2.0 * np.arange(4096.0) + 1.0), cfg)

    def test_flat_profile_rejected(self):
        # a profile with no spread puts the degeneracy floor at 0, so the
        # surface would be built from rounding noise
        with pytest.raises(DegenerateSeries, match="every return is zero"):
            analyze_returns(np.r_[1.0, np.zeros(4095)], AnalysisConfig())

    def test_white_noise_profile_slope_half(self):
        cfg = AnalysisConfig()
        profile = make_profile(gaussian_white_noise(2 ** 14, 42))
        surface = fluctuation_surface(profile, cfg)
        H, _, _ = hurst_spectrum(surface)
        i2 = int(np.argmin(np.abs(cfg.q_grid - 2)))
        assert abs(H[i2] - 0.5) <= 0.05

    def test_monotone_in_q_per_scale(self):
        cfg = AnalysisConfig()
        surface = fluctuation_surface(make_profile(gaussian_white_noise(4096, 5)), cfg)
        assert np.all(surface.excluded == 0)
        assert np.all(np.diff(surface.F, axis=0) >= -1e-12 * surface.F[:-1])

    def test_detrend_orders_agree_on_scaling_exponent(self):
        # a higher detrend order shifts the level of F(s) downward but must
        # leave the scaling exponent unchanged for positive moments
        noise = gaussian_white_noise(2 ** 14, 9)
        cfg = AnalysisConfig()
        h1 = analyze_returns(noise, AnalysisConfig(detrend_order=1)).H
        h2 = analyze_returns(noise, AnalysisConfig(detrend_order=2)).H
        positive = cfg.q_grid > 0
        assert np.max(np.abs(h1[positive] - h2[positive])) <= 0.10

    def test_translation_invariance(self):
        cfg = AnalysisConfig()
        profile = make_profile(gaussian_white_noise(4096, 7))
        base = fluctuation_surface(profile, cfg)
        shifted = fluctuation_surface(Profile(profile.values + 123.456), cfg)
        np.testing.assert_allclose(shifted.F, base.F, rtol=1e-10)

    def test_scaling_covariance(self):
        cfg = AnalysisConfig()
        profile = make_profile(gaussian_white_noise(4096, 8))
        base = analyze_profile(profile, cfg)
        base_surface = fluctuation_surface(profile, cfg)
        scaled_surface = fluctuation_surface(Profile(3.5 * profile.values), cfg)
        scaled = analyze_profile(Profile(3.5 * profile.values), cfg)
        np.testing.assert_allclose(scaled_surface.F, 3.5 * base_surface.F, rtol=1e-10)
        np.testing.assert_allclose(scaled.H, base.H, atol=1e-10)
        np.testing.assert_allclose(scaled.tau, base.tau, atol=1e-10)
        np.testing.assert_allclose(scaled.alpha, base.alpha, atol=1e-9)
        np.testing.assert_allclose(scaled.f, base.f, atol=1e-9)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("n", [1000, 997])
    def test_matches_per_box_brute_force(self, order, n):
        # explicit windows and np.polyfit per box; the scale grid mixes
        # divisors of 1000 with non-divisors
        cfg = AnalysisConfig(scale_grid=np.array([5, 8, 13, 20, 50, 125, 200]),
                             detrend_order=order)
        profile = make_profile(gaussian_white_noise(n, 11))
        surface = fluctuation_surface(profile, cfg)
        assert np.all(surface.excluded == 0)
        for j, s in enumerate(cfg.scale_grid):
            starts = [v * s for v in range(n // s)]
            if n % s:
                starts += [n - (v + 1) * s for v in range(n // s)]
            t = np.arange(s, dtype=float)
            fv = []
            for a in starts:
                box = profile.values[a:a + s]
                trend = np.polyval(np.polyfit(t, box, order), t)
                fv.append(np.sqrt(np.mean((box - trend) ** 2)))
            expected = [brute_power_mean(fv, q) for q in cfg.q_grid]
            np.testing.assert_allclose(surface.F[:, j], expected, rtol=1e-9)

    def test_determinism_bit_identical(self):
        cfg = AnalysisConfig()
        profile = make_profile(gaussian_white_noise(4096, 10))
        a = fluctuation_surface(profile, cfg)
        b = fluctuation_surface(profile, cfg)
        assert np.array_equal(a.F, b.F)


class TestBoxBlocks:
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("s", [20, 57, 316])
    def test_box_fluctuation_independent_of_series_length(self, order, s):
        # a box's fluctuation is a function of its block's values only, so
        # the first block of a long series matches, bit for bit, a prefix that
        # is that block. (A shorter prefix may not: BLAS fits the last partial
        # tile of a block's rows with another kernel, which moves last bits.)
        values = make_profile(gaussian_white_noise(2 ** 18, 14)).values
        rows = BOX_BLOCK // s
        whole = _box_fluctuations(values, s, order)[:rows]
        prefix = _box_fluctuations(values[:rows * s], s, order)
        assert len(prefix) == rows
        assert np.array_equal(whole, prefix)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("s", [20, 57, 316, 256])
    def test_matches_the_concatenated_boxes(self, order, s):
        # the boxes fitted as views of the profile give, bit for bit, the
        # fluctuations of both passes copied into one array and then blocked.
        # At 2^18 the block that straddles the passes holds rows of both for
        # s = 20, 57 and 316; 256 divides 2^18, so it has no backward pass.
        values = make_profile(gaussian_white_noise(2 ** 18, 14)).values
        n_boxes, rows = len(values) // s, BOX_BLOCK // s
        forward = values[:n_boxes * s].reshape(n_boxes, s)
        segments = np.concatenate([forward, values[-n_boxes * s:].reshape(n_boxes, s)])
        if 2 ** 18 % s == 0:
            segments = forward
        else:
            assert n_boxes % rows
        concatenated = np.concatenate([local_fluctuation(detrend_segment(segments[i:i + rows], order))
                                       for i in range(0, len(segments), rows)])
        assert _box_fluctuations(values, s, order).tobytes() == concatenated.tobytes()
        copies = [block for block in _box_blocks(values, s) if not np.shares_memory(block, values)]
        assert len(copies) == (0 if 2 ** 18 % s == 0 else 1)

    @pytest.mark.parametrize("s", [20, 32, 316])
    def test_series_of_32768_fits_each_scale_in_one_block(self, s):
        assert len(list(_box_blocks(np.arange(2 ** 15, dtype=float), s))) == 1

    @pytest.mark.parametrize("n, one_per_scale", [(2 ** 18, False), (2 ** 14, True)])
    def test_every_fit_within_one_block(self, monkeypatch, n, one_per_scale):
        sizes = []
        detrend = mfdfa.detrend_segment

        def recording(values, order):
            sizes.append(np.size(values))
            return detrend(values, order)

        monkeypatch.setattr(mfdfa, "detrend_segment", recording)
        cfg = AnalysisConfig(detrend_order=2)
        fluctuation_surface(make_profile(gaussian_white_noise(n, 15)), cfg)
        assert max(sizes) <= BOX_BLOCK
        assert (len(sizes) == len(cfg.scale_grid)) is one_per_scale

    def test_blocks_keep_box_order(self, monkeypatch):
        # one-row and several-row blocks give the surface of a single block
        cfg = AnalysisConfig(scale_grid=np.array([5, 8, 13, 20, 50, 125, 200]))
        profile = make_profile(gaussian_white_noise(997, 16))
        whole = fluctuation_surface(profile, cfg)
        monkeypatch.setattr(mfdfa, "BOX_BLOCK", 64)
        blocked = fluctuation_surface(profile, cfg)
        np.testing.assert_allclose(blocked.F, whole.F, rtol=1e-12)
        np.testing.assert_array_equal(blocked.excluded, whole.excluded)


@st.composite
def analysis_cases(draw):
    """Small valid runs: i.i.d. normal returns, a detrend order, a q grid
    holding 0 and 2, and at least 3 scales between order + 2 and N/4."""
    n = draw(st.integers(128, 1024))
    order = draw(st.sampled_from([1, 2]))
    scales = draw(st.lists(st.integers(order + 2, n // 4), min_size=3, max_size=8,
                           unique=True))
    q_grid = default_q_grid(draw(st.integers(-5, -1)), draw(st.integers(2, 5)),
                            draw(st.sampled_from([0.25, 0.5, 1.0])))
    cfg = AnalysisConfig(q_grid=q_grid, scale_grid=np.array(sorted(scales)),
                         detrend_order=order)
    returns = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).normal(size=n)
    return returns, cfg


class TestSurfaceProperties:
    @settings(max_examples=40, deadline=None)
    @given(analysis_cases(), st.floats(1e-3, 1e3), st.booleans())
    def test_scaling_returns_scales_f(self, case, c, negate):
        returns, cfg = case
        c = -c if negate else c
        base = fluctuation_surface(make_profile(returns), cfg)
        scaled = fluctuation_surface(make_profile(c * returns), cfg)
        np.testing.assert_allclose(scaled.F, abs(c) * base.F, rtol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(analysis_cases(), st.floats(-10, 10))
    def test_constant_drift_leaves_f_unchanged(self, case, drift):
        # a constant added to the returns is a line in the profile, which
        # detrending of order >= 1 removes up to rounding
        returns, cfg = case
        base = fluctuation_surface(make_profile(returns), cfg)
        drifted = fluctuation_surface(make_profile(returns + drift), cfg)
        np.testing.assert_allclose(drifted.F, base.F, rtol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(analysis_cases())
    def test_legendre_identity_exact(self, case):
        returns, cfg = case
        spec = analyze_returns(returns, cfg)
        assert np.array_equal(spec.f, cfg.q_grid * spec.alpha - spec.tau)


class TestHurstSpectrum:
    def test_exact_power_law(self):
        cfg = AnalysisConfig()
        F = np.tile(3.0 * cfg.scale_grid.astype(float) ** 0.7, (len(cfg.q_grid), 1))
        surface = FluctuationSurface(F, cfg.q_grid, cfg.scale_grid, np.zeros_like(F, dtype=int))
        H, stderr, r2 = hurst_spectrum(surface)
        np.testing.assert_allclose(H, 0.7, atol=1e-12)
        np.testing.assert_allclose(stderr, 0.0, atol=1e-10)
        np.testing.assert_allclose(r2, 1.0, atol=1e-12)


class TestSpectrumFunctions:
    def test_mass_exponents(self):
        q = default_q_grid()
        tau = mass_exponents(q, np.full_like(q, 0.5))
        np.testing.assert_allclose(tau, 0.5 * q - 1.0)
        assert tau[np.argmin(np.abs(q - 2))] == pytest.approx(0.0, abs=1e-14)
        assert tau[np.argmin(np.abs(q))] == -1.0

    def test_monofractal_tau(self):
        q = default_q_grid()
        alpha, f, d_alpha, d_f = singularity_spectrum(q, 0.5 * q - 1.0)
        np.testing.assert_allclose(alpha, 0.5, atol=1e-12)
        np.testing.assert_allclose(f, 1.0, atol=1e-12)
        assert d_alpha == pytest.approx(0.0, abs=1e-12)
        assert d_f == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_tau_exact_interior(self):
        q = default_q_grid()
        tau = -1.0 + 0.6 * q - 0.01 * q ** 2
        alpha, f, d_alpha, _ = singularity_spectrum(q, tau)
        np.testing.assert_allclose(alpha[1:-1], 0.6 - 0.02 * q[1:-1], atol=1e-12)
        # one-sided endpoint derivatives of a quadratic give
        # 0.6 - 0.01 (q0 + q1) at each end: width 0.195 on this grid
        assert d_alpha == pytest.approx(0.195, abs=1e-12)

    def test_grid_too_small(self):
        with pytest.raises(GridTooSmall):
            singularity_spectrum(np.array([0.0, 2.0]), np.array([-1.0, 0.0]))

    def test_structural_identities_on_noise(self):
        cfg = AnalysisConfig()
        spec = analyze_returns(gaussian_white_noise(4096, 21), cfg)
        i0 = int(np.argmin(np.abs(cfg.q_grid)))
        assert spec.tau[i0] == -1.0
        assert spec.f[i0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(spec.f, cfg.q_grid * spec.alpha - spec.tau, atol=1e-12)
