import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multifract.errors import (
    AllBoxesDegenerate,
    DataError,
    GridTooSmall,
    ScaleTooLarge,
    SeriesTooShort,
    Underdetermined,
)
from multifract.mfdfa import (
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
    overall_fluctuation,
    partition_segments,
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


class TestPartition:
    def test_exact_division(self):
        assert partition_segments(10, 5) == [(0, 5), (5, 10)]

    def test_both_ends(self):
        assert partition_segments(10, 4) == [(0, 4), (4, 8), (2, 6), (6, 10)]

    def test_scale_too_large(self):
        with pytest.raises(ScaleTooLarge):
            partition_segments(3, 5)

    def test_window_lengths_and_count(self):
        for n, s in [(100, 7), (64, 8), (1000, 33)]:
            windows = partition_segments(n, s)
            expected = n // s if n % s == 0 else 2 * (n // s)
            assert len(windows) == expected
            assert all(b - a == s for a, b in windows)


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


class TestLocalFluctuation:
    def test_values(self):
        assert local_fluctuation(np.zeros(6)) == 0.0
        assert local_fluctuation(np.ones(4)) == 1.0
        assert math.isclose(local_fluctuation([1.0, 2.0, 3.0]), math.sqrt(14 / 3), rel_tol=1e-12)


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


class TestSurface:
    def test_perfect_line_degenerate(self):
        cfg = AnalysisConfig()
        with pytest.raises(AllBoxesDegenerate):
            fluctuation_surface(Profile(2.0 * np.arange(4096.0) + 1.0), cfg)

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


class TestHurstSpectrum:
    def test_exact_power_law(self):
        cfg = AnalysisConfig()
        F = np.tile(3.0 * cfg.scale_grid.astype(float) ** 0.7, (len(cfg.q_grid), 1))
        surface = FluctuationSurface(F, cfg.q_grid, cfg.scale_grid, 1, np.zeros_like(F, dtype=int))
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
