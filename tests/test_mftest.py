import dataclasses

import numpy as np
import pytest
from scipy import stats as sps

from multifract.cli import surrogate_spectra
from multifract.errors import GridMismatch, RankDeficient
from multifract.mfdfa import (
    AnalysisConfig,
    MultifractalSpectrum,
    analyze_returns,
    default_q_grid,
    mass_exponents,
    singularity_spectrum,
)
from multifract.mftest import (
    VERDICT_APPARENT,
    VERDICT_INTRINSIC,
    VERDICT_NONE,
    _f2_tail,
    _t_tail,
    ensemble_statistics,
    format_report,
    quadratic_tau_fit,
    shape_diagnostics,
    spectrum_difference_test,
    verdict,
    width_test,
)
from multifract.synth import cascade_analytic_hq, gaussian_white_noise


def spectrum_from_hurst(q_grid, H):
    """Assemble a full spectrum object from a generalized Hurst curve."""
    tau = mass_exponents(q_grid, H)
    alpha, f, d_alpha, d_f = singularity_spectrum(q_grid, tau)
    zeros = np.zeros_like(q_grid)
    return MultifractalSpectrum(
        q_grid, np.asarray(H, dtype=float), zeros, zeros + 1.0,
        tau, alpha, f, d_alpha, d_f,
    )


def brute_force_quadratic(q, tau):
    """Independent normal-equations solve with Cramer's rule and direct
    textbook formulas for the regression diagnostics."""
    q = np.asarray(q, dtype=float)
    tau = np.asarray(tau, dtype=float)
    n = len(q)
    cols = [np.ones(n), q, q * q]
    A = np.array([[np.dot(a, b) for b in cols] for a in cols])
    rhs = np.array([np.dot(a, tau) for a in cols])
    det = np.linalg.det(A)
    coef = np.array([
        np.linalg.det(np.column_stack([rhs if j == i else A[:, j] for j in range(3)])) / det
        for i in range(3)
    ])
    resid = tau - (coef[0] + coef[1] * q + coef[2] * q * q)
    df = n - 3
    sigma2 = np.dot(resid, resid) / df
    cov = sigma2 * np.linalg.inv(A)
    stderr = np.sqrt(np.diag(cov))
    t_stats = coef / stderr
    p_values = 2 * sps.t.sf(np.abs(t_stats), df)
    ss_res = np.dot(resid, resid)
    ss_tot = np.dot(tau - tau.mean(), tau - tau.mean())
    r2 = 1 - ss_res / ss_tot
    f_stat = ((ss_tot - ss_res) / 2) / sigma2
    model_p = sps.f.sf(f_stat, 2, df)
    return coef, stderr, t_stats, p_values, f_stat, model_p, r2


class TestEnsembleStatistics:
    def make_pair(self, h_a, h_b):
        q = default_q_grid()
        return [
            spectrum_from_hurst(q, np.full_like(q, h_a)),
            spectrum_from_hurst(q, np.full_like(q, h_b)),
        ]

    def test_identical_spectra(self):
        q = default_q_grid()
        spec = spectrum_from_hurst(q, cascade_analytic_hq(0.3, q))
        stats = ensemble_statistics([spec, spec])
        np.testing.assert_array_equal(stats.H_mean, spec.H)
        np.testing.assert_array_equal(stats.H_std, np.zeros_like(q))
        np.testing.assert_array_equal(stats.tau_mean, spec.tau)

    def test_two_point_sample(self):
        stats = ensemble_statistics(self.make_pair(0.4, 0.6))
        np.testing.assert_allclose(stats.H_mean, 0.5)
        np.testing.assert_allclose(stats.H_std, 0.141421, atol=1e-6)
        assert len(stats.delta_alpha_samples) == 2

    def test_grid_mismatch(self):
        q1 = default_q_grid()
        q2 = default_q_grid(q_step=0.5)
        a = spectrum_from_hurst(q1, np.full_like(q1, 0.5))
        b = spectrum_from_hurst(q2, np.full_like(q2, 0.5))
        with pytest.raises(GridMismatch):
            ensemble_statistics([a, b])

    def test_too_few(self):
        q = default_q_grid()
        with pytest.raises(GridMismatch):
            ensemble_statistics([spectrum_from_hurst(q, np.full_like(q, 0.5))])


class TestQuadraticTauFit:
    def test_exact_recovery(self):
        q = default_q_grid()
        tau = -1.0 + 0.6 * q - 0.01 * q * q
        fit = quadratic_tau_fit(q, tau)
        np.testing.assert_allclose(fit.coefficients, [-1.0, 0.6, -0.01], atol=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.f_stat > 1e15  # residuals at float rounding level
        assert fit.model_p_value == 0.0
        assert fit.df_resid == len(q) - 3

    def test_linear_tau_with_tiny_noise(self):
        q = default_q_grid()
        rng = np.random.default_rng(0)
        tau = -1.0 + 0.5 * q + 1e-12 * rng.standard_normal(len(q))
        fit = quadratic_tau_fit(q, tau)
        # the curvature term is statistically indistinguishable from zero
        # while the slope is overwhelmingly significant
        assert abs(fit.t_stats[2]) < 0.01 * abs(fit.t_stats[1])
        assert fit.p_values[2] > 0.05
        assert fit.p_values[1] < 1e-10

    def test_matches_brute_force_on_random_grids(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = rng.integers(8, 60)
            q = np.sort(rng.uniform(-6, 6, n))
            coef_true = rng.uniform(-1, 1, 3)
            tau = coef_true[0] + coef_true[1] * q + coef_true[2] * q * q
            tau = tau + rng.normal(0, 0.05, n)
            fit = quadratic_tau_fit(q, tau)
            coef, stderr, t, p, f_stat, model_p, r2 = brute_force_quadratic(q, tau)
            np.testing.assert_allclose(fit.coefficients, coef, atol=1e-10)
            np.testing.assert_allclose(fit.stderr, stderr, atol=1e-10)
            np.testing.assert_allclose(fit.t_stats, t, atol=1e-8)
            np.testing.assert_allclose(fit.p_values, p, atol=1e-10)
            assert fit.f_stat == pytest.approx(f_stat, abs=1e-8 * max(1.0, f_stat))
            assert fit.model_p_value == pytest.approx(model_p, abs=1e-10)
            assert fit.r_squared == pytest.approx(r2, abs=1e-10)

    def test_p_values_match_scipy_stats(self):
        # the fit's own t and F tails agree with scipy.stats' to 1e-12
        # relative; a t-statistic of exactly 0 gives p = 1 exactly
        rng = np.random.default_rng(7)
        q = np.arange(-2.0, 3.0)
        fits = [quadratic_tau_fit(q, q * q)]  # linear coefficient exactly 0
        for _ in range(50):
            grid = np.sort(rng.uniform(-6, 6, rng.integers(5, 60)))
            fits.append(quadratic_tau_fit(grid, rng.normal(0, 1, len(grid))))
        assert any(np.any(fit.t_stats == 0.0) for fit in fits)
        for fit in fits:
            expected = 2.0 * sps.t.sf(np.abs(fit.t_stats), fit.df_resid)
            np.testing.assert_allclose(fit.p_values, expected, rtol=1e-12, atol=0)
            assert (fit.p_values[fit.t_stats == 0.0] == 1.0).all()
            assert fit.model_p_value == pytest.approx(
                sps.f.sf(fit.f_stat, 2, fit.df_resid), rel=1e-12, abs=0)
        # every df a grid of up to 1001 q points gives, |t| from 1e-3 to 1e8
        t = np.logspace(-3, 8, 45)
        for df in range(1, 1001):
            expected = 2.0 * sps.t.sf(t, df)
            normal = expected >= np.finfo(float).tiny
            got = np.array([_t_tail(v, df) for v in t[normal].tolist()])
            np.testing.assert_allclose(got, expected[normal], rtol=1e-12, atol=0,
                                       err_msg=f"df = {df}")
        f = np.logspace(-6, 6, 25)
        for df in (1, 2, 3, 10, 38, 101, 998):
            got = np.array([_f2_tail(v, df) for v in f.tolist()])
            np.testing.assert_allclose(got, sps.f.sf(f, 2, df), rtol=1e-12, atol=0)

    def test_tails_equal_closed_forms(self):
        # all of |t| from 1e-300 to 1e150, below 1e-3 too, where scipy's
        # stdtr is itself off by up to 3e-9
        t = np.concatenate([[0.0], np.logspace(-300, 150, 451)])
        for v in t.tolist():
            root = np.sqrt(2.0 + v * v)
            for df, expected in ((1, 2 / np.pi * np.arctan2(1.0, v)),
                                 (2, 2 / (root * (root + v)))):
                assert _t_tail(v, df) == _t_tail(-v, df)
                assert _t_tail(v, df) == pytest.approx(expected, rel=1e-12, abs=0), (v, df)
        for df in (1, 2, 5, 38, 998):
            for v in np.logspace(-300, 300, 61).tolist():
                expected = (1 + 2 * v / df) ** (-df / 2)
                assert _f2_tail(v, df) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_tail_functions_at_limits(self):
        for df in (1, 5, 38, 998):
            assert _t_tail(0.0, df) == 1.0
            assert _t_tail(-0.0, df) == 1.0
            assert _t_tail(np.inf, df) == _t_tail(-np.inf, df) == 0.0
            assert np.isnan(_t_tail(np.nan, df))
            # below the support the F tail is 1, as scipy.stats gives it
            assert _f2_tail(0.0, df) == _f2_tail(-1e-12, df) == 1.0
            assert _f2_tail(np.inf, df) == 0.0
            assert _f2_tail(1e30, df) == pytest.approx(
                sps.f.sf(1e30, 2, df), rel=1e-12, abs=0)

    def test_constant_tau(self):
        # H = 0 everywhere: ss_tot is 0 while rounding leaves ss_res > 0
        fit = quadratic_tau_fit(default_q_grid(), np.full(41, -1.0))
        assert fit.r_squared == 1.0
        np.testing.assert_allclose(fit.coefficients, [-1.0, 0.0, 0.0], atol=1e-12)

    def test_too_few_points(self):
        with pytest.raises(RankDeficient):
            quadratic_tau_fit([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])

    def test_collinear_design(self):
        with pytest.raises(RankDeficient):
            quadratic_tau_fit(np.ones(10), np.arange(10.0))


class TestEmpiricalPValues:
    def make_stats(self, widths, diffs=None):
        q = default_q_grid()
        specs = []
        for w in widths:
            # spread the Hurst curve so delta_alpha equals w exactly:
            # alpha = H + q dH/dq for linear H(q) = h0 + c q gives
            # alpha = h0 + 2 c q, so delta_alpha = 2 c (q_min - q_max)
            c = w / (2 * (q[0] - q[-1]))
            specs.append(spectrum_from_hurst(q, 0.5 + c * q))
        stats = ensemble_statistics(specs)
        if diffs is not None:
            stats = dataclasses.replace(stats, delta_f_samples=np.asarray(diffs, float))
        return stats

    def test_width_above_all(self):
        stats = self.make_stats([0.1, 0.2, 0.3, 0.4])
        assert width_test(0.5, stats) == 0.0

    def test_width_below_all(self):
        stats = self.make_stats([0.1, 0.2, 0.3, 0.4])
        assert width_test(0.05, stats) == 1.0

    def test_width_ties_non_exceeding(self):
        stats = self.make_stats([0.1, 0.2, 0.3, 0.4])
        assert width_test(stats.delta_alpha_samples[1], stats) == pytest.approx(0.5)

    def test_p_times_n_is_integer(self):
        rng = np.random.default_rng(1)
        stats = self.make_stats(rng.uniform(0.05, 0.5, 37))
        for observed in rng.uniform(0.0, 0.6, 20):
            p = width_test(observed, stats)
            assert p * 37 == pytest.approx(round(p * 37), abs=1e-12)
            assert 0.0 <= p <= 1.0

    def test_spectrum_difference_extremes(self):
        stats = self.make_stats([0.1, 0.2], diffs=[0.05, 0.15])
        assert spectrum_difference_test(0.2, stats) == 0.0
        assert spectrum_difference_test(0.0, stats) == 1.0


class TestShapeDiagnostics:
    def test_monofractal_flat(self):
        q = default_q_grid()
        flags = shape_diagnostics(spectrum_from_hurst(q, np.full_like(q, 0.5)))
        assert flags.h_monotone and flags.bell_shaped and not flags.knot

    def test_strict_quadratic_tau(self):
        q = default_q_grid()
        flags = shape_diagnostics(spectrum_from_hurst(q, 0.6 - 0.01 * q))
        assert flags.h_monotone and flags.bell_shaped and not flags.knot

    def test_knotted_spectrum(self):
        q = default_q_grid()
        # H rising then falling produces an alpha direction change
        flags = shape_diagnostics(spectrum_from_hurst(q, 0.6 + 0.01 * q * np.exp(-q * q)))
        assert flags.knot
        assert not flags.bell_shaped

    def test_increasing_h_not_monotone(self):
        q = default_q_grid()
        flags = shape_diagnostics(spectrum_from_hurst(q, 0.5 + 0.02 * q))
        assert not flags.h_monotone


class TestVerdict:
    def multifractal_spectrum(self):
        q = default_q_grid()
        return spectrum_from_hurst(q, cascade_analytic_hq(0.3, q))

    def narrow_stats(self, spectrum, offset=-0.5):
        # ensemble concentrated below (or above) the observed width
        q = spectrum.q_grid
        widths = spectrum.delta_alpha + offset + 0.001 * np.arange(10)
        specs = []
        for w in widths:
            c = w / (2 * (q[0] - q[-1]))
            specs.append(spectrum_from_hurst(q, 0.5 + c * q))
        return ensemble_statistics(specs)

    def test_intrinsic(self):
        spec = self.multifractal_spectrum()
        report = verdict("cascade", 1, spec, self.narrow_stats(spec, offset=-0.5))
        assert report.verdict == VERDICT_INTRINSIC
        assert report.p_value_width < 0.05
        assert report.quad_fit.coefficients[2] < 0

    def test_apparent_when_width_not_rejected(self):
        spec = self.multifractal_spectrum()
        report = verdict("cascade", 1, spec, self.narrow_stats(spec, offset=+0.5))
        assert report.verdict == VERDICT_APPARENT
        assert report.p_value_width >= 0.05

    def test_none_when_shape_fails(self):
        q = default_q_grid()
        spec = spectrum_from_hurst(q, 0.5 + 0.02 * q)  # H increasing
        report = verdict("noise", 1, spec, self.narrow_stats(spec, offset=-0.5))
        assert report.verdict == VERDICT_NONE

    def test_pure_function(self):
        spec = self.multifractal_spectrum()
        stats = self.narrow_stats(spec)
        a = verdict("x", 1, spec, stats)
        b = verdict("x", 1, spec, stats)
        assert a.verdict == b.verdict
        assert a.p_value_width == b.p_value_width

    def test_report_serialization(self):
        spec = self.multifractal_spectrum()
        report = verdict("cascade", 2, spec, self.narrow_stats(spec))
        doc = report.to_dict()
        assert doc["label"] == "cascade"
        assert doc["detrend_order"] == 2
        assert 0.0 <= doc["width_test"]["p_value"] <= 1.0
        assert doc["verdict"] == report.verdict
        text = format_report(report)
        assert "Verdict:" in text and "Width test" in text


@pytest.fixture(scope="module")
def noise_ensemble_stats():
    cfg = AnalysisConfig()
    x = gaussian_white_noise(4096, 99)
    spectra = surrogate_spectra(x, 100, 17, cfg)
    return cfg, analyze_returns(x, cfg), ensemble_statistics(spectra)


class TestWhiteNoiseEnsembleProperties:
    def test_sigma_h2_near_minimum(self, noise_ensemble_stats):
        cfg, _, stats = noise_ensemble_stats
        i2 = int(np.argmin(np.abs(cfg.q_grid - 2.0)))
        # sigma_H(q) attains its smallest values around q = 2
        assert stats.H_std[i2] <= 1.25 * stats.H_std.min()
        assert abs(cfg.q_grid[int(np.argmin(stats.H_std))] - 2.0) <= 1.0

    def test_h2_band(self, noise_ensemble_stats):
        cfg, spec, stats = noise_ensemble_stats
        i2 = int(np.argmin(np.abs(cfg.q_grid - 2.0)))
        assert abs(spec.H[i2] - stats.H_mean[i2]) <= 3.0 * stats.H_std[i2]
