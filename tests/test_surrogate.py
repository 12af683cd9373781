import hashlib

import numpy as np
import pytest

from multifract.cli import ensemble_spectra
from multifract.errors import ConstantSeries, LengthTooShort
from multifract.surrogate import IaaftConfig, derive_seed, iaaft
from multifract.synth import fbm, FbmSpec, gaussian_white_noise


def spectrum_residual(surrogate, source):
    a = np.abs(np.fft.rfft(surrogate))
    b = np.abs(np.fft.rfft(source))
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestIaaft:
    def test_two_valued_series_value_preservation(self):
        x = np.tile([1.0, 2.0], 8)
        result = iaaft(x, IaaftConfig(rng_seed=5))
        values, counts = np.unique(result.values, return_counts=True)
        np.testing.assert_array_equal(values, [1.0, 2.0])
        np.testing.assert_array_equal(counts, [8, 8])

    def test_sorted_values_bit_exact(self):
        x = gaussian_white_noise(4096, 1)
        result = iaaft(x, IaaftConfig(rng_seed=2))
        assert np.array_equal(np.sort(result.values), np.sort(x))

    def test_gaussian_noise_spectrum_residual(self):
        # rank fixed point of Gaussian noise sits near 1e-3 relative;
        # the independently computed residual must match the reported one
        x = gaussian_white_noise(4096, 3)
        result = iaaft(x, IaaftConfig(rng_seed=4))
        direct = spectrum_residual(result.values, x)
        assert direct == pytest.approx(result.spectrum_residual, rel=1e-12)
        assert direct <= 5e-3

    def test_sinusoid_fixed_point(self):
        t = np.arange(4096)
        x = np.sin(2 * np.pi * 8 * t / 4096)
        result = iaaft(x, IaaftConfig(rng_seed=6))
        assert result.stop_reason == "fixed_point"
        assert result.iterations <= 5
        assert result.spectrum_residual <= 1e-8
        assert spectrum_residual(result.values, x) <= 1e-8

    def test_mean_and_variance_exact(self):
        x = gaussian_white_noise(1024, 7)
        result = iaaft(x, IaaftConfig(rng_seed=8))
        assert np.sort(result.values).tobytes() == np.sort(x).tobytes()
        assert result.values.mean() == pytest.approx(x.mean(), rel=1e-12)
        assert result.values.var() == pytest.approx(x.var(), rel=1e-12)

    def test_stop_rules_have_no_knob(self):
        with pytest.raises(TypeError):
            IaaftConfig(spectrum_tolerance=1e-3)

    def test_lone_spike_is_fixed_point(self):
        # any shifted spike has the source spectrum: the first rank-adjusted
        # iterate is a fixed point, with the values the tolerance knob gave
        x = np.zeros(64)
        x[5] = 1.0
        result = iaaft(x, IaaftConfig(rng_seed=3))
        assert hashlib.sha256(result.values.tobytes()).hexdigest() == (
            "d7e60215eca966ba1f445a31bd4e381726563db4e7c634481a941b2ebe3bcbe2")
        assert (result.iterations, result.stop_reason) == (1, "fixed_point")
        assert repr(result.spectrum_residual) == "1.7286149049089938e-16"

    @pytest.mark.parametrize("cap, stop", [(1000, "fixed_point"), (5, "max_iterations")])
    def test_residual_is_that_of_returned_values(self, cap, stop):
        from scipy import fft

        x = gaussian_white_noise(993, 47)
        result = iaaft(x, IaaftConfig(max_iterations=cap, rng_seed=48))
        assert result.stop_reason == stop
        target = np.abs(fft.rfft(x))
        residual = np.linalg.norm(np.abs(fft.rfft(result.values)) - target) / np.linalg.norm(target)
        assert result.spectrum_residual == float(residual)

    def test_constant_series(self):
        with pytest.raises(ConstantSeries):
            iaaft(np.ones(64), IaaftConfig())

    def test_too_short(self):
        with pytest.raises(LengthTooShort):
            iaaft(np.arange(5.0), IaaftConfig())

    def test_determinism(self):
        x = gaussian_white_noise(512, 9)
        a = iaaft(x, IaaftConfig(rng_seed=11))
        b = iaaft(x, IaaftConfig(rng_seed=11))
        assert np.array_equal(a.values, b.values)
        assert a.iterations == b.iterations

    def test_odd_length_supported(self):
        x = gaussian_white_noise(1023, 13)
        result = iaaft(x, IaaftConfig(rng_seed=14))
        assert np.array_equal(np.sort(result.values), np.sort(x))


class TestIaaftGolden:
    """sha256 of the surrogate's bytes, iterations, stop reason and the
    repr of the residual, captured with the numpy.fft transforms: an FFT
    backend or rank-step change must reproduce them bit for bit."""

    @pytest.mark.parametrize("n, source_seed, cfg, digest, iterations, stop, residual", [
        (993, 41, IaaftConfig(rng_seed=42),
         "c39e62584e0c6af681098c89ddd0167f44a9b15d1605d1ba86706d1925617ebe",
         26, "fixed_point", "0.003151740369547374"),
        (1024, 43, IaaftConfig(rng_seed=44),
         "7ed4321f0b758c5499fe92a078e022987e7f06df1fd2e0fc248f6d6ee34b8153",
         27, "fixed_point", "0.003286572071798501"),
        (993, 45, IaaftConfig(max_iterations=5, rng_seed=46),
         "3a3f57ddc89e41eeaaaa9128ea53f3ca869095cd74c2a66d0f17407de9acf9f4",
         5, "max_iterations", "0.007944524054220747"),
    ])
    def test_bit_identical(self, n, source_seed, cfg, digest, iterations, stop, residual):
        result = iaaft(gaussian_white_noise(n, source_seed), cfg)
        assert hashlib.sha256(result.values.tobytes()).hexdigest() == digest
        assert result.iterations == iterations
        assert result.stop_reason == stop
        assert repr(result.spectrum_residual) == residual


def ensemble_members(x, size, base_seed):
    """The surrogates ensemble_spectra analyses: one IAAFT run per derived seed."""
    return np.array([iaaft(x, IaaftConfig(rng_seed=derive_seed(base_seed, i))).values
                     for i in range(size)])


class TestEnsemble:
    def test_reproducible_bit_identical(self):
        x = gaussian_white_noise(512, 20)
        a = ensemble_members(x, 3, base_seed=77)
        b = ensemble_members(x, 3, base_seed=77)
        assert a.tobytes() == b.tobytes()

    def test_value_preservation_sweep(self):
        x = gaussian_white_noise(512, 21)
        sorted_x = np.sort(x)
        assert all(np.array_equal(np.sort(row), sorted_x)
                   for row in ensemble_members(x, 100, base_seed=3))

    def test_members_differ(self):
        x = gaussian_white_noise(256, 22)
        members = ensemble_members(x, 5, base_seed=4)
        for i in range(5):
            for j in range(i + 1, 5):
                assert not np.array_equal(members[i], members[j])

    def test_seed_derivation_distinct(self):
        seeds = {derive_seed(123, i) for i in range(10000)}
        assert len(seeds) == 10000

    def test_hurst_preserved_for_fbm_increments(self):
        from multifract.mfdfa import AnalysisConfig, analyze_returns

        cfg = AnalysisConfig()
        i2 = int(np.argmin(np.abs(cfg.q_grid - 2)))
        path = fbm(FbmSpec(4096, 0.7, 31))
        increments = np.diff(np.concatenate([[0.0], path]))
        source_h2 = analyze_returns(increments, cfg).H[i2]
        (spectra,), _ = ensemble_spectra(increments, 30, 5, [cfg])
        surrogate_h2 = np.mean([spectrum.H[i2] for spectrum in spectra])
        assert abs(surrogate_h2 - source_h2) <= 0.05
