from unittest import mock

import numpy as np
import pytest

from multifract.errors import EmbeddingFailure
from multifract.synth import (
    MAX_POINTS,
    CascadeSpec,
    FbmSpec,
    binomial_cascade,
    cascade_analytic_hq,
    fbm,
    fgn,
    gaussian_white_noise,
)


def partition_function_hurst(p, q, levels=10):
    """Brute-force oracle: H(q) from the cascade partition function.

    Z_q(m) = sum of cell masses^q at depth m scales exactly as
    (2^-m)^tau(q), so tau is the log-log ratio and H = (tau + 1) / q.
    """
    masses = binomial_cascade(CascadeSpec(levels, p))
    z = np.sum(masses ** q)
    tau = np.log(z) / np.log(2.0 ** -levels)
    return (tau + 1.0) / q


class TestBinomialCascade:
    def test_one_split(self):
        np.testing.assert_allclose(binomial_cascade(CascadeSpec(1, 0.3)), [0.3, 0.7])

    def test_two_splits(self):
        np.testing.assert_allclose(
            binomial_cascade(CascadeSpec(2, 0.3)), [0.09, 0.21, 0.21, 0.49]
        )

    def test_symmetric_multiplier_is_uniform(self):
        masses = binomial_cascade(CascadeSpec(8, 0.5))
        np.testing.assert_allclose(masses, np.full(256, 1.0 / 256))

    def test_mass_conservation_every_level(self):
        for k in range(1, 14):
            masses = binomial_cascade(CascadeSpec(k, 0.3))
            assert abs(masses.sum() - 1.0) <= 1e-12
            assert len(masses) == 2 ** k

    def test_shuffled_variant_preserves_values(self):
        plain = binomial_cascade(CascadeSpec(10, 0.3))
        shuffled = binomial_cascade(CascadeSpec(10, 0.3, seed=7))
        np.testing.assert_allclose(np.sort(shuffled), np.sort(plain), rtol=1e-12)
        assert not np.array_equal(shuffled, plain)
        assert abs(shuffled.sum() - 1.0) <= 1e-12

    def test_shuffled_variant_deterministic(self):
        a = binomial_cascade(CascadeSpec(10, 0.3, seed=3))
        b = binomial_cascade(CascadeSpec(10, 0.3, seed=3))
        np.testing.assert_array_equal(a, b)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            CascadeSpec(8, 0.6)
        with pytest.raises(ValueError):
            CascadeSpec(8, 0.0)
        with pytest.raises(ValueError):
            CascadeSpec(0, 0.3)

    def test_levels_capped_at_max_points(self):
        levels = MAX_POINTS.bit_length() - 1
        assert CascadeSpec(levels, 0.3).levels == levels
        with pytest.raises(ValueError, match=f"synth.MAX_POINTS = {MAX_POINTS}"):
            CascadeSpec(levels + 1, 0.3)


class TestCascadeAnalyticHq:
    def test_matches_partition_oracle(self):
        for q in (-5.0, -2.0, -0.5, 0.5, 1.0, 2.0, 3.5, 5.0):
            oracle = partition_function_hurst(0.3, q)
            assert cascade_analytic_hq(0.3, q) == pytest.approx(oracle, abs=1e-10)

    def test_q2_value(self):
        # H(2) = (1 - log2(p^2 + (1-p)^2)) / 2 for p = 0.3
        expected = (1.0 - np.log2(0.09 + 0.49)) / 2.0
        assert cascade_analytic_hq(0.3, 2.0) == pytest.approx(expected, abs=1e-14)
        assert cascade_analytic_hq(0.3, 2.0) == pytest.approx(
            partition_function_hurst(0.3, 2.0), abs=1e-10
        )

    def test_symmetric_multiplier_is_monofractal(self):
        q = np.linspace(-5, 5, 41)
        h = cascade_analytic_hq(0.5, q)
        np.testing.assert_allclose(h, 1.0, atol=1e-12)

    def test_continuity_at_zero(self):
        # one-sided limits via Richardson extrapolation (error O(h^2))
        h = 1e-4
        right = 2 * cascade_analytic_hq(0.3, h / 2) - cascade_analytic_hq(0.3, h)
        left = 2 * cascade_analytic_hq(0.3, -h / 2) - cascade_analytic_hq(0.3, -h)
        center = cascade_analytic_hq(0.3, 0.0)
        assert abs(left - right) <= 1e-8
        assert abs(center - 0.5 * (left + right)) <= 1e-8

    def test_vector_and_scalar_agree(self):
        q = np.array([-2.0, 0.0, 2.0])
        vec = cascade_analytic_hq(0.3, q)
        for qi, hi in zip(q, vec):
            assert cascade_analytic_hq(0.3, float(qi)) == pytest.approx(hi)

    def test_monotone_decreasing_for_asymmetric_p(self):
        q = np.linspace(-5, 5, 41)
        h = cascade_analytic_hq(0.3, q)
        assert np.all(np.diff(h) < 0)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            cascade_analytic_hq(0.0, 2.0)
        with pytest.raises(ValueError):
            cascade_analytic_hq(1.0, 2.0)


def fgn_autocovariance(k, hurst):
    k = np.abs(np.asarray(k, dtype=float))
    h2 = 2 * hurst
    return 0.5 * ((k + 1) ** h2 - 2 * k ** h2 + np.abs(k - 1) ** h2)


class TestFbm:
    def test_brownian_increments_uncorrelated(self):
        n = 2 ** 14
        increments = np.diff(np.concatenate([[0.0], fbm(FbmSpec(n, 0.5, 2))]))
        rho1 = np.corrcoef(increments[:-1], increments[1:])[0, 1]
        assert abs(rho1) <= 3 / np.sqrt(n)

    def test_persistent_lag1_autocorrelation(self):
        increments = np.diff(np.concatenate([[0.0], fbm(FbmSpec(2 ** 14, 0.7, 3))]))
        rho1 = np.corrcoef(increments[:-1], increments[1:])[0, 1]
        assert rho1 == pytest.approx(2 ** (2 * 0.7 - 1) - 1, abs=0.03)

    def test_determinism(self):
        np.testing.assert_array_equal(fbm(FbmSpec(1024, 0.7, 9)), fbm(FbmSpec(1024, 0.7, 9)))

    def test_seeds_differ(self):
        assert not np.array_equal(fbm(FbmSpec(1024, 0.7, 1)), fbm(FbmSpec(1024, 0.7, 2)))

    def test_autocovariance_lags_0_to_5(self):
        # empirical autocovariance must match the fGn formula within 4
        # standard errors over 32 seeded replications
        n, hurst, reps = 4096, 0.7, 32
        estimates = np.empty((reps, 6))
        for r in range(reps):
            x = fgn(n, hurst, 1000 + r)
            for k in range(6):
                estimates[r, k] = np.mean(x[: n - k] * x[k:])
        mean = estimates.mean(axis=0)
        se = estimates.std(axis=0, ddof=1) / np.sqrt(reps)
        target = fgn_autocovariance(np.arange(6), hurst)
        assert np.all(np.abs(mean - target) <= 4 * se)

    def test_failed_embedding_is_not_doubled(self):
        # a larger embedding only gets more negative eigenvalues, so the
        # first one's eigenvalues decide
        with mock.patch.object(np.fft, "fft", wraps=np.fft.fft) as fft:
            with pytest.raises(EmbeddingFailure, match="H=0.99"):
                fgn(2 ** 19, 0.99, 0)
        assert fft.call_count == 1

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            FbmSpec(1000, 0.7)  # not a power of two
        with pytest.raises(ValueError):
            FbmSpec(1024, 1.0)
        with pytest.raises(ValueError):
            FbmSpec(1024, 0.0)

    def test_length_capped_at_max_points(self):
        assert FbmSpec(MAX_POINTS, 0.5).n == MAX_POINTS
        with pytest.raises(ValueError, match=f"synth.MAX_POINTS = {MAX_POINTS}"):
            FbmSpec(2 * MAX_POINTS, 0.5)


class TestGaussianWhiteNoise:
    def test_clt_bounds(self):
        x = gaussian_white_noise(10 ** 5, 5)
        assert abs(x.mean()) <= 0.02
        assert 0.99 <= x.std() <= 1.01

    def test_reproducible(self):
        np.testing.assert_array_equal(
            gaussian_white_noise(128, 7), gaussian_white_noise(128, 7)
        )

    def test_shuffle_preserves_sorted_values(self):
        x = gaussian_white_noise(256, 8)
        shuffled = np.random.default_rng(1).permutation(x)
        np.testing.assert_array_equal(np.sort(shuffled), np.sort(x))

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            gaussian_white_noise(0, 1)
        with pytest.raises(ValueError, match=f"synth.MAX_POINTS = {MAX_POINTS}"):
            gaussian_white_noise(MAX_POINTS + 1, 1)
