"""Tests of the benchmark's own reference code and input generators.

    python3 -m pytest bench/test_reference.py
"""

import numpy as np
import pytest

import inputs
import reference

P = 0.3


def test_box_windows_cover_both_ends():
    assert reference.box_windows(8, 4) == [(0, 4), (4, 8)]
    assert reference.box_windows(9, 4) == [(0, 4), (4, 8), (5, 9), (1, 5)]


def test_fluctuation_hand_case():
    # Box 1 is 1, -1, -1, 1 and box 2 twice that. Neither has a linear
    # trend on t = 1..4, so the order-1 residuals are the values
    # themselves: F^2 = 1 and 4.
    profile = np.array([1.0, -1.0, -1.0, 1.0, 2.0, -2.0, -2.0, 2.0])
    variances = reference.box_variances(profile, 4, 1)
    np.testing.assert_allclose(variances, [1.0, 4.0], rtol=1e-12)
    expected = {2.0: np.sqrt(2.5), 0.0: np.sqrt(2.0),
                -2.0: 0.625 ** -0.5, 4.0: 8.5 ** 0.25}
    for q, want in expected.items():
        assert reference.power_mean_fluctuation(variances, q) == pytest.approx(want, rel=1e-12)
    # A linear trend within each box leaves order 1 unchanged ...
    t = np.tile(np.arange(1.0, 5.0), 2)
    np.testing.assert_allclose(reference.box_variances(profile + 3.0 * t - 1.0, 4, 1),
                               [1.0, 4.0], rtol=1e-10)
    # ... and both boxes are parabolas, (t - 5/2)^2 - 5/4 scaled, so
    # order 2 leaves nothing.
    np.testing.assert_allclose(reference.box_variances(profile, 4, 2), [0.0, 0.0], atol=1e-20)


def test_power_mean_is_continuous_at_zero():
    variances = np.array([0.5, 1.0, 3.0, 8.0])
    at_zero = reference.power_mean_fluctuation(variances, 0.0)
    assert reference.power_mean_fluctuation(variances, 1e-8) == pytest.approx(at_zero, rel=1e-7)


@pytest.mark.parametrize("q", [-4.0, -2.0, -1.0, 0.5, 1.0, 2.0, 3.0, 5.0])
def test_cascade_closed_form_matches_partition_function(q):
    masses = inputs.shuffled_cascade(10, P, np.random.default_rng(1))
    tau = reference.partition_tau(masses, q)
    assert (tau + 1.0) / q == pytest.approx(float(reference.cascade_hq(P, q)), abs=1e-10)


def test_cascade_closed_form_limit_at_zero():
    at_zero = float(reference.cascade_hq(P, 0.0))
    assert float(reference.cascade_hq(P, 1e-7)) == pytest.approx(at_zero, abs=1e-6)


def test_shuffled_cascade_conserves_mass_and_shuffles():
    a = inputs.shuffled_cascade(12, P, np.random.default_rng(1))
    b = inputs.shuffled_cascade(12, P, np.random.default_rng(2))
    assert a.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(np.sort(a), np.sort(b))
    assert not np.array_equal(a, b)


def test_t4_quantiles():
    # (i + 1/2)/n is 0.75 at i = 1 of 2 and 0.975 at i = 19 of 20; the
    # t(4) table gives 0.7407 and 2.7764 there.
    assert inputs.t4_quantiles(2)[1] == pytest.approx(0.7407, abs=1e-4)
    q = inputs.t4_quantiles(20)
    assert q[19] == pytest.approx(2.7764, abs=1e-4)
    np.testing.assert_allclose(q, -q[::-1], atol=1e-12)


def test_price_csv_round_trip(tmp_path):
    returns = inputs.grain_returns(300, seed=5)
    path = tmp_path / "prices.csv"
    assert inputs.write_price_csv(path, returns) == 301
    recovered = reference.log_returns(reference.read_prices(path))
    np.testing.assert_allclose(recovered, returns, atol=1e-14)
    assert np.array_equal(np.sort(returns), np.sort(inputs.grain_returns(300, seed=6)))


def test_inputs_repeat_for_a_seed():
    np.testing.assert_array_equal(inputs.grain_returns(500, 3), inputs.grain_returns(500, 3))
    np.testing.assert_array_equal(inputs.cascade_returns(8, P, 3), inputs.cascade_returns(8, P, 3))
    np.testing.assert_array_equal(inputs.gaussian_returns(64, 3), inputs.gaussian_returns(64, 3))
    assert not np.array_equal(inputs.gaussian_returns(64, 3), inputs.gaussian_returns(64, 4))
