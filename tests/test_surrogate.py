import ctypes
import hashlib
import importlib.util
import os
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multifract
from multifract.cli import ensemble_spectra
from multifract.errors import ConstantSeries, DataError, LengthTooShort
from multifract.surrogate import IaaftConfig, _pocketfft, _rank_order, derive_seed, iaaft
from multifract.synth import CascadeSpec, FbmSpec, binomial_cascade, fbm, gaussian_white_noise


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_refused(self, bad):
        # refused before any transform, so no RuntimeWarning either
        x = gaussian_white_noise(64, 15)
        x[3] = bad
        x[9] = bad
        with pytest.raises(DataError, match=f"value 3 is {bad}, not a finite number"):
            iaaft(x, IaaftConfig())

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


class TestPocketfft:
    @pytest.mark.parametrize("n", [8, 9, 17, 1000, 4096, 5799, 16384, 65537])
    def test_bit_equal_to_scipy_fft(self, n):
        # the calls iaaft makes, against the scipy.fft functions they stand for
        from scipy import fft

        x = gaussian_white_noise(n, n)
        spectrum = _pocketfft().r2c(x, (0,), True, 0, None, 1)
        assert spectrum.tobytes() == fft.rfft(x).tobytes()
        inverse = _pocketfft().c2r(spectrum, (0,), n, False, 2, None, 1)
        assert inverse.tobytes() == fft.irfft(spectrum, n).tobytes()

    def test_loaded_once(self):
        assert _pocketfft() is _pocketfft()

    def test_missing_extension_names_the_directory(self, tmp_path, monkeypatch):
        find_spec = importlib.util.find_spec

        def elsewhere(name, *args):
            if name == "scipy":
                return SimpleNamespace(submodule_search_locations=[str(tmp_path)])
            return find_spec(name, *args)

        monkeypatch.setattr(importlib.util, "find_spec", elsewhere)
        _pocketfft.cache_clear()
        try:
            with pytest.raises(ImportError) as info:
                _pocketfft()
        finally:
            _pocketfft.cache_clear()
        assert str(info.value) == (f"no pypocketfft extension in {tmp_path / 'fft' / '_pocketfft'} "
                                   f"(scipy {version('scipy')})")


def _run_fresh(code, env):
    """Standard output of code run by a fresh interpreter on this package, with
    no heap top pad in its environment beyond those in env."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("MALLOC_TOP_PAD_", "GLIBC_TUNABLES")} | env
    env["PYTHONPATH"] = str(Path(multifract.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


class TestHeapTopPad:
    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="libc has no mallopt")
    def test_iaaft_passes_do_not_fault_the_heap_back_in(self):
        # without the pad glibc trims the heap top after each transform of a
        # 5,799-point (Bluestein) series: ~164 minor faults per pass
        code = """
import resource
import numpy as np
from multifract.surrogate import IaaftConfig, iaaft
x = np.random.default_rng(53).standard_t(4, 5799)
iaaft(x, IaaftConfig(rng_seed=0))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
iterations = sum(iaaft(x, IaaftConfig(rng_seed=seed)).iterations for seed in (1, 2, 3))
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / iterations)
"""
        assert float(_run_fresh(code, {})) < 20

    @pytest.mark.parametrize("env, has_mallopt, calls", [
        ({}, True, "[(-2, 1048576)]"),
        ({}, False, "[]"),
        ({"MALLOC_TOP_PAD_": "65536"}, True, "[]"),
        ({"GLIBC_TUNABLES": "glibc.malloc.top_pad=65536"}, True, "[]"),
        ({"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=65536"}, True, "[(-2, 1048576)]"),
    ], ids=["unset", "no-mallopt", "MALLOC_TOP_PAD_", "top_pad-tunable", "other-tunable"])
    def test_pad_set_once_unless_the_caller_set_one(self, env, has_mallopt, calls):
        # a stand-in libc records the mallopt calls of the first load
        code = f"""
import ctypes
from multifract.surrogate import _pocketfft
calls = []
class Libc:
    def mallopt(self, param, value):
        calls.append((param, value))
        return 1
if not {has_mallopt}:
    del Libc.mallopt
ctypes.CDLL = lambda name: Libc()
_pocketfft()
_pocketfft()
print(calls)
"""
        assert _run_fresh(code, env).strip() == calls


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
        self.check(gaussian_white_noise(n, source_seed), cfg, digest, iterations, stop, residual)

    # captured with np.argsort as the rank step: a cascade whose 4,096 cells
    # take 58 values, noise rounded to 67 values, and heavy tails at the
    # paper's 5,799 points
    @pytest.mark.parametrize("source, cfg, digest, iterations, stop, residual", [
        (lambda: binomial_cascade(CascadeSpec(12, 0.3, seed=1)), IaaftConfig(rng_seed=51),
         "5b17adfcc08c07bf5d527cac2a1a340c49f6d1404e9e17b20a77103a733f9aad",
         22, "fixed_point", "0.2832957059062221"),
        (lambda: np.round(gaussian_white_noise(4096, 3), 1), IaaftConfig(rng_seed=52),
         "0855d7c288cb68fcbadea2de0c124904a5de52dbd02443b03df4b77dc4817c58",
         8, "fixed_point", "0.02181211932810222"),
        (lambda: np.random.default_rng(53).standard_t(4, 5799), IaaftConfig(rng_seed=54),
         "f84e59ba11d7bb8b5ff028bb702f44a3c07db6ebccd103168b7869263b2b8b16",
         92, "fixed_point", "0.0006428928827549602"),
    ], ids=["cascade-ties", "rounded-noise", "t4-5799"])
    def test_bit_identical_beyond_noise(self, source, cfg, digest, iterations, stop, residual):
        self.check(source(), cfg, digest, iterations, stop, residual)

    @staticmethod
    def check(x, cfg, digest, iterations, stop, residual):
        result = iaaft(x, cfg)
        assert hashlib.sha256(result.values.tobytes()).hexdigest() == digest
        assert result.iterations == iterations
        assert result.stop_reason == stop
        assert repr(result.spectrum_residual) == residual


def rank_args(values):
    """_rank_order's arguments, built as iaaft builds them."""
    n = len(values)
    return values, np.arange(n, dtype=np.uint64), np.uint64((1 << (n - 1).bit_length()) - 1)


# values whose order the packed sort cannot settle: signed zeros, the
# smallest subnormals and the ends of the finite range
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0,
               np.finfo(float).max, -np.finfo(float).max]
# at and just past powers of two, where the index takes one more bit
LENGTHS = [8, 9, 16, 17, 255, 256, 257, 1024, 1025, 4096, 4097]


@st.composite
def rank_inputs(draw):
    n = draw(st.sampled_from(LENGTHS))
    pool = draw(st.lists(st.sampled_from(EDGE_VALUES) | st.floats(allow_nan=False,
                                                                  allow_infinity=False),
                         min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = np.asarray(pool)[rng.integers(len(pool), size=n)]
    # runs of values up to 2 ulp apart around each drawn value
    for step in rng.integers(-2, 3, size=(2, n)):
        values = np.where(step > 0, np.nextafter(values, np.finfo(float).max), values)
        values = np.where(step < 0, np.nextafter(values, -np.finfo(float).max), values)
    # well-separated values in a share of the places, or in none
    spread = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 0.99, 1.0]))
    values[spread] = rng.standard_normal(np.count_nonzero(spread))
    return values


class TestRankOrder:
    @settings(max_examples=300, deadline=None)
    @given(rank_inputs())
    def test_equals_argsort(self, values):
        before = values.copy()
        order = _rank_order(*rank_args(values))
        assert order.dtype == np.intp
        assert np.array_equal(order, np.argsort(values))
        assert values.tobytes() == before.tobytes()

    def test_argsort_only_on_doubtful_values(self, monkeypatch):
        real_argsort = np.argsort
        calls = []

        def argsort(values, *args, **kwargs):
            calls.append(len(values))
            return real_argsort(values, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", argsort)
        distinct = gaussian_white_noise(2 ** 14, 16)
        _rank_order(*rank_args(distinct))
        assert calls == []

        tie = distinct.copy()
        tie[7] = tie[100]
        zeros = distinct.copy()
        zeros[[5, 50]] = 0.0, -0.0
        near = distinct.copy()  # 3 ulp apart, inside the 14 index bits
        near[9] = np.nextafter(np.nextafter(np.nextafter(near[90], 9.0), 9.0), 9.0)
        for doubtful in (tie, zeros, near):
            _rank_order(*rank_args(doubtful))
        assert calls == [2 ** 14] * 3

        # no IAAFT pass of Gaussian noise is in doubt
        iaaft(gaussian_white_noise(4096, 17), IaaftConfig(rng_seed=18))
        assert calls == [2 ** 14] * 3


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
