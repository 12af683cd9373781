"""IAAFT surrogates: value distribution preserved exactly, power
spectrum preserved up to a reported residual, nonlinear correlations
destroyed."""

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConstantSeries, DataError, LengthTooShort

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

# An iterate whose amplitude spectrum matches the source's to this relative
# residual is a fixed point (in exact arithmetic the spectral step returns
# it unchanged) that the rank test can miss: near-tied values may swap ranks
# at every pass, as on a sinusoid whose period divides n.
EXACT_RESIDUAL = 1e-8


def derive_seed(base_seed, index):
    """splitmix64 step: deterministic per-member seed from (base, index)."""
    z = (int(base_seed) + (index + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class IaaftConfig:
    max_iterations: int = 1000
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class IaaftResult:
    values: np.ndarray
    iterations: int
    spectrum_residual: float
    stop_reason: str  # "fixed_point" | "max_iterations"


def _rank_order(values, index, low):
    """np.argsort(values), bit for bit, from one sort of the values as floats
    (numpy's float sort runs 2-3 times as fast as its argsort at 2^14).

    Each value carries its index in the low mantissa bits selected by low.
    When the values with those bits cleared come out strictly increasing,
    the values are distinct and the sort fixed their order, which is then
    argsort's only one. Otherwise (exact ties, -0.0 next to +0.0, or values
    that agree above the index bits) argsort itself decides.
    """
    packed = values.view(np.uint64) & ~low
    packed |= index
    packed.view(np.float64).sort()
    order = packed & low
    packed ^= order
    cleared = packed.view(np.float64)
    if np.less(cleared[:-1], cleared[1:]).all():
        return order.view(np.intp)
    return np.argsort(values)


def pocketfft_spec():
    """scipy.fft's pocketfft extension, found but not loaded; ImportError if absent."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy is not installed: IAAFT runs on its pocketfft extension")
    root = scipy.submodule_search_locations[0]
    where = os.path.join(root, "fft", "_pocketfft")
    finder = importlib.machinery.FileFinder(where, (
        importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.fft._pocketfft.pypocketfft")
    if spec is None:
        from importlib.metadata import version
        raise ImportError(f"no pypocketfft extension in {where} (scipy {version('scipy')})")
    return spec


@cache
def _pocketfft():
    """scipy.fft's compiled pocketfft extension, loaded from its file and kept
    out of sys.modules: the transforms and per-length plan cache of rfft and
    irfft, without the 0.35 s and 27 MB of importing scipy.fft.

    Also has glibc keep 1 MiB free at the heap top (M_TOP_PAD, -2), unless
    the caller set a pad: pocketfft's per-transform work buffers then reuse
    that space, where a small heap was trimmed after every transform and
    faulted back in (~164 minor faults per IAAFT pass at 5,799 points)."""
    import ctypes

    spec = pocketfft_spec()
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt and "MALLOC_TOP_PAD_" not in os.environ \
            and "glibc.malloc.top_pad" not in os.environ.get("GLIBC_TUNABLES", ""):
        mallopt(-2, 1 << 20)
    return module


def iaaft(x, cfg):
    """One IAAFT surrogate of x.

    Starting from a seeded random permutation, alternate two steps:
    impose the source amplitude spectrum keeping the iterate's phases,
    then restore the source's exact values by rank. Stops at a fixed
    point (the ranks repeat, or the spectrum matches to EXACT_RESIDUAL)
    or at the iteration cap. The returned series is the rank-adjusted
    iterate, so its sorted values equal the source's bit-exactly.
    """
    # r2c(a, axes, forward, norm, out, workers) is scipy.fft.rfft(a) and
    # c2r(spec, axes, n, forward, norm 2 = 1/n, out, workers) is irfft(spec, n)
    fft = _pocketfft()

    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 8:
        raise LengthTooShort(f"need at least 8 points, got {n}")
    bad = np.flatnonzero(~np.isfinite(x))
    if len(bad):
        raise DataError(f"value {bad[0]} is {x[bad[0]]}, not a finite number")
    if np.all(x == x[0]):
        raise ConstantSeries("IAAFT is undefined for a constant series")

    rng = np.random.default_rng(np.random.PCG64(cfg.rng_seed))
    sorted_x = np.sort(x)
    target_amp = np.abs(fft.r2c(x, (0,), True, 0, None, 1))
    target_norm = np.linalg.norm(target_amp)

    index = np.arange(n, dtype=np.uint64)
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    current = rng.permutation(x)
    prev_order = None
    for done in range(cfg.max_iterations + 1):  # iterations completed
        spectrum = fft.r2c(current, (0,), True, 0, None, 1)
        amplitudes = np.abs(spectrum)
        residual = float(np.linalg.norm(amplitudes - target_amp) / target_norm)
        if done and residual <= EXACT_RESIDUAL:
            return IaaftResult(current, done, residual, "fixed_point")
        if done == cfg.max_iterations:
            return IaaftResult(current, done, residual, "max_iterations")
        # keep the iterate's phases, take the source's amplitudes (a bin
        # of zero amplitude gets phase 0); times 1/a is bit for bit numpy's
        # division by a complex a + 0j, which scales the numerator by 1/a
        zero = amplitudes == 0
        amplitudes[zero] = 1.0
        spectrum[zero] = 1.0
        spectrum *= 1 / amplitudes
        spectrum *= target_amp
        order = _rank_order(fft.c2r(spectrum, (0,), n, False, 2, None, 1), index, low)
        if done and np.array_equal(order, prev_order):
            # rank adjustment would reproduce the same iterate
            return IaaftResult(current, done + 1, residual, "fixed_point")
        current = np.empty(n)
        current[order] = sorted_x
        prev_order = order
