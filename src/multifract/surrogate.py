"""IAAFT surrogates: value distribution preserved exactly, power
spectrum preserved up to a reported residual, nonlinear correlations
destroyed."""

from dataclasses import dataclass

import numpy as np

from .errors import ConstantSeries, LengthTooShort

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


def iaaft(x, cfg):
    """One IAAFT surrogate of x.

    Starting from a seeded random permutation, alternate two steps:
    impose the source amplitude spectrum keeping the iterate's phases,
    then restore the source's exact values by rank. Stops at a fixed
    point (the ranks repeat, or the spectrum matches to EXACT_RESIDUAL)
    or at the iteration cap. The returned series is the rank-adjusted
    iterate, so its sorted values equal the source's bit-exactly.
    """
    # scipy.fft caches a plan per length, where numpy.fft rebuilds it on
    # every call; imported here so the CLI import does not pay for it
    from scipy import fft

    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 8:
        raise LengthTooShort(f"need at least 8 points, got {n}")
    if np.all(x == x[0]):
        raise ConstantSeries("IAAFT is undefined for a constant series")

    rng = np.random.default_rng(np.random.PCG64(cfg.rng_seed))
    sorted_x = np.sort(x)
    target_amp = np.abs(fft.rfft(x))
    target_norm = np.linalg.norm(target_amp)

    current = rng.permutation(x)
    prev_order = None
    for done in range(cfg.max_iterations + 1):  # iterations completed
        spectrum = fft.rfft(current)
        amplitudes = np.abs(spectrum)
        residual = float(np.linalg.norm(amplitudes - target_amp) / target_norm)
        if done and residual <= EXACT_RESIDUAL:
            return IaaftResult(current, done, residual, "fixed_point")
        if done == cfg.max_iterations:
            return IaaftResult(current, done, residual, "max_iterations")
        unit = spectrum / np.where(amplitudes > 0, amplitudes, 1.0)
        unit[amplitudes == 0] = 1.0
        matched = fft.irfft(target_amp * unit, n)
        order = np.argsort(matched)
        if done and np.array_equal(order, prev_order):
            # rank adjustment would reproduce the same iterate
            return IaaftResult(current, done + 1, residual, "fixed_point")
        current = np.empty(n)
        current[order] = sorted_x
        prev_order = order
