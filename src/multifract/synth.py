"""Synthetic generators with known multifractal properties, used as
oracles in validation: binomial cascades, fractional Brownian motion,
and Gaussian white noise."""

from dataclasses import dataclass, fields

import numpy as np

from .errors import EmbeddingFailure

# Longest series a generator makes, checked before anything is allocated.
# At 2^21 an fBm's complex embedding of 2^22 points takes 64 MB, and the
# `synth` command's one calendar day per value still ends before year 9999.
# An fBm with H near 1 at large n (H = 0.95 at 2^21, H = 0.99 from 2^19) has
# negative eigenvalues in that first embedding: an EmbeddingFailure.
MAX_POINTS = 1 << 21


# A kind's spec dataclass is the one home of its keys: each field is a key,
# with its type as cast and its default; series() gives returns and label.
@dataclass(frozen=True)
class CascadeSpec:
    levels: int = 16
    p: float = 0.3
    seed: int = None  # when set, the (p, 1-p) pair is shuffled per split

    def __post_init__(self):
        if not 0 < self.p <= 0.5:
            raise ValueError("p must lie in (0, 0.5]")
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.levels > MAX_POINTS.bit_length() - 1:
            raise ValueError(f"levels {self.levels} give 2^{self.levels} cells, more than "
                             f"synth.MAX_POINTS = {MAX_POINTS}")

    def series(self):
        return binomial_cascade(self), f"cascade(levels={self.levels},p={self.p})"


@dataclass(frozen=True)
class FbmSpec:
    n: int = 16384
    hurst: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.hurst < 1:
            raise ValueError("hurst must lie in (0, 1)")
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError("n must be a power of two")
        _check_points(self.n)

    def series(self):
        return np.diff(np.concatenate([[0.0], fbm(self)])), f"fbm(H={self.hurst})"


@dataclass(frozen=True)
class NoiseSpec:
    n: int = 16384
    seed: int = 0

    def series(self):
        return gaussian_white_noise(self.n, self.seed), "gaussian-noise"


KINDS = {"cascade": CascadeSpec, "fbm": FbmSpec, "noise": NoiseSpec}


def make_spec(kind, items, source):
    """The spec of kind from (key, text) pairs, each text cast by the type of
    the field its key names; source names where the pairs came from in errors."""
    if kind not in KINDS:
        raise ValueError(f"unknown synth kind {kind!r}")
    casts = {field.name: field.type for field in fields(KINDS[kind])}
    params = {}
    for key, text in items:
        if key not in casts:
            raise ValueError(f"synth kind {kind!r} takes no key {key!r}; "
                             f"its keys are {', '.join(casts)}")
        try:
            params[key] = casts[key](text)
        except ValueError:
            raise ValueError(f"{source}: {key}={text!r} is not a valid "
                             f"{casts[key].__name__}") from None
    return KINDS[kind](**params)


def parse_synth_spec(spec):
    """'kind:key=value,...' -> the kind's spec."""
    kind, _, rest = (part.strip() for part in spec.partition(":"))
    items = (item.partition("=") for item in rest.split(",")) if rest else ()
    return make_spec(kind, [(key.strip(), text.strip()) for key, _, text in items],
                     f"synth spec {spec!r}")


def _check_points(n):
    if n > MAX_POINTS:
        raise ValueError(f"n = {n} is more than synth.MAX_POINTS = {MAX_POINTS}")


def binomial_cascade(spec):
    """Cell masses of a binomial multiplicative cascade over 2^levels cells.

    The deterministic variant always sends weight p left; with a seed the
    left/right assignment is randomized independently per split. Total
    mass is conserved at every level.
    """
    rng = None if spec.seed is None else np.random.default_rng(spec.seed)
    masses = np.array([1.0])
    weights = np.array([spec.p, 1.0 - spec.p])
    for _ in range(spec.levels):
        split = masses[:, None] * weights[None, :]
        if rng is not None:
            flip = rng.integers(0, 2, size=len(masses)).astype(bool)
            split[flip] = split[flip, ::-1]
        masses = split.ravel()
    return masses


def cascade_analytic_hq(p, q):
    """Closed-form generalized Hurst exponent of the binomial cascade:
    H(q) = 1/q - log2(p^q + (1-p)^q)/q, continuous at q=0 by L'Hopital."""
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    q = np.asarray(q, dtype=float)
    scalar = q.ndim == 0
    q = np.atleast_1d(q)
    out = np.empty_like(q)
    nonzero = q != 0
    qs = q[nonzero]
    out[nonzero] = (1.0 - np.log2(p ** qs + (1.0 - p) ** qs)) / qs
    out[~nonzero] = -(np.log(p) + np.log(1.0 - p)) / (2.0 * np.log(2.0))
    return float(out[0]) if scalar else out


def _fgn_autocovariance(lags, hurst):
    k = np.asarray(lags, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * (np.abs(k + 1) ** h2 - 2.0 * np.abs(k) ** h2 + np.abs(k - 1) ** h2)


def fgn(n, hurst, seed):
    """Fractional Gaussian noise with exact autocovariance via circulant
    embedding of the next power of two at or above n. A larger embedding
    only gets more negative eigenvalues, so one that fails is not doubled:
    it raises EmbeddingFailure."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    m = 1
    while m < n:
        m <<= 1
    gamma = _fgn_autocovariance(np.arange(m + 1), hurst)
    eig = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    if not eig.min() >= -1e-10 * eig.max():
        raise EmbeddingFailure(f"no nonnegative embedding for H={hurst}")
    eig = np.clip(eig, 0.0, None)

    m2 = 2 * m
    coeff = np.zeros(m2, dtype=complex)
    coeff[0] = np.sqrt(eig[0]) * rng.standard_normal()
    coeff[m] = np.sqrt(eig[m]) * rng.standard_normal()
    real = rng.standard_normal(m - 1)
    imag = rng.standard_normal(m - 1)
    half = np.sqrt(eig[1:m] / 2.0) * (real + 1j * imag)
    coeff[1:m] = half
    coeff[m + 1:] = np.conj(half[::-1])
    path = np.fft.fft(coeff).real / np.sqrt(m2)
    return path[:n]


def fbm(spec):
    """Fractional Brownian motion path; increments are fGn."""
    return np.cumsum(fgn(spec.n, spec.hurst, spec.seed))


def gaussian_white_noise(n, seed):
    """i.i.d. standard normal draws, seeded."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_points(n)
    rng = np.random.default_rng(np.random.PCG64(seed))
    return rng.standard_normal(n)
