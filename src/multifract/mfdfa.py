"""Multifractal detrended fluctuation analysis.

Pipeline: profile -> both-ends box partition -> polynomial detrending ->
local RMS fluctuations -> q-order power means F_q(s) -> log-log regression
H(q) -> mass exponents tau(q) -> singularity strength alpha(q) and
spectrum f(alpha).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllBoxesDegenerate,
    DataError,
    GridTooSmall,
    InsufficientScales,
    ScaleTooLarge,
    SeriesTooShort,
    Underdetermined,
)

# Boxes whose local fluctuation falls below this multiple of the profile
# standard deviation are excluded from the q-means (negative orders blow
# up on near-zero residuals).
DEGENERACY_FLOOR_FACTOR = 1e-12


def default_q_grid(q_min=-5.0, q_max=5.0, q_step=0.25):
    steps = (q_max - q_min) / q_step
    if not np.isfinite(steps):
        raise ValueError(f"q bounds {q_min}..{q_max} step {q_step} give no finite grid")
    return np.linspace(q_min, q_max, int(round(steps)) + 1)


def default_scale_grid(s_min=20, s_max=316, count=30):
    grid = np.exp(np.linspace(np.log(s_min), np.log(s_max), count))
    return np.unique(np.round(grid).astype(int))


@dataclass(frozen=True)
class AnalysisConfig:
    q_grid: np.ndarray = field(default_factory=default_q_grid)
    scale_grid: np.ndarray = field(default_factory=default_scale_grid)
    detrend_order: int = 1

    def __post_init__(self):
        q = np.asarray(self.q_grid, dtype=float)
        s = np.asarray(self.scale_grid, dtype=int)
        object.__setattr__(self, "q_grid", q)
        object.__setattr__(self, "scale_grid", s)
        if self.detrend_order not in (1, 2):
            raise ValueError("detrend_order must be 1 or 2")
        if np.any(np.diff(q) <= 0):
            raise ValueError("q_grid must be strictly increasing")
        for required in (0.0, 2.0):
            if not np.any(np.isclose(q, required)):
                raise ValueError(f"q_grid must contain q={required}")
        if np.any(np.diff(s) <= 0):
            raise ValueError("scale_grid must be strictly increasing")
        if s[0] < self.detrend_order + 2:
            raise ValueError("smallest scale must be >= detrend_order + 2")

    def validate_for_length(self, n):
        if self.scale_grid[-1] > n // 4:
            raise ScaleTooLarge(f"{n} returns are too few for the largest scale "
                                f"{self.scale_grid[-1]}, which exceeds N/4 = {n // 4}")


@dataclass(frozen=True)
class Profile:
    """Cumulative series analyzed by detrending."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class FluctuationSurface:
    F: np.ndarray                 # (n_q, n_s)
    q_grid: np.ndarray
    scale_grid: np.ndarray
    detrend_order: int
    excluded: np.ndarray          # per-cell excluded-box counts


@dataclass(frozen=True)
class MultifractalSpectrum:
    q_grid: np.ndarray
    H: np.ndarray
    H_stderr: np.ndarray
    H_r2: np.ndarray
    tau: np.ndarray
    alpha: np.ndarray
    f: np.ndarray
    delta_alpha: float
    delta_f: float


def make_profile(returns):
    """Cumulative sum of returns, anchored at zero offset.

    For log returns this is the log-price path up to an additive constant,
    which polynomial detrending of order >= 1 removes.
    """
    values = np.asarray(getattr(returns, "values", returns), dtype=float)
    if len(values) < 1:
        raise SeriesTooShort("empty return series")
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise DataError(f"return {bad[0]} is {values[bad[0]]}, not a finite number")
    return Profile(np.cumsum(values))


def _segments(values, s):
    """The boxes of partition_segments(len(values), s) as a (k, s) array."""
    n = len(values)
    if s > n:
        raise ScaleTooLarge(f"scale {s} exceeds series length {n}")
    n_boxes = n // s
    forward = values[: n_boxes * s].reshape(n_boxes, s)
    if n_boxes * s == n:
        return forward
    backward = values[n - n_boxes * s:].reshape(n_boxes, s)
    return np.concatenate([forward, backward])


def partition_segments(n, s):
    """Index windows of exact length s covering the series from both ends.

    When s divides n the forward pass alone covers everything; otherwise
    floor(n/s) windows from each end are used and a short middle remnant
    of each pass stays uncovered.
    """
    return [(int(start), int(start) + s) for start in _segments(np.arange(n), s)[:, 0]]


def _design_basis(s, order):
    # Orthonormal polynomial basis on a centered/scaled abscissa; raw
    # normal equations on 1..s are ill-conditioned for order 2.
    t = np.arange(1, s + 1, dtype=float)
    t = (t - t.mean()) / max(t.std(), 1.0)
    basis, _ = np.linalg.qr(np.vander(t, order + 1, increasing=True))
    return basis


def detrend_segment(values, order):
    """Residuals of the best least-squares polynomial of the given order,
    of one segment or of each row of a (k, s) array of segments."""
    values = np.asarray(values, dtype=float)
    s = values.shape[-1]
    if s < order + 2:
        raise Underdetermined(f"segment of {s} points cannot fit order {order}")
    basis = _design_basis(s, order)
    return values - (values @ basis) @ basis.T


def local_fluctuation(residuals):
    """Root mean square of a segment's detrended residuals, or of each row
    of a (k, s) array of them."""
    residuals = np.asarray(residuals, dtype=float)
    return np.sqrt(np.mean(residuals ** 2, axis=-1))


def _power_means(log_fv, q_grid):
    """q-order power means of exp(log_fv), one per q (geometric at q=0)."""
    q_grid = np.asarray(q_grid, dtype=float)
    # the geometric mean wherever q is close to 0: dividing by a subnormal q
    # below would lose every digit of the result. This is np.isclose(q, 0)
    # with its default atol, written out because it runs at every scale.
    zero_q = np.abs(q_grid) <= 1e-8
    # log-domain power mean: peak-shifted with expm1/log1p so the result
    # degrades gracefully into the geometric mean as q -> 0
    scaled = q_grid[:, None] * log_fv[None, :]
    peak = scaled.max(axis=1)
    # in place, so the products are the only (n_q, k) temporary
    np.subtract(scaled, peak[:, None], out=scaled)
    log_means = np.log1p(np.expm1(scaled, out=scaled).mean(axis=1))
    means = np.exp((peak + log_means) / np.where(zero_q, 1.0, q_grid))
    means[zero_q] = np.exp(np.mean(log_fv))
    return means


def overall_fluctuation(local_flucts, q, floor=0.0):
    """q-order power mean of local fluctuations (geometric mean at q=0)."""
    fv = np.asarray(local_flucts, dtype=float)
    fv = fv[fv >= floor] if floor > 0 else fv
    if len(fv) == 0:
        raise AllBoxesDegenerate()
    return float(_power_means(np.log(fv), [q])[0])


def fluctuation_surface(profile, cfg):
    """F_q(s) over the whole (q, s) grid for one profile."""
    values = profile.values
    n = len(values)
    cfg.validate_for_length(n)

    q_grid = cfg.q_grid
    floor = DEGENERACY_FLOOR_FACTOR * float(np.std(values))
    F = np.empty((len(q_grid), len(cfg.scale_grid)))
    excluded = np.zeros_like(F, dtype=int)

    for j, s in enumerate(cfg.scale_grid.tolist()):
        fv = local_fluctuation(detrend_segment(_segments(values, s), cfg.detrend_order))
        keep = fv >= floor
        if not keep.any():
            raise AllBoxesDegenerate(q=q_grid[0], s=s)
        excluded[:, j] = len(fv) - keep.sum()
        F[:, j] = _power_means(np.log(fv[keep]), q_grid)

    return FluctuationSurface(F, q_grid, np.asarray(cfg.scale_grid), cfg.detrend_order, excluded)


def hurst_spectrum(surface):
    """Per-q OLS slope of ln F_q(s) on ln s, with stderr and R^2."""
    log_s = np.log(surface.scale_grid.astype(float))
    n_q = len(surface.q_grid)
    H = np.empty(n_q)
    stderr = np.empty(n_q)
    r2 = np.empty(n_q)
    for i in range(n_q):
        row = surface.F[i]
        ok = np.isfinite(row) & (row > 0)
        if ok.sum() < 3:
            raise InsufficientScales(surface.q_grid[i])
        x, y = log_s[ok], np.log(row[ok])
        n = len(x)
        x_c = x - x.mean()
        slope = float(np.dot(x_c, y) / np.dot(x_c, x_c))
        intercept = y.mean() - slope * x.mean()
        resid = y - intercept - slope * x
        ss_res = float(np.dot(resid, resid))
        ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
        H[i] = slope
        stderr[i] = np.sqrt(ss_res / (n - 2) / np.dot(x_c, x_c))
        r2[i] = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return H, stderr, r2


def mass_exponents(q_grid, H):
    """tau(q) = q H(q) - 1 (support dimension 1 for time series)."""
    return np.asarray(q_grid, dtype=float) * np.asarray(H, dtype=float) - 1.0


def singularity_spectrum(q_grid, tau):
    """alpha = dtau/dq (central differences, one-sided 2-point at the ends),
    f = q alpha - tau, plus the width and spectrum-difference statistics."""
    q = np.asarray(q_grid, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if len(q) < 3:
        raise GridTooSmall("need at least 3 q points for derivatives")
    alpha = np.empty_like(tau)
    alpha[1:-1] = (tau[2:] - tau[:-2]) / (q[2:] - q[:-2])
    alpha[0] = (tau[1] - tau[0]) / (q[1] - q[0])
    alpha[-1] = (tau[-1] - tau[-2]) / (q[-1] - q[-2])
    f = q * alpha - tau
    delta_alpha = float(alpha[0] - alpha[-1])
    delta_f = float(1.0 - (f[-1] + f[0]) / 2.0)
    return alpha, f, delta_alpha, delta_f


def spectrum_from_surface(surface):
    """H(q), tau, alpha and f of an already computed fluctuation surface."""
    H, stderr, r2 = hurst_spectrum(surface)
    tau = mass_exponents(surface.q_grid, H)
    alpha, f, d_alpha, d_f = singularity_spectrum(surface.q_grid, tau)
    return MultifractalSpectrum(
        surface.q_grid, H, stderr, r2, tau, alpha, f, d_alpha, d_f
    )


def analyze_profile(profile, cfg):
    """Full MF-DFA of one profile: surface, H(q), tau, alpha, f."""
    return spectrum_from_surface(fluctuation_surface(profile, cfg))


def analyze_returns(returns, cfg):
    return analyze_profile(make_profile(returns), cfg)
