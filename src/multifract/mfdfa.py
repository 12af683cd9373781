"""Multifractal detrended fluctuation analysis.

Pipeline: profile -> both-ends box partition -> polynomial detrending ->
local RMS fluctuations -> q-order power means F_q(s) -> log-log regression
H(q) -> mass exponents tau(q) -> singularity strength alpha(q) and
spectrum f(alpha).
"""

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import (
    AllBoxesDegenerate,
    DataError,
    DegenerateSeries,
    GridTooSmall,
    InsufficientScales,
    ScaleTooLarge,
    Underdetermined,
)

# Boxes whose local fluctuation falls below this multiple of the profile
# standard deviation are excluded from the q-means (negative orders blow
# up on near-zero residuals).
DEGENERACY_FLOOR_FACTOR = 1e-12

# Most q points a grid may have: each is a row of every scale's power means.
MAX_Q_POINTS = 1001

# Most scales a grid may have, checked before the grid is allocated: a
# scale range up to 2**53 holds enough integers for --s-count to ask
# np.linspace for gigabytes.
MAX_SCALE_POINTS = 1001

# Most values in one block of box fits. fluctuation_surface fits a scale's
# boxes in row blocks of at most this many values, so each box product has
# m*n*k <= 3 * 2^16, below the 4 * 65,536 at which OpenBLAS splits a
# product over threads: on a long series a second thread doubles the CPU
# time and gains no wall time. A block's temporaries stay at 512 KB, and a
# series of up to 32,768 values fits every scale in one block.
BOX_BLOCK = 1 << 16

# Most (q, box) products in one block of _power_means: 1 MB, whatever the grid.
POWER_BLOCK = 1 << 17


def default_q_grid(q_min=-5.0, q_max=5.0, q_step=0.25):
    if not q_step > 0:
        raise ValueError("q step must be positive")
    steps = (q_max - q_min) / q_step
    if not np.isfinite(steps):
        raise ValueError(f"q bounds {q_min}..{q_max} step {q_step} give no finite grid")
    if q_max < q_min:
        raise ValueError(f"q bounds {q_min}..{q_max}: q max {q_max} is below q min {q_min}")
    points = int(round(steps)) + 1
    if points > MAX_Q_POINTS:
        raise ValueError(f"q bounds {q_min}..{q_max} step {q_step} give {points} points, "
                         f"more than {MAX_Q_POINTS}")
    return np.linspace(q_min, q_max, points)


def default_scale_grid(s_min=20, s_max=316, count=30):
    if not (s_min > 0 and s_max > 0 and count > 0):
        raise ValueError("s min, s max and s count must be positive")
    if s_max < s_min:
        raise ValueError(f"scales {s_min}..{s_max}: s max {s_max} is below s min {s_min}")
    # both refused before the grid is allocated; float64 holds every
    # integer only up to 2**53, so a larger scale cannot round back
    if s_max > 2 ** 53:
        raise ValueError(f"s max {s_max} is above 2**53 = {2 ** 53}, past which "
                         "float64 does not hold every integer")
    if count > MAX_SCALE_POINTS:
        raise ValueError(f"s count {count} is more than {MAX_SCALE_POINTS}")
    if count > s_max - s_min + 1:
        raise ValueError(f"scales {s_min}..{s_max} round to {s_max - s_min + 1} distinct "
                         f"integers at most, fewer than s count {count}")
    grid = np.exp(np.linspace(np.log(s_min), np.log(s_max), count))
    # np.unique would import numpy.ma, ~10 ms of every run's start-up
    grid = np.array(sorted(set(np.round(grid).astype(int).tolist())))
    if len(grid) < count:
        raise ValueError(f"scales {s_min}..{s_max} round to {len(grid)} "
                         f"distinct integers, fewer than s count {count}")
    return grid


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
        if len(q) < 4:
            raise ValueError(f"q grid has {len(q)} points, fewer than "
                             "the 4 points the quadratic tau(q) fit needs")
        if self.detrend_order not in (1, 2):
            raise ValueError("detrend_order must be 1 or 2")
        if np.any(np.diff(q) <= 0):
            raise ValueError("q_grid must be strictly increasing")
        for required in (0.0, 2.0):
            if not np.any(np.isclose(q, required)):
                raise ValueError(f"q_grid must contain q={required}")
        if len(s) < 3:
            raise ValueError(f"scale grid has {len(s)} scales, fewer than "
                             "the 3 the H(q) fit needs")
        if np.any(np.diff(s) <= 0):
            raise ValueError("scale_grid must be strictly increasing")
        if s[0] < self.detrend_order + 2:
            raise ValueError("smallest scale must be >= detrend_order + 2")

    def validate_profile(self, values):
        """The series' own rules: N/4 at the largest scale, and spread."""
        n = len(values)
        if self.scale_grid[-1] > n // 4:
            raise ScaleTooLarge(f"{n} returns are too few for the largest scale "
                                f"{self.scale_grid[-1]}, which exceeds N/4 = {n // 4}")
        if values.min() == values.max():
            raise DegenerateSeries("the profile is flat, as when every return is zero "
                                   "after the first: nothing to analyse")


@dataclass(frozen=True)
class Profile:
    """Cumulative series analyzed by detrending."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


@dataclass(frozen=True)
class FluctuationSurface:
    F: np.ndarray                 # (n_q, n_s)
    q_grid: np.ndarray
    scale_grid: np.ndarray
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
    values = np.asarray(returns, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise DataError(f"return {bad[0]} is {values[bad[0]]}, not a finite number")
    # all zero is a flat profile, which validate_profile names
    if len(values) and values.min() == values.max() != 0:
        raise DegenerateSeries(f"every return is {values[0]}: the profile is a straight "
                               "line, which every detrend order removes")
    return Profile(np.cumsum(values))


def _box_blocks(values, s):
    """floor(n/s) boxes of length s from the start of values and, unless s
    divides n, as many from its end, in row blocks of at most BOX_BLOCK
    values: views of values but the block that straddles the two passes."""
    n = len(values)
    n_boxes = n // s
    forward = values[: n_boxes * s].reshape(n_boxes, s)
    backward = values[n - n_boxes * s:].reshape(n_boxes, s)
    k = n_boxes if n_boxes * s == n else 2 * n_boxes
    rows = max(BOX_BLOCK // s, 1)
    for i in range(0, k, rows):
        j = min(i + rows, k)
        if j <= n_boxes:
            yield forward[i:j]
        elif i >= n_boxes:
            yield backward[i - n_boxes:j - n_boxes]
        else:
            yield np.concatenate([forward[i:], backward[:j - n_boxes]])


@cache
def _design_basis(s, order):
    # Orthonormal polynomial basis on a centered/scaled abscissa; raw
    # normal equations on 1..s are ill-conditioned for order 2. Built once
    # per (s, order) in a process and shared, so it is made read-only.
    t = np.arange(1, s + 1, dtype=float)
    t = (t - t.mean()) / max(t.std(), 1.0)
    basis, _ = np.linalg.qr(np.vander(t, order + 1, increasing=True))
    basis.flags.writeable = False
    return basis


def detrend_segment(values, order):
    """Residuals of the best least-squares polynomial of the given order,
    of one segment or of each row of a (k, s) array of segments."""
    values = np.asarray(values, dtype=float)
    s = values.shape[-1]
    if s < order + 2:
        raise Underdetermined(f"segment of {s} points cannot fit order {order}")
    basis = _design_basis(s, order)
    fitted = (values @ basis) @ basis.T
    return np.subtract(values, fitted, out=fitted)


def local_fluctuation(residuals):
    """Root mean square of a segment's detrended residuals, or of each row
    of a (k, s) array of them."""
    return _root_mean_square(np.array(residuals, dtype=float))


def _root_mean_square(residuals):
    """local_fluctuation of residuals, squared in place: np.mean's bits."""
    squares = np.square(residuals, out=residuals)
    return np.sqrt(np.add.reduce(squares, axis=-1) / residuals.shape[-1])


def _box_fluctuations(values, s, order):
    """Local fluctuation of every box of length s, fitted in row blocks of
    at most BOX_BLOCK values, so a box's result depends on its block's
    values, not on the length of the series."""
    return np.concatenate([_root_mean_square(detrend_segment(block, order))
                           for block in _box_blocks(values, s)])


def _power_means(log_fv, q_grid):
    """q-order power means of exp(log_fv), one per q (geometric at q=0)."""
    q_grid = np.asarray(q_grid, dtype=float)
    # the geometric mean wherever q is close to 0: dividing by a subnormal q
    # below would lose every digit of the result. This is np.isclose(q, 0)
    # with its default atol, written out because it runs at every scale.
    zero_q = np.abs(q_grid) <= 1e-8
    # each row's max: rounding is monotone, so q*x never falls as x rises for
    # q >= 0 and never rises for q < 0: q*max(log_fv) or q*min(log_fv), bitwise
    peak = q_grid * np.where(q_grid >= 0, log_fv.max(), log_fv.min())
    # log-domain power mean: peak-shifted with expm1/log1p so the result
    # degrades gracefully into the geometric mean as q -> 0. A block of q
    # rows at a time, each row's products, expm1 and mean as in one block
    means = np.empty(len(q_grid))
    rows = max(POWER_BLOCK // len(log_fv), 1)
    for i in range(0, len(q_grid), rows):
        scaled = q_grid[i:i + rows, None] * log_fv
        np.subtract(scaled, peak[i:i + rows, None], out=scaled)
        means[i:i + rows] = np.expm1(scaled, out=scaled).mean(axis=1)
    means = np.exp((peak + np.log1p(means)) / np.where(zero_q, 1.0, q_grid))
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
    cfg.validate_profile(values)

    q_grid = cfg.q_grid
    floor = DEGENERACY_FLOOR_FACTOR * float(np.std(values))
    F = np.empty((len(q_grid), len(cfg.scale_grid)))
    excluded = np.zeros_like(F, dtype=int)

    for j, s in enumerate(cfg.scale_grid.tolist()):
        fv = _box_fluctuations(values, s, cfg.detrend_order)
        keep = fv >= floor
        if not keep.any():
            raise AllBoxesDegenerate(q=q_grid[0], s=s)
        excluded[:, j] = len(fv) - keep.sum()
        F[:, j] = _power_means(np.log(fv[keep]), q_grid)

    return FluctuationSurface(F, q_grid, np.asarray(cfg.scale_grid), excluded)


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
