"""Statistical tests for intrinsic multifractality against an IAAFT
surrogate ensemble."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, RankDeficient

# Numerical-derivative noise should not flip the monotonicity flag.
MONOTONE_TOLERANCE = 1e-6

VERDICT_INTRINSIC = "intrinsic multifractality"
VERDICT_APPARENT = "apparent only"
VERDICT_NONE = "none"


@dataclass(frozen=True)
class QuadFit:
    """OLS fit of tau(q) = a0 + a1 q + a2 q^2 with classical diagnostics."""

    coefficients: np.ndarray      # (a0, a1, a2)
    stderr: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    f_stat: float
    model_p_value: float
    r_squared: float
    df_resid: int


@dataclass(frozen=True)
class EnsembleStats:
    q_grid: np.ndarray
    H_mean: np.ndarray
    H_std: np.ndarray
    tau_mean: np.ndarray
    tau_std: np.ndarray
    f_mean: np.ndarray
    f_std: np.ndarray
    delta_alpha_samples: np.ndarray
    delta_f_samples: np.ndarray


@dataclass(frozen=True)
class ShapeFlags:
    h_monotone: bool      # H(q) non-increasing in q
    bell_shaped: bool     # alpha(q) strictly decreasing in q
    knot: bool            # alpha(q) changes direction somewhere


@dataclass(frozen=True)
class TestReport:
    """One series' tests at one detrend order. hurst, width_test and
    spectrum_difference_test are the blocks report_l*.json writes."""

    label: str
    detrend_order: int
    hurst: dict
    quad_fit: QuadFit
    width_test: dict
    spectrum_difference_test: dict
    shape: ShapeFlags
    significance_level: float
    verdict: str

    @property
    def p_value_width(self):
        return self.width_test["p_value"]

    def to_dict(self):
        fit = self.quad_fit
        return {
            "label": self.label,
            "detrend_order": self.detrend_order,
            "hurst": dict(self.hurst),
            "quadratic_fit": {
                "a0": fit.coefficients[0],
                "a1": fit.coefficients[1],
                "a2": fit.coefficients[2],
                "t_stats": list(fit.t_stats),
                "p_values": list(fit.p_values),
                "F_stat": fit.f_stat,
                "model_p_value": fit.model_p_value,
                "R2": fit.r_squared,
                "df_resid": fit.df_resid,
                # grid points of tau(q) are serially dependent; the
                # classical t/F sampling theory is used regardless, as is
                # conventional for this diagnostic
                "caveat": "classical OLS p-values on serially dependent grid points",
            },
            "width_test": dict(self.width_test),
            "spectrum_difference_test": dict(self.spectrum_difference_test),
            "shape": {
                "H_monotone_decreasing": self.shape.h_monotone,
                "bell_shaped": self.shape.bell_shaped,
                "knot": self.shape.knot,
            },
            "significance_level": self.significance_level,
            "verdict": self.verdict,
        }


def ensemble_statistics(spectra):
    """Per-q sample means/stds and the width/difference sample vectors
    over an ensemble of surrogate spectra."""
    if len(spectra) < 2:
        raise GridMismatch("need at least 2 spectra")
    q_grid = spectra[0].q_grid
    for spec in spectra[1:]:
        if len(spec.q_grid) != len(q_grid) or not np.allclose(spec.q_grid, q_grid):
            raise GridMismatch("spectra computed on different q grids")
    H = np.stack([s.H for s in spectra])
    tau = np.stack([s.tau for s in spectra])
    f = np.stack([s.f for s in spectra])
    return EnsembleStats(
        q_grid=q_grid,
        H_mean=H.mean(axis=0),
        H_std=H.std(axis=0, ddof=1),
        tau_mean=tau.mean(axis=0),
        tau_std=tau.std(axis=0, ddof=1),
        f_mean=f.mean(axis=0),
        f_std=f.std(axis=0, ddof=1),
        delta_alpha_samples=np.array([s.delta_alpha for s in spectra]),
        delta_f_samples=np.array([s.delta_f for s in spectra]),
    )


def _betainc(a, b, x, y):
    """Regularized incomplete beta I_x(a, b), y = 1 - x passed in so that
    neither loses digits to a subtraction: its continued fraction by Lentz's
    method, on the side of I_x(a, b) = 1 - I_y(b, a) where it converges fast."""
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, y, x)
    if x == 0.0:
        return 0.0
    # log B(a, b): past 20, where lgamma's absolute error (~1e-12 at 400)
    # would show, log Gamma(big + small) - log Gamma(big) is Stirling's series
    small, big = sorted((a, b))
    rest = [(1 / 12 - (1 / 360 - (1 / 1260 - 1 / 1680 / z ** 2) / z ** 2) / z ** 2) / z
            for z in (big, big + small)]  # log Gamma(z) - (z - 1/2) log z + z - log(2 pi)/2
    log_beta = (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b) if big < 20 else
                math.lgamma(small) - (big + small - 0.5) * math.log1p(small / big)
                - small * math.log(big) + small + rest[0] - rest[1])
    # x^a y^b / B(a, b), with log x = -log1p(y/x) exact to rounding near x = 1
    front = math.exp(-a * math.log1p(y / x) - b * math.log1p(x / y) - log_beta) / a
    g, c, d = 1.0, 1.0, 0.0
    for m in range(10_000):
        for num in (-(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
                    (m + 1) * (b - m - 1) * x / ((a + 2 * m + 1) * (a + 2 * m + 2))):
            d = 1.0 / ((1.0 + num * d) or 1e-300)
            c = (1.0 + num / c) or 1e-300
            g *= c * d
        if not abs(c * d - 1.0) >= 1e-15:  # converged, or nan
            break
    return front / g


def _t_tail(t, df):
    """Two-sided Student t tail P(|T| > |t|) on df degrees of freedom,
    I_x(df/2, 1/2) at x = df/(df + t^2). As scipy.special.stdtr does, it
    gives 1.0 at t = 0, 0.0 at |t| = inf and nan at nan; 0.0 also from
    |t| ~ 1.3e154 on, where t^2 overflows and the tail is below 1e-154."""
    t2 = t * t
    return _betainc(df / 2, 0.5, df / (df + t2), t2 / (df + t2))


def _f2_tail(f, df):
    """Upper tail of F(2, df), (1 + 2f/df)^(-df/2), and 1 below its support."""
    return math.exp(-df / 2 * math.log1p(2 * max(f, 0.0) / df))


def quadratic_tau_fit(q_grid, tau):
    """OLS of tau on [1, q, q^2] with t-statistics, model F and R^2."""
    q = np.asarray(q_grid, dtype=float)
    tau = np.asarray(tau, dtype=float)
    n = len(q)
    if n < 4:
        raise RankDeficient("need at least 4 grid points")
    X = np.column_stack([np.ones(n), q, q * q])
    if np.linalg.matrix_rank(X) < 3:
        raise RankDeficient("collinear design matrix")

    coef, _, _, _ = np.linalg.lstsq(X, tau, rcond=None)
    fitted = X @ coef
    resid = tau - fitted
    df = n - 3
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((tau - tau.mean()) ** 2))
    sigma2 = ss_res / df
    cov = sigma2 * np.linalg.inv(X.T @ X)
    stderr = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(stderr > 0, coef / stderr, np.inf * np.sign(coef))
    p_values = np.array([_t_tail(t, df) for t in t_stats.tolist()])
    if ss_res == 0.0:
        f_stat, model_p, r2 = np.inf, 0.0, 1.0
    else:
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        f_stat = (ss_tot - ss_res) / 2 / sigma2
        model_p = _f2_tail(f_stat, df)
    return QuadFit(coef, stderr, t_stats, p_values, float(f_stat), float(model_p),
                   float(r2), df)


def _exceedance(observed, samples):
    """Share of the samples above the observed value; ties do not count."""
    return float(np.count_nonzero(samples > observed)) / len(samples)


def width_test(delta_alpha, ens_stats):
    """Empirical p-value of the observed width against the surrogate ones."""
    return _exceedance(delta_alpha, ens_stats.delta_alpha_samples)


def width_test_size(n_surrogates, significance_level):
    """Null probability that the width test rejects: the observed width is
    exchangeable with the N surrogate ones, so k is uniform on 0..N and
    the size is the share of k with k/N < alpha, ceil(alpha N)/(N + 1)."""
    k = np.arange(n_surrogates + 1)
    return float(np.count_nonzero(k / n_surrogates < significance_level)) / (n_surrogates + 1)


def spectrum_difference_test(delta_f, ens_stats):
    """Empirical p-value on the spectrum difference. Supporting evidence
    only, never sole rejection grounds."""
    return _exceedance(delta_f, ens_stats.delta_f_samples)


def shape_diagnostics(spectrum):
    """Monotone-H, bell-shape and knot flags of one spectrum.

    Bell shape is formalized as alpha(q) strictly decreasing (single-peaked
    f with no self-intersection); a knot is any direction change in alpha.
    """
    dH = np.diff(spectrum.H)
    d_alpha = np.diff(spectrum.alpha)
    h_monotone = bool(np.all(dH <= MONOTONE_TOLERANCE))
    if np.all(np.abs(d_alpha) <= MONOTONE_TOLERANCE):
        # monofractal limit: flat alpha counts as degenerate-bell, no knot
        return ShapeFlags(h_monotone, True, False)
    bell = bool(np.all(d_alpha < 0))
    knot = bool(np.any(np.sign(d_alpha[:-1]) * np.sign(d_alpha[1:]) < 0))
    return ShapeFlags(h_monotone, bell, knot)


def verdict(label, detrend_order, spectrum, ens_stats, significance_level=0.05):
    """Combine all component tests into a TestReport.

    Intrinsic multifractality requires monotone H, a bell-shaped spectrum,
    a significantly negative quadratic coefficient, and a width-test
    rejection; with the width test non-significant the multifractality is
    at most apparent. The spectrum-difference p-value is recorded but
    never decisive.
    """
    def tested(name, observed, samples, test, **extra):
        return {name: float(observed), "ensemble_mean": float(samples.mean()),
                "ensemble_std": float(samples.std(ddof=1)),
                "p_value": test(observed, ens_stats), **extra}

    quad_fit = quadratic_tau_fit(spectrum.q_grid, spectrum.tau)
    shape = shape_diagnostics(spectrum)
    width = tested("delta_alpha", spectrum.delta_alpha, ens_stats.delta_alpha_samples,
                   width_test)

    a2 = quad_fit.coefficients[2]
    a2_significant_negative = (a2 < 0) and (quad_fit.p_values[2] < significance_level)
    apparent = shape.h_monotone and shape.bell_shaped and a2_significant_negative
    if apparent and width["p_value"] < significance_level:
        label_verdict = VERDICT_INTRINSIC
    elif apparent:
        label_verdict = VERDICT_APPARENT
    else:
        label_verdict = VERDICT_NONE

    q2 = int(np.argmin(np.abs(spectrum.q_grid - 2.0)))
    return TestReport(
        label=label,
        detrend_order=detrend_order,
        hurst={"H2": float(spectrum.H[q2]), "surrogate_mean": float(ens_stats.H_mean[q2]),
               "surrogate_std": float(ens_stats.H_std[q2])},
        quad_fit=quad_fit,
        width_test=width,
        spectrum_difference_test=tested("delta_f", spectrum.delta_f, ens_stats.delta_f_samples,
                                        spectrum_difference_test,
                                        role="supporting evidence only"),
        shape=shape,
        significance_level=significance_level,
        verdict=label_verdict,
    )


def format_report(report):
    """Human-readable table mirroring the quadratic-fit, width and
    spectrum-difference test layouts."""
    fit = report.quad_fit
    h, width, diff = report.hurst, report.width_test, report.spectrum_difference_test
    lines = [
        f"Series: {report.label}   detrend order: {report.detrend_order}",
        "",
        f"H(2) = {h['H2']:.4f}   surrogate <H(2)> = "
        f"{h['surrogate_mean']:.4f} +/- {h['surrogate_std']:.4f}",
        "",
        "Quadratic fit of tau(q) = a0 + a1 q + a2 q^2",
        f"  F = {fit.f_stat:.1f}  p = {fit.model_p_value:.4f}  R2 = {fit.r_squared:.4f}",
        f"  a1 = {fit.coefficients[1]:.4f}  t = {fit.t_stats[1]:.1f}  "
        f"p = {fit.p_values[1]:.4f}",
        f"  a2 = {fit.coefficients[2]:.4f}  t = {fit.t_stats[2]:.1f}  "
        f"p = {fit.p_values[2]:.4f}",
        "",
        "Width test",
        f"  delta_alpha = {width['delta_alpha']:.4f}  "
        f"<dalpha_hat> = {width['ensemble_mean']:.4f}  "
        f"sigma = {width['ensemble_std']:.4f}  p = {width['p_value']:.4f}",
        "Spectrum-difference test (supporting only)",
        f"  delta_f = {diff['delta_f']:.4f}  "
        f"<df_hat> = {diff['ensemble_mean']:.4f}  "
        f"sigma = {diff['ensemble_std']:.4f}  p = {diff['p_value']:.4f}",
        "",
        f"Shape: H monotone decreasing = {report.shape.h_monotone}, "
        f"bell-shaped = {report.shape.bell_shaped}, knot = {report.shape.knot}",
        f"Verdict: {report.verdict}",
    ]
    return "\n".join(lines)
