"""MF-DFA multifractality analysis with IAAFT surrogate hypothesis tests."""

import os

# before numpy loads OpenBLAS, whose threads the box fits never use (BOX_BLOCK)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .ingest import PriceSeries, ReturnSeries, load_price_csv, log_returns
from .mfdfa import (
    AnalysisConfig,
    FluctuationSurface,
    MultifractalSpectrum,
    Profile,
    analyze_profile,
    analyze_returns,
    default_q_grid,
    default_scale_grid,
    detrend_segment,
    fluctuation_surface,
    hurst_spectrum,
    local_fluctuation,
    make_profile,
    mass_exponents,
    overall_fluctuation,
    singularity_spectrum,
    spectrum_from_surface,
)
from .mftest import (
    EnsembleStats,
    QuadFit,
    ShapeFlags,
    TestReport,
    ensemble_statistics,
    format_report,
    quadratic_tau_fit,
    shape_diagnostics,
    spectrum_difference_test,
    verdict,
    width_test,
)
from .surrogate import IaaftConfig, IaaftResult, iaaft
from .synth import (
    CascadeSpec,
    FbmSpec,
    NoiseSpec,
    binomial_cascade,
    cascade_analytic_hq,
    fbm,
    fgn,
    gaussian_white_noise,
)
