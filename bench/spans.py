"""In-memory spans around the calls into each multifract module, recorded
by wrapping the public functions where the program looks them up, and the
per-layer metrics computed from them."""

import hashlib
import statistics
import time

import numpy as np


class Tracer:
    """Records one span per wrapped call: name, start, end and the index
    of the span that was open when the call began."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._patched = []
        self.failures = []

    def wrap(self, module, attr, name, annotate=None):
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(index)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if annotate is not None:
                annotate(self, span, args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def _digest(values):
    return hashlib.sha1(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def _note_rows(tracer, span, args, prices):
    span["rows"] = len(prices)


def _note_surface(tracer, span, args, surface):
    span["key"] = f"{_digest(args[0].values)}/l{args[1].detrend_order}"


def _note_iaaft(tracer, span, args, result):
    source, cfg = args[0], args[1]
    span["seed"] = int(cfg.rng_seed)
    span["iterations"] = int(result.iterations)
    span["residual"] = float(result.spectrum_residual)
    if not np.array_equal(np.sort(result.values), np.sort(np.asarray(source, dtype=float))):
        tracer.failures.append(f"iaaft seed {cfg.rng_seed}: sorted values differ from the source's")


def install(tracer, cli, mfdfa):
    """Wrap every layer boundary of a user's path through the CLI.

    cli reaches ingest, mfdfa, surrogate and mftest through its own module
    namespace; analyze_returns and analyze_profile reach the rest of mfdfa
    through the mfdfa namespace."""
    for attr, name, annotate in (
        ("main", "cli.main", None),
        ("run_pipeline", "cli.run_pipeline", None),
        ("_cmd_spectrum", "cli._cmd_spectrum", None),
        ("surrogate_spectra", "cli.surrogate_spectra", None),
        ("load_price_csv", "ingest.load_price_csv", _note_rows),
        ("log_returns", "ingest.log_returns", None),
        ("fluctuation_surface", "mfdfa.fluctuation_surface", _note_surface),
        ("analyze_returns", "mfdfa.analyze_returns", None),
        ("iaaft", "surrogate.iaaft", _note_iaaft),
        ("ensemble_statistics", "mftest.ensemble_statistics", None),
        ("verdict", "mftest.verdict", None),
    ):
        tracer.wrap(cli, attr, name, annotate)
    for attr, name, annotate in (
        ("analyze_profile", "mfdfa.analyze_profile", None),
        ("fluctuation_surface", "mfdfa.fluctuation_surface", _note_surface),
        ("hurst_spectrum", "mfdfa.hurst_spectrum", None),
        ("mass_exponents", "mfdfa.mass_exponents", None),
        ("singularity_spectrum", "mfdfa.singularity_spectrum", None),
    ):
        tracer.wrap(mfdfa, attr, name, annotate)


# Spans whose self time is orchestration in the cli layer: exports,
# manifest, report printing and argument handling.
CLI_SELF = ("cli.main", "cli.run_pipeline", "cli._cmd_spectrum")
REGRESSION = ("mfdfa.hurst_spectrum", "mfdfa.mass_exponents", "mfdfa.singularity_spectrum")


def layer_metrics(spans):
    """Per-layer figures of one traced CLI call, from its spans."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        return sum(s["end"] - s["start"] for s in named(*names))

    surfaces = named("mfdfa.fluctuation_surface")
    members = named("surrogate.iaaft")
    iterations = sum(s["iterations"] for s in members)
    iaaft_s = total("surrogate.iaaft")
    return {
        "ingest.load_s": total("ingest.load_price_csv", "ingest.log_returns"),
        "ingest.rows": sum(s["rows"] for s in named("ingest.load_price_csv")),
        "mfdfa.surface_calls": len(surfaces),
        "mfdfa.surface_s": total("mfdfa.fluctuation_surface"),
        "mfdfa.surface_ms_per_call": 1e3 * total("mfdfa.fluctuation_surface") / max(len(surfaces), 1),
        "mfdfa.useful_surface_ratio": len({s["key"] for s in surfaces}) / max(len(surfaces), 1),
        "mfdfa.regression_s": total(*REGRESSION),
        "surrogate.iaaft_calls": len(members),
        "surrogate.iaaft_s": iaaft_s,
        "surrogate.iaaft_ms_per_call": 1e3 * iaaft_s / max(len(members), 1),
        "surrogate.iterations_total": iterations,
        "surrogate.ms_per_iteration": 1e3 * iaaft_s / max(iterations, 1),
        "surrogate.useful_member_ratio": len({s["seed"] for s in members}) / max(len(members), 1),
        "surrogate.residual_median": statistics.median(s["residual"] for s in members) if members else 0.0,
        "mftest.stats_s": total("mftest.ensemble_statistics", "mftest.verdict"),
        "cli.ensemble_s": total("cli.surrogate_spectra"),
        "cli.self_s": sum(s["end"] - s["start"] - child_time[i]
                          for i, s in enumerate(spans) if s["name"] in CLI_SELF),
    }


# Figures that must repeat exactly between traced calls of one input.
COUNTS = ("ingest.rows", "mfdfa.surface_calls", "mfdfa.useful_surface_ratio",
          "surrogate.iaaft_calls", "surrogate.iterations_total",
          "surrogate.useful_member_ratio", "surrogate.residual_median")

UNITS = {
    "ingest.load_s": "s",
    "ingest.rows": "count",
    "mfdfa.surface_calls": "count",
    "mfdfa.surface_s": "s",
    "mfdfa.surface_ms_per_call": "ms",
    "mfdfa.useful_surface_ratio": "ratio",
    "mfdfa.regression_s": "s",
    "surrogate.iaaft_calls": "count",
    "surrogate.iaaft_s": "s",
    "surrogate.iaaft_ms_per_call": "ms",
    "surrogate.iterations_total": "count",
    "surrogate.ms_per_iteration": "ms",
    "surrogate.useful_member_ratio": "ratio",
    "surrogate.residual_median": "ratio",
    "mftest.stats_s": "s",
    "cli.ensemble_s": "s",
    "cli.self_s": "s",
}
