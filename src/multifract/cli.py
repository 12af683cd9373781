"""Command-line pipeline: input file (or generator) -> MF-DFA ->
IAAFT ensemble -> tests -> verdict report and plot-ready tables."""

import argparse
import hashlib
import json
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import get_args

import numpy as np

from . import __version__
from .errors import DataError, MultifractError
from .ingest import load_price_csv, log_returns
from .mfdfa import (
    AnalysisConfig,
    analyze_returns,
    default_q_grid,
    default_scale_grid,
    fluctuation_surface,
    make_profile,
    spectrum_from_surface,
)
from .mftest import ensemble_statistics, format_report, verdict, width_test_size
from .surrogate import derive_seed, iaaft, IaaftConfig, pocketfft_spec
from .synth import KINDS, make_spec, parse_synth_spec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
ENSEMBLE_FIELDS = ("surrogates", "seed", "alpha_level", "workers")  # RunConfig fields only analyze uses


@dataclass(frozen=True)
class RunConfig:
    """An analyze or spectrum run. Each field is a flag --<name, - for _>,
    cast by its type; metadata may rename the flag and give metavar and help."""
    input_path: str = field(default=None, metadata={"flag": "input"})
    synth_spec: str = field(default=None, metadata={
        "flag": "synth", "help": "generator spec, e.g. cascade:levels=16,p=0.3"})
    date_col: str = "date"
    value_col: str = "value"
    detrend_orders: tuple[int, ...] = field(default=(1,), metadata={
        "flag": "detrend-order", "metavar": "{1,2}", "help": "polynomial detrend order; repeatable"})
    q_min: float = -5.0
    q_max: float = 5.0
    q_step: float = 0.25
    s_min: int = 20
    s_max: int = 316
    s_count: int = 30
    surrogates: int = 1000
    seed: int = 0
    alpha_level: float = 0.05
    out_dir: str = field(default="run", metadata={"flag": "out"})
    workers: int = 1

    def __post_init__(self):
        if self.surrogates < 2:
            raise ValueError("surrogate ensemble size must be >= 2")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not 0 < self.alpha_level < 1:
            raise ValueError("alpha level must lie strictly between 0 and 1")
        if not self.detrend_orders:
            raise ValueError("at least one detrend order required")
        object.__setattr__(self, "detrend_orders", tuple(sorted(set(self.detrend_orders))))
        if bool(self.input_path) == bool(self.synth_spec):
            raise ValueError("exactly one of an input path and a synth spec is required")
        if not self.out_dir:
            raise ValueError("the output directory must not be empty")
        # the grid builders and AnalysisConfig hold the rules on q, s and order
        for order in self.detrend_orders:
            self.analysis_config(order)

    def analysis_config(self, order):
        return AnalysisConfig(
            q_grid=default_q_grid(self.q_min, self.q_max, self.q_step),
            scale_grid=default_scale_grid(self.s_min, self.s_max, self.s_count),
            detrend_order=order,
        )


def load_returns(cfg):
    """The run's returns and label, in a frame of their own so that a CSV's
    prices and dates are freed before observe fits the series."""
    if cfg.synth_spec:
        return parse_synth_spec(cfg.synth_spec).series()
    prices = load_price_csv(cfg.input_path, cfg.date_col, cfg.value_col)
    return log_returns(prices).values, prices.label


def observe(cfg, timings):
    """The run's returns, label and (config, surface, spectrum) per detrend
    order, timed as load and mfdfa_l<order> in timings. Made before any
    output, so a fault in the observed series leaves no run directory."""
    t0 = time.perf_counter()
    values, label = load_returns(cfg)
    profile = make_profile(values)
    timings["load"] = time.perf_counter() - t0
    observed = []
    for acfg in map(cfg.analysis_config, cfg.detrend_orders):
        t0 = time.perf_counter()
        surface = fluctuation_surface(profile, acfg)
        observed.append((acfg, surface, spectrum_from_surface(surface)))
        timings[f"mfdfa_l{acfg.detrend_order}"] = time.perf_counter() - t0
    return values, label, observed


def _member_spectra(values, acfgs, seed):
    """One IAAFT surrogate, analysed under every per-order config, and its
    (iterations, stop reason, spectral residual)."""
    surrogate = iaaft(values, IaaftConfig(rng_seed=seed))
    diagnostics = (surrogate.iterations, surrogate.stop_reason,
                   surrogate.spectrum_residual)
    return [analyze_returns(surrogate.values, acfg) for acfg in acfgs], diagnostics


def ensemble_spectra(values, size, base_seed, acfgs, workers=1):
    """MF-DFA spectra of a deterministic surrogate ensemble, one list per
    config in acfgs, and each member's IAAFT diagnostics: each member is
    generated once and analysed under every config.

    Per-member seeds derive from (base_seed, index), so the result is
    independent of worker count and member evaluation order. A pool
    receives the series once per chunk of 8 members, and has no more
    workers than chunks.
    """
    seeds = [derive_seed(base_seed, i) for i in range(size)]
    member = partial(_member_spectra, values, acfgs)
    if workers == 1:
        members = list(map(member, seeds))
    else:
        # imported here, so a run without a pool loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, -(-size // 8)) or 1) as pool:
            members = list(pool.map(member, seeds, chunksize=8))
    spectra = [[member[k] for member, _ in members] for k in range(len(acfgs))]
    return spectra, [diagnostics for _, diagnostics in members]


def surrogate_spectra(values, size, base_seed, acfg, workers=1):
    """MF-DFA spectra of a deterministic surrogate ensemble for one config."""
    return ensemble_spectra(values, size, base_seed, (acfg,), workers)[0][0]


def _iaaft_summary(diagnostics):
    """Manifest block of an ensemble's (iterations, stop reason, residual)."""
    iterations, reasons, residuals = zip(*diagnostics)
    return {
        "iterations_total": sum(iterations),
        "stop_reasons": {reason: reasons.count(reason) for reason in sorted(set(reasons))},
        "residual_median": float(np.median(residuals)),
        "residual_max": max(residuals),
    }


def _resources():
    """Manifest block of the minor page faults and peak resident set so far,
    of this process and of its reaped children (a pool's workers)."""
    block = {}
    for name, who in (("self", resource.RUSAGE_SELF), ("children", resource.RUSAGE_CHILDREN)):
        usage = resource.getrusage(who)
        # ru_maxrss is in KiB on Linux
        block[name] = {"minor_faults": usage.ru_minflt, "peak_rss_mb": usage.ru_maxrss / 1024}
    return block


def _write_table(path, header, columns, fmt="%.17g"):
    table = np.column_stack(columns)
    np.savetxt(path, table, delimiter="\t", header="\t".join(header),
               comments="", fmt=fmt)


def _fingerprint(cfg):
    if cfg.input_path:
        # read in chunks: a run holds no second copy of its input
        digest = hashlib.sha256()
        with open(cfg.input_path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        return digest.hexdigest()
    return hashlib.sha256(cfg.synth_spec.encode()).hexdigest()


def _write_manifest(out, cfg, config, timings, **extra):
    """out/manifest.json: the run's version, config, input fingerprint,
    timings_s and any extra blocks, outside the numeric artifacts."""
    manifest = {"version": __version__, "config": config,
                "input_fingerprint": _fingerprint(cfg), "timings_s": timings, **extra}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _write_observed(out, observed):
    """Each observed order's surface_l*.tsv and spectrum_l*.tsv under out."""
    for acfg, surface, spec in observed:
        n_q, n_s = surface.F.shape
        q = np.repeat(surface.q_grid, n_s)
        s = np.tile(surface.scale_grid, n_q)
        _write_table(out / f"surface_l{acfg.detrend_order}.tsv", ["q", "s", "F", "excluded"],
                     [q, s, surface.F.ravel(), surface.excluded.ravel()])
        _write_table(out / f"spectrum_l{acfg.detrend_order}.tsv",
                     ["q", "H", "stderr", "tau", "alpha", "f"],
                     [spec.q_grid, spec.H, spec.H_stderr, spec.tau, spec.alpha, spec.f])


@contextmanager
def _run_directory(out_dir):
    """The run directory, holding an INCOMPLETE marker until the block it
    guards ends without an exception."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    marker = out / "INCOMPLETE"
    marker.write_text("run in progress\n")
    try:
        yield out
    except BaseException:
        marker.write_text("run did not complete\n")
        raise
    marker.unlink()


def run_pipeline(cfg):
    """Full analysis per detrend order; writes all artifacts under the
    output directory and returns the per-order TestReports."""
    pocketfft_spec()  # an install that cannot run IAAFT fails before any work
    timings = {}
    values, label, observed = observe(cfg, timings)
    reports = {}
    with _run_directory(cfg.out_dir) as out:
        t0 = time.perf_counter()
        _write_observed(out, observed)
        timings["export"] = time.perf_counter() - t0
        acfgs = [acfg for acfg, _, _ in observed]
        t0 = time.perf_counter()
        ensembles, diagnostics = ensemble_spectra(values, cfg.surrogates, cfg.seed,
                                                  acfgs, workers=cfg.workers)
        timings["ensemble"] = time.perf_counter() - t0

        timings["tests"] = 0.0
        for (acfg, _, spectrum), spectra in zip(observed, ensembles):
            order = acfg.detrend_order
            tag = f"l{order}"
            t0 = time.perf_counter()
            stats = ensemble_statistics(spectra)
            reports[order] = report = verdict(label, order, spectrum, stats,
                                              significance_level=cfg.alpha_level)
            t1 = time.perf_counter()
            timings["tests"] += t1 - t0

            _write_table(out / f"ensemble_stats_{tag}.tsv",
                         ["q", "H_mean", "H_std", "tau_mean", "tau_std",
                          "f_mean", "f_std"],
                         [stats.q_grid, stats.H_mean, stats.H_std,
                          stats.tau_mean, stats.tau_std,
                          stats.f_mean, stats.f_std])
            # raw samples, not binned counts; binning is the plotter's job
            _write_table(out / f"delta_alpha_samples_{tag}.tsv", ["delta_alpha"],
                         [stats.delta_alpha_samples])
            _write_table(out / f"delta_f_samples_{tag}.tsv", ["delta_f"],
                         [stats.delta_f_samples])
            (out / f"report_{tag}.json").write_text(
                json.dumps(report.to_dict(), indent=2, sort_keys=True))
            (out / f"report_{tag}.txt").write_text(format_report(report) + "\n")
            timings["export"] += time.perf_counter() - t1

        size = width_test_size(cfg.surrogates, cfg.alpha_level)
        warnings = [f"width test size {size:.4g} at {cfg.surrogates} surrogates "
                    f"exceeds alpha {cfg.alpha_level}"] if size > cfg.alpha_level else []
        for message in warnings:
            print(f"warning: {message}", file=sys.stderr)
        _write_manifest(out, cfg, vars(cfg), timings,
                        seeds={"base": cfg.seed,
                               "members": [int(derive_seed(cfg.seed, i))
                                           for i in range(min(cfg.surrogates, 16))]},
                        iaaft=_iaaft_summary(diagnostics),
                        resources=_resources(),
                        width_test_size=size,
                        warnings=warnings)
    return reports


def compare_orders(report_a, report_b):
    """Side-by-side comparison of two detrend orders on the same input."""
    if report_a["label"] != report_b["label"]:
        raise DataError("reports come from different inputs")
    rows = []
    for key, block, name in [("H2", "hurst", "H2"),
                             ("delta_alpha", "width_test", "delta_alpha"),
                             ("p_value_width", "width_test", "p_value"),
                             ("delta_f", "spectrum_difference_test", "delta_f"),
                             ("p_value_f", "spectrum_difference_test", "p_value")]:
        a, b = report_a[block][name], report_b[block][name]
        rows.append((key, a, b, abs(a - b)))
    return {
        "label": report_a["label"],
        "orders": (report_a["detrend_order"], report_b["detrend_order"]),
        "rows": rows,
        "verdicts": (report_a["verdict"], report_b["verdict"]),
        "verdict_disagreement": report_a["verdict"] != report_b["verdict"],
    }


def format_comparison(comparison):
    a, b = comparison["orders"]
    lines = [f"Series: {comparison['label']}",
             f"{'statistic':<16}{f'l={a}':>14}{f'l={b}':>14}{'abs diff':>14}"]
    for key, va, vb, diff in comparison["rows"]:
        lines.append(f"{key:<16}{va:>14.4f}{vb:>14.4f}{diff:>14.4f}")
    lines.append(f"verdicts: l={a}: {comparison['verdicts'][0]} | "
                 f"l={b}: {comparison['verdicts'][1]}")
    if comparison["verdict_disagreement"]:
        lines.append("WARNING: verdicts disagree between detrend orders")
    return "\n".join(lines)


def _add_run_config_flags(parser, skip=()):
    """One flag per RunConfig field not in skip, cast by the field's type;
    a tuple[T, ...] field's flag repeats, each value cast by T."""
    for config_field in (f for f in fields(RunConfig) if f.name not in skip):
        meta = config_field.metadata
        flag = meta.get("flag", config_field.name.replace("_", "-"))
        item_type = get_args(config_field.type)[:1]
        parser.add_argument(f"--{flag}", dest=config_field.name, help=meta.get("help"),
                            metavar=meta.get("metavar", flag.upper().replace("-", "_")),
                            type=(item_type or (config_field.type,))[0],
                            action="append" if item_type else "store")


def _synth_keys():
    """Each key of some synth kind -> 'kind default' of each kind taking it."""
    keys = {}
    for kind, spec in KINDS.items():
        for spec_field in fields(spec):
            keys.setdefault(spec_field.name, []).append(f"{kind} {spec_field.default}")
    return keys


def build_parser():
    parser = argparse.ArgumentParser(
        prog="multifract",
        description="MF-DFA multifractality analysis with IAAFT surrogate tests",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # a flag left out sets nothing, so RunConfig's and the specs' defaults stand
    add_parser = partial(parser.add_subparsers(dest="command", required=True).add_parser,
                         argument_default=argparse.SUPPRESS)

    _add_run_config_flags(add_parser("analyze", help="full pipeline to verdict report"))
    _add_run_config_flags(add_parser("spectrum", help="MF-DFA only, no surrogates"),
                          skip=ENSEMBLE_FIELDS)

    synth = add_parser("synth", help="emit a generator series as CSV")
    synth.add_argument("--kind", required=True, choices=KINDS)
    for key, defaults in _synth_keys().items():
        synth.add_argument(f"--{key}", help=f"spec key; default {', '.join(defaults)}")
    synth.add_argument("--out", required=True, help="output CSV path")

    compare = add_parser("compare", help="compare detrend orders of one run")
    compare.add_argument("--run-dir", required=True,
                         help="run directory holding report_l1.json and report_l2.json")
    compare.add_argument("--out", default=None, help="optional comparison output file")
    return parser


def _run_config_from_args(args):
    # every parsed name but the command is a given flag's RunConfig field
    return RunConfig(**{key: value for key, value in vars(args).items() if key != "command"})


def _cmd_analyze(args):
    cfg = _run_config_from_args(args)
    reports = run_pipeline(cfg)
    for order, report in sorted(reports.items()):
        print(format_report(report))
        print()
    return EXIT_OK


def _cmd_spectrum(args):
    cfg = _run_config_from_args(args)
    timings = {}
    _, label, observed = observe(cfg, timings)
    with _run_directory(cfg.out_dir) as out:
        _write_observed(out, observed)
        # spectrum has no ensemble: its manifest records only the fields it uses
        _write_manifest(out, cfg, {key: value for key, value in vars(cfg).items()
                                   if key not in ENSEMBLE_FIELDS}, timings)
    for acfg, _, spectrum in observed:
        print(f"{label} l={acfg.detrend_order}: H(2)={spectrum.H[np.argmin(np.abs(spectrum.q_grid - 2)) ]:.4f} "
              f"delta_alpha={spectrum.delta_alpha:.4f} delta_f={spectrum.delta_f:.4f}")
    return EXIT_OK


def _synth_prices(values):
    """Prices whose log returns are values: from 100, as a running sum from
    ln 100 gives them, or centred where that walk leaves [low, high]."""
    low, high = -708.0, 709.0  # log prices whose exp is a finite, normal float64
    level = np.cumsum(np.concatenate([[np.log(100.0)], values]))
    if low <= level.min() and level.max() <= high:
        return np.concatenate([[100.0], np.exp(level[1:])])
    if np.ptp(level) > high - low:
        raise ValueError(f"the log prices of n = {len(values)} returns span "
                         f"{np.ptp(level):.0f}, more than the {high - low:.0f} "
                         "a float64 price can hold")
    return np.exp(level + (low + high - level.min() - level.max()) / 2)


def _cmd_synth(args):
    # every key flag given, cast as --synth casts it, so one the kind does
    # not take is a config error
    given = [(key, getattr(args, key)) for key in _synth_keys() if hasattr(args, key)]
    values, _ = make_spec(args.kind, given, f"synth --kind {args.kind}").series()
    prices = _synth_prices(values)
    # synthesized calendar so the file round-trips through the CSV loader
    dates = (np.datetime64("2000-01-01") + np.arange(len(prices))).astype(str)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("date,value\n")
        fh.writelines(f"{day},{price:.17g}\n" for day, price in zip(dates, prices))
    print(f"wrote {len(prices)} rows to {out}")
    return EXIT_OK


def _cmd_compare(args):
    run_dir = Path(args.run_dir)
    paths = [run_dir / "report_l1.json", run_dir / "report_l2.json"]
    try:
        comparison = compare_orders(*(json.loads(p.read_text()) for p in paths))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{run_dir}: malformed report ({type(exc).__name__}: {exc})") from None
    # a later or interrupted run into the same directory may have replaced one report only
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text())
        paired = "seeds" in manifest and {1, 2} <= set(manifest["config"]["detrend_orders"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{run_dir}: malformed manifest ({type(exc).__name__}: {exc})") from None
    if not paired or (run_dir / "INCOMPLETE").exists():
        raise DataError(f"{run_dir}: its last run is not a completed analyze run of detrend "
                        "orders 1 and 2, so the reports may come from different runs")
    text = format_comparison(comparison)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return EXIT_OK


def main(argv=None):
    handlers = {"analyze": _cmd_analyze, "spectrum": _cmd_spectrum,
                "synth": _cmd_synth, "compare": _cmd_compare}
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help
        return exc.code if exc.code is not None else EXIT_CONFIG
    try:
        return handlers[args.command](args)
    except (ValueError, ImportError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MultifractError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
