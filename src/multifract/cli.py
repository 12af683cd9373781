"""Command-line pipeline: input file (or generator) -> MF-DFA ->
IAAFT ensemble -> tests -> verdict report and plot-ready tables."""

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from datetime import date, timedelta
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, DegenerateSeries, MultifractError
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
from .mftest import ensemble_statistics, format_report, verdict
from .surrogate import derive_seed, iaaft, IaaftConfig
from .synth import CascadeSpec, FbmSpec, binomial_cascade, fbm, gaussian_white_noise

ENV_PREFIX = "MULTIFRACT_"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


@dataclass(frozen=True)
class RunConfig:
    input_path: str = None
    synth_spec: str = None
    date_col: str = "date"
    value_col: str = "value"
    detrend_orders: tuple = (1,)
    q_min: float = -5.0
    q_max: float = 5.0
    q_step: float = 0.25
    s_min: int = 20
    s_max: int = 316
    s_count: int = 30
    surrogates: int = 1000
    seed: int = 0
    alpha_level: float = 0.05
    out_dir: str = "run"
    workers: int = 1

    def __post_init__(self):
        if self.surrogates < 2:
            raise ValueError("surrogate ensemble size must be >= 2")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not 0 < self.alpha_level < 1:
            raise ValueError("alpha level must lie strictly between 0 and 1")
        if not self.q_step > 0:
            raise ValueError("q step must be positive")
        if len(default_q_grid(self.q_min, self.q_max, self.q_step)) < 4:
            raise ValueError(f"q grid {self.q_min}..{self.q_max} step {self.q_step} has fewer "
                             "than the 4 points the quadratic tau(q) fit needs")
        if not (self.s_min > 0 and self.s_max > 0 and self.s_count > 0):
            raise ValueError("s min, s max and s count must be positive")
        scales = len(default_scale_grid(self.s_min, self.s_max, self.s_count))
        if scales < self.s_count:
            raise ValueError(f"scales {self.s_min}..{self.s_max} round to {scales} "
                             f"distinct integers, fewer than s count {self.s_count}")
        if not self.detrend_orders:
            raise ValueError("at least one detrend order required")
        if not (self.input_path or self.synth_spec):
            raise ValueError("either an input path or a synth spec is required")
        # AnalysisConfig rejects an order outside {1, 2} and a q grid without 0 or 2
        for order in self.detrend_orders:
            self.analysis_config(order)

    def analysis_config(self, order):
        return AnalysisConfig(
            q_grid=default_q_grid(self.q_min, self.q_max, self.q_step),
            scale_grid=default_scale_grid(self.s_min, self.s_max, self.s_count),
            detrend_order=order,
        )


# each --synth kind's keys, as (cast, default); the names are the
# parameters of the kind's generator, and an unseeded cascade is unshuffled
SYNTH_KEYS = {
    "cascade": {"levels": (int, 16), "p": (float, 0.3), "seed": (int, None)},
    "fbm": {"n": (int, 16384), "hurst": (float, 0.5), "seed": (int, 0)},
    "noise": {"n": (int, 16384), "seed": (int, 0)},
}


def parse_synth_spec(spec):
    """'kind:key=value,...' -> (kind, params), every key of the kind cast
    and defaulted from SYNTH_KEYS."""
    kind, _, rest = (part.strip() for part in spec.partition(":"))
    if kind not in SYNTH_KEYS:
        raise ValueError(f"unknown synth kind {kind!r}")
    keys = SYNTH_KEYS[kind]
    params = {key: default for key, (_, default) in keys.items()}
    for item in rest.split(",") if rest else ():
        key, _, value = (part.strip() for part in item.partition("="))
        if key not in keys:
            raise ValueError(f"synth kind {kind!r} takes no key {key!r}; "
                             f"its keys are {', '.join(keys)}")
        params[key] = keys[key][0](value)
    return kind, params


def synth_series(spec):
    """Return series named by a synth spec string (used as returns input)."""
    kind, params = parse_synth_spec(spec)
    if kind == "cascade":
        masses = binomial_cascade(CascadeSpec(**params))
        return masses, f"cascade(levels={params['levels']},p={params['p']})"
    if kind == "fbm":
        path = fbm(FbmSpec(**params))
        return np.diff(np.concatenate([[0.0], path])), f"fbm(H={params['hurst']})"
    return gaussian_white_noise(**params), "gaussian-noise"


def load_returns(cfg):
    if cfg.synth_spec:
        values, label = synth_series(cfg.synth_spec)
    else:
        prices = load_price_csv(cfg.input_path, cfg.date_col, cfg.value_col)
        values, label = log_returns(prices).values, prices.label
    if not values.any():
        raise DegenerateSeries(f"{label}: every return is zero, nothing to analyse")
    return values, label


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
    receives the series once per chunk of 8 members.
    """
    acfgs = tuple(acfgs)
    seeds = [derive_seed(base_seed, i) for i in range(size)]
    member = partial(_member_spectra, values, acfgs)
    if workers == 1:
        members = list(map(member, seeds))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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


def _write_table(path, header, columns, fmt="%.17g"):
    table = np.column_stack(columns)
    np.savetxt(path, table, delimiter="\t", header="\t".join(header),
               comments="", fmt=fmt)


def _fingerprint(cfg):
    if cfg.input_path:
        return hashlib.sha256(Path(cfg.input_path).read_bytes()).hexdigest()
    return hashlib.sha256(cfg.synth_spec.encode()).hexdigest()


def export_surface(surface, path):
    n_q, n_s = surface.F.shape
    q = np.repeat(surface.q_grid, n_s)
    s = np.tile(surface.scale_grid, n_q)
    _write_table(path, ["q", "s", "F", "excluded"],
                 [q, s, surface.F.ravel(), surface.excluded.ravel()])


def export_spectrum(spec, path):
    _write_table(path, ["q", "H", "stderr", "tau", "alpha", "f"],
                 [spec.q_grid, spec.H, spec.H_stderr, spec.tau, spec.alpha, spec.f])


def run_pipeline(cfg):
    """Full analysis per detrend order; writes all artifacts under the
    output directory and returns the per-order TestReports."""
    # loaded first, so a fault in the input leaves no run directory behind
    t0 = time.perf_counter()
    values, label = load_returns(cfg)
    timings = {"load": time.perf_counter() - t0}
    reports = {}
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    marker = out / "INCOMPLETE"
    marker.write_text("run in progress\n")
    try:
        acfgs = [cfg.analysis_config(order) for order in cfg.detrend_orders]
        profile = make_profile(values)
        observed = []
        for acfg in acfgs:
            t0 = time.perf_counter()
            surface = fluctuation_surface(profile, acfg)
            observed.append((surface, spectrum_from_surface(surface)))
            timings[f"mfdfa_l{acfg.detrend_order}"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        ensembles, diagnostics = ensemble_spectra(values, cfg.surrogates, cfg.seed,
                                                  acfgs, workers=cfg.workers)
        timings["ensemble"] = time.perf_counter() - t0

        for order, (surface, spectrum), spectra in zip(cfg.detrend_orders, observed,
                                                       ensembles):
            tag = f"l{order}"
            stats = ensemble_statistics(spectra)
            report = verdict(label, order, spectrum, stats,
                             significance_level=cfg.alpha_level)
            reports[order] = report

            export_surface(surface, out / f"surface_{tag}.tsv")
            export_spectrum(spectrum, out / f"spectrum_{tag}.tsv")
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

        manifest = {
            "version": __version__,
            "config": {k: (list(v) if isinstance(v, tuple) else v)
                       for k, v in vars(cfg).items()},
            "seeds": {"base": cfg.seed,
                      "members": [int(derive_seed(cfg.seed, i))
                                  for i in range(min(cfg.surrogates, 16))]},
            "input_fingerprint": _fingerprint(cfg),
            "timings_s": timings,
            "iaaft": _iaaft_summary(diagnostics),
        }
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        marker.unlink()
    except BaseException:
        marker.write_text("run did not complete\n")
        raise
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


def _add_config_flag(parser, flag, cast=str, field=None):
    """Add --<flag>, cast into the RunConfig field named by field or else by
    the flag; MULTIFRACT_<FLAG> in the environment replaces its default."""
    field = field or flag.replace("-", "_")
    metavar = flag.upper().replace("-", "_")
    name = ENV_PREFIX + metavar
    raw = os.environ.get(name)
    try:
        default = getattr(RunConfig, field) if raw is None else cast(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not a valid {cast.__name__}") from None
    parser.add_argument(f"--{flag}", dest=field, metavar=metavar, type=cast, default=default)


def _add_grid_flags(parser):
    parser.add_argument("--detrend-order", action="append", type=int, metavar="{1,2}",
                        help="polynomial detrend order; repeatable")
    _add_config_flag(parser, "q-min", float)
    _add_config_flag(parser, "q-max", float)
    _add_config_flag(parser, "q-step", float)
    _add_config_flag(parser, "s-min", int)
    _add_config_flag(parser, "s-max", int)
    _add_config_flag(parser, "s-count", int)


def _add_input_flags(parser):
    _add_config_flag(parser, "input", field="input_path")
    parser.add_argument("--synth", dest="synth_spec", metavar="SYNTH",
                        help="generator spec, e.g. cascade:levels=16,p=0.3")
    _add_config_flag(parser, "date-col")
    _add_config_flag(parser, "value-col")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="multifract",
        description="MF-DFA multifractality analysis with IAAFT surrogate tests",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full pipeline to verdict report")
    _add_input_flags(analyze)
    _add_grid_flags(analyze)
    _add_config_flag(analyze, "surrogates", int)
    _add_config_flag(analyze, "seed", int)
    _add_config_flag(analyze, "alpha-level", float)
    _add_config_flag(analyze, "out", field="out_dir")
    _add_config_flag(analyze, "workers", int)

    spectrum = sub.add_parser("spectrum", help="MF-DFA only, no surrogates")
    _add_input_flags(spectrum)
    _add_grid_flags(spectrum)
    _add_config_flag(spectrum, "out", field="out_dir")

    synth = sub.add_parser("synth", help="emit a generator series as CSV")
    synth.add_argument("--kind", required=True, choices=SYNTH_KEYS)
    synth.add_argument("--levels", type=int)
    synth.add_argument("--p", type=float)
    synth.add_argument("--n", type=int)
    synth.add_argument("--hurst", type=float)
    synth.add_argument("--seed", type=int,
                       help="generator seed; fbm and noise use 0 when unset, "
                            "cascade is then unshuffled")
    synth.add_argument("--out", required=True, help="output CSV path")

    compare = sub.add_parser("compare", help="compare detrend orders of one run")
    compare.add_argument("--run-dir", required=True,
                         help="run directory holding report_l1.json and report_l2.json")
    compare.add_argument("--out", default=None, help="optional comparison output file")
    return parser


def _run_config_from_args(args):
    # each flag's dest is its RunConfig field; spectrum has no ensemble
    # flags, so RunConfig's defaults stand in for them
    names = {field.name for field in fields(RunConfig)}
    given = {key: value for key, value in vars(args).items() if key in names}
    return RunConfig(detrend_orders=tuple(sorted(set(args.detrend_order or [1]))), **given)


def _cmd_analyze(args):
    cfg = _run_config_from_args(args)
    reports = run_pipeline(cfg)
    for order, report in sorted(reports.items()):
        print(format_report(report))
        print()
    return EXIT_OK


def _cmd_spectrum(args):
    cfg = _run_config_from_args(args)
    out = Path(cfg.out_dir)
    values, label = load_returns(cfg)
    profile = make_profile(values)
    for order in cfg.detrend_orders:
        surface = fluctuation_surface(profile, cfg.analysis_config(order))
        spectrum = spectrum_from_surface(surface)
        # created only now, so a data fault leaves no empty directory behind
        out.mkdir(parents=True, exist_ok=True)
        export_surface(surface, out / f"surface_l{order}.tsv")
        export_spectrum(spectrum, out / f"spectrum_l{order}.tsv")
        print(f"{label} l={order}: H(2)={spectrum.H[np.argmin(np.abs(spectrum.q_grid - 2)) ]:.4f} "
              f"delta_alpha={spectrum.delta_alpha:.4f} delta_f={spectrum.delta_f:.4f}")
    return EXIT_OK


def _cmd_synth(args):
    # every flag given, so one the kind does not take is a config error
    given = [f"{key}={getattr(args, key)}" for key in ("levels", "p", "n", "hurst", "seed")
             if getattr(args, key) is not None]
    values, _ = synth_series(f"{args.kind}:{','.join(given)}")
    # synthesized calendar so the file round-trips through the CSV loader;
    # prices are exp of the cumulative series, so log-returns recover it
    start = date(2000, 1, 1)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("date,value\n")
        fh.write(f"{start.isoformat()},100\n")
        level = np.log(100.0)
        for i, v in enumerate(values):
            level += v
            fh.write(f"{(start + timedelta(days=i + 1)).isoformat()},"
                     f"{np.exp(level):.17g}\n")
    print(f"wrote {len(values) + 1} rows to {out}")
    return EXIT_OK


def _cmd_compare(args):
    run_dir = Path(args.run_dir)
    paths = [run_dir / "report_l1.json", run_dir / "report_l2.json"]
    try:
        comparison = compare_orders(*(json.loads(p.read_text()) for p in paths))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{run_dir}: malformed report ({type(exc).__name__}: {exc})") from None
    text = format_comparison(comparison)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return EXIT_OK


def main(argv=None):
    handlers = {"analyze": _cmd_analyze, "spectrum": _cmd_spectrum,
                "synth": _cmd_synth, "compare": _cmd_compare}
    try:
        # building the parser casts the MULTIFRACT_* environment defaults
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on bad flags, 0 on --help
            return exc.code if exc.code is not None else EXIT_CONFIG
        return handlers[args.command](args)
    except ValueError as exc:
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
