"""Reference computations made apart from the program, and the checks that
compare a run directory's artifacts against them.

Each check function returns a list of failure messages; an empty list
means the artifacts passed. Nothing here imports multifract.
"""

import csv
import json
from pathlib import Path

import numpy as np

# Oracle bands, set from seed sweeps (see README.md).
NOISE_H2_BAND = 0.02          # |H(2) - 0.5| for i.i.d. Gaussian returns, n = 2^18
NOISE_DELTA_ALPHA_MAX = 0.08  # singularity width of the same
CASCADE_H_BAND = 0.15         # max |H(q) - closed form| over |q| <= 2, n = 2^14

# Cells of F_q(s) recomputed from the CSV: q values, and scales picked by
# position on the scale grid (first, a middle one, last).
CHECK_Q = (-4.0, -1.0, 0.0, 2.0, 4.0)
F_RTOL = 1e-9


def read_prices(path, value_col="value"):
    with open(path, newline="", encoding="utf-8") as fh:
        return np.array([float(row[value_col]) for row in csv.DictReader(fh)])


def log_returns(prices):
    return np.diff(np.log(prices))


def box_windows(n, s):
    """Boxes of length s from the start and, when s does not divide n,
    the same number again from the end."""
    k = n // s
    windows = [(v * s, (v + 1) * s) for v in range(k)]
    if k * s != n:
        windows += [(n - (v + 1) * s, n - v * s) for v in range(k)]
    return windows


def box_variances(profile, s, order):
    """Mean squared residual of a plain least-squares polynomial fit
    within each box."""
    boxes = np.stack([profile[a:b] for a, b in box_windows(len(profile), s)], axis=1)
    t = np.arange(1, s + 1, dtype=float)
    fitted = np.vander(t, order + 1) @ np.polyfit(t, boxes, order)
    return np.mean((boxes - fitted) ** 2, axis=0)


def power_mean_fluctuation(variances, q):
    """F_q = (mean over boxes of F^2^(q/2))^(1/q); geometric mean at q = 0."""
    if q == 0:
        return float(np.exp(0.5 * np.mean(np.log(variances))))
    return float(np.mean(variances ** (q / 2.0)) ** (1.0 / q))


def ols_slope(x, y):
    x_c = x - x.mean()
    return float(np.dot(x_c, y - y.mean()) / np.dot(x_c, x_c))


def cascade_hq(p, q):
    """Closed-form H(q) of the binomial cascade, from
    tau(q) = -log2(p^q + (1-p)^q) and H = (tau + 1) / q; the q -> 0 limit
    is -(ln p + ln(1-p)) / (2 ln 2)."""
    q = np.asarray(q, dtype=float)
    safe = np.where(q == 0, 1.0, q)
    hq = (1.0 - np.log2(p ** safe + (1.0 - p) ** safe)) / safe
    return np.where(q == 0, -(np.log(p) + np.log(1.0 - p)) / (2.0 * np.log(2.0)), hq)


def partition_tau(masses, q):
    """tau(q) by brute force: slope of log2 Z(q, eps) on log2 eps, where
    Z sums the q-th powers of the dyadic box masses at box size eps."""
    n = len(masses)
    levels = int(np.log2(n))
    log_eps, log_z = [], []
    for k in range(1, levels + 1):
        boxes = masses.reshape(2 ** k, -1).sum(axis=1)
        log_eps.append(-k)
        log_z.append(np.log2(np.sum(boxes ** q)))
    return ols_slope(np.array(log_eps, float), np.array(log_z))


def read_table(path):
    """Tab-separated table with a header row -> {column: array}."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split("\t")
    data = np.loadtxt(path, delimiter="\t", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _close(a, b, rtol, atol=0.0):
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b))
                       <= atol + rtol * np.abs(np.asarray(b))))


def check_surface(run_dir, tag, profile, order):
    """F_q(s) at a handful of cells, recomputed from the CSV's returns."""
    table = read_table(Path(run_dir) / f"surface_{tag}.tsv")
    scales = np.unique(table["s"]).astype(int)
    failures = []
    for s in (scales[0], scales[len(scales) // 2], scales[-1]):
        variances = box_variances(profile, int(s), order)
        for q in CHECK_Q:
            row = np.flatnonzero((table["q"] == q) & (table["s"] == s))
            if len(row) != 1:
                failures.append(f"{tag}: no surface cell q={q} s={s}")
                continue
            if table["excluded"][row[0]] != 0:
                failures.append(f"{tag}: q={q} s={s} excludes boxes")
                continue
            got, want = table["F"][row[0]], power_mean_fluctuation(variances, q)
            if not _close(got, want, F_RTOL):
                failures.append(f"{tag}: F_q(s) at q={q} s={s} is {got!r}, "
                                f"reference {want!r}")
    return failures


def check_spectrum(run_dir, tag):
    """Method identities, and H(q) against the slopes of the surface."""
    spec = read_table(Path(run_dir) / f"spectrum_{tag}.tsv")
    surface = read_table(Path(run_dir) / f"surface_{tag}.tsv")
    q, H, tau, alpha, f = (spec[k] for k in ("q", "H", "tau", "alpha", "f"))
    failures = []
    if not _close(tau, q * H - 1.0, 0.0, 1e-12):
        failures.append(f"{tag}: tau != qH - 1")
    if not _close(f, q * alpha - tau, 0.0, 1e-12):
        failures.append(f"{tag}: f != q alpha - tau")
    zero = np.flatnonzero(q == 0.0)
    if len(zero) != 1 or abs(tau[zero[0]] + 1.0) > 1e-12 or abs(f[zero[0]] - 1.0) > 1e-12:
        failures.append(f"{tag}: tau(0) != -1 or f(q=0) != 1")
    log_s = np.log(np.unique(surface["s"]))
    for i, qi in enumerate(q):
        F = surface["F"][surface["q"] == qi]
        if len(F) != len(log_s) or not _close(ols_slope(log_s, np.log(F)), H[i], 1e-9, 1e-12):
            failures.append(f"{tag}: H({qi}) is not the slope of ln F_q(s) on ln s")
            break
    return failures


def check_report(run_dir, tag, surrogates):
    """Width and spectrum-difference statistics recomputed from the raw
    surrogate samples and the spectrum table."""
    run_dir = Path(run_dir)
    report = json.loads((run_dir / f"report_{tag}.json").read_text())
    spec = read_table(run_dir / f"spectrum_{tag}.tsv")
    observed = {"delta_alpha": spec["alpha"][0] - spec["alpha"][-1],
                "delta_f": 1.0 - (spec["f"][0] + spec["f"][-1]) / 2.0}
    failures = []
    for name, section in (("delta_alpha", "width_test"),
                          ("delta_f", "spectrum_difference_test")):
        samples = np.loadtxt(run_dir / f"{name}_samples_{tag}.tsv", skiprows=1, ndmin=1)
        part = report[section]
        if len(samples) != surrogates:
            failures.append(f"{tag}: {len(samples)} {name} samples, "
                            f"{surrogates} surrogates")
            continue
        value = part[name]
        if not _close(value, observed[name], 1e-12, 1e-15):
            failures.append(f"{tag}: report {name} differs from the spectrum table")
        p = np.count_nonzero(samples > value) / len(samples)
        if part["p_value"] != p:
            failures.append(f"{tag}: {section} p-value {part['p_value']}, reference {p}")
        if not (_close(part["ensemble_mean"], samples.mean(), 1e-12, 1e-15)
                and _close(part["ensemble_std"], samples.std(ddof=1), 1e-12, 1e-15)):
            failures.append(f"{tag}: {section} mean or std differs from the samples")
    return failures


def check_noise_oracle(run_dir, tag):
    spec = read_table(Path(run_dir) / f"spectrum_{tag}.tsv")
    h2 = spec["H"][spec["q"] == 2.0][0]
    width = spec["alpha"][0] - spec["alpha"][-1]
    failures = []
    if abs(h2 - 0.5) > NOISE_H2_BAND:
        failures.append(f"{tag}: white-noise H(2) = {h2:.4f}, expected 0.5 +/- {NOISE_H2_BAND}")
    if width > NOISE_DELTA_ALPHA_MAX:
        failures.append(f"{tag}: white-noise delta_alpha = {width:.4f} > {NOISE_DELTA_ALPHA_MAX}")
    return failures


def check_cascade_oracle(run_dir, tag, p):
    spec = read_table(Path(run_dir) / f"spectrum_{tag}.tsv")
    near = np.abs(spec["q"]) <= 2.0
    err = float(np.max(np.abs(spec["H"][near] - cascade_hq(p, spec["q"][near]))))
    if err > CASCADE_H_BAND:
        return [f"{tag}: cascade max |H(q) - closed form| over |q| <= 2 is "
                f"{err:.4f} > {CASCADE_H_BAND}"]
    return []
