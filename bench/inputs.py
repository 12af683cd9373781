"""Seeded price-CSV generators for the benchmark workloads.

Nothing here imports multifract: the program under test receives only the
CSV files written below.
"""

import numpy as np

START_DATE = "2000-01-03"
START_PRICE = 100.0
DAILY_VOLATILITY = 0.01


def workload_rng(seed, tag):
    """Generator for one (seed, workload) pair; tags keep workloads apart."""
    return np.random.default_rng([int(seed), int(tag)])


def garch_t_path(n, rng, omega=0.05, a=0.08, b=0.90, nu=4.0):
    """GARCH(1,1) path with unit-variance Student-t(nu) innovations."""
    z = rng.standard_t(nu, size=n) / np.sqrt(nu / (nu - 2.0))
    r = np.empty(n)
    h = omega / (1.0 - a - b)
    for t in range(n):
        r[t] = np.sqrt(h) * z[t]
        h = omega + a * r[t] * r[t] + b * h
    return r


def t4_quantiles(n):
    """Student-t(4) quantiles at (i + 1/2)/n, from the closed-form t(4)
    quantile function: x = sign(p - 1/2) 2 sqrt(c - 1) with
    c = cos(arccos(sqrt(a))/3)/sqrt(a), a = 4p(1 - p)."""
    p = (np.arange(n) + 0.5) / n
    a = 4.0 * p * (1.0 - p)
    c = np.cos(np.arccos(np.sqrt(a)) / 3.0) / np.sqrt(a)
    return np.sign(p - 0.5) * 2.0 * np.sqrt(c - 1.0)


def grain_returns(n, seed):
    """Heavy-tailed, volatility-clustered returns: t(4) quantiles scaled to
    1% daily volatility, placed in the rank order of a GARCH-t path
    drawn from `seed`.

    The values are the same for every seed; only their order changes.
    Drawn tails otherwise move the IAAFT iteration count, and so the run
    time, by a third between seeds."""
    marginal = DAILY_VOLATILITY * t4_quantiles(n) / np.sqrt(2.0)  # t(4) variance is 2
    order = garch_t_path(n, workload_rng(seed, 1))
    out = np.empty(n)
    out[np.argsort(order, kind="stable")] = marginal
    return out


def shuffled_cascade(levels, p, rng):
    """Binomial multiplicative cascade masses over 2^levels cells, the
    (p, 1-p) weights sent left or right at random at every split."""
    masses = np.array([1.0])
    weights = np.array([p, 1.0 - p])
    for _ in range(levels):
        split = masses[:, None] * weights[None, :]
        flip = rng.integers(0, 2, size=len(masses)).astype(bool)
        split[flip] = split[flip, ::-1]
        masses = split.ravel()
    return masses


def cascade_returns(levels, p, seed):
    return shuffled_cascade(levels, p, workload_rng(seed, 2))


def gaussian_returns(n, seed):
    return DAILY_VOLATILITY * workload_rng(seed, 3).standard_normal(n)


def write_price_csv(path, returns):
    """Write len(returns) + 1 weekday closes whose log returns are
    `returns`, as `date,value` rows."""
    returns = np.asarray(returns, dtype=float)
    prices = START_PRICE * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))
    dates = np.busday_offset(START_DATE, np.arange(len(prices)), roll="forward")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,value\n")
        fh.writelines(f"{d},{p:.17g}\n" for d, p in zip(dates.astype(str), prices))
    return len(prices)
