"""Price data loading and return-series derivation."""

import csv
import logging
import math
from dataclasses import dataclass
from datetime import date, datetime

import numpy as np

from .errors import (
    DataError,
    DegenerateSeries,
    MalformedRow,
    NonMonotoneDates,
    NonPositivePrice,
    SeriesTooShort,
)

log = logging.getLogger(__name__)

_DATE_FORMATS = ("%Y-%m-%d", "%d/%m/%Y")


@dataclass(frozen=True)
class PriceSeries:
    """Daily index prices with strictly increasing dates."""

    dates: tuple
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if len(values) < 2:
            raise SeriesTooShort(f"{self.label}: only {len(values)} usable rows")
        if len(self.dates) != len(values):
            raise ValueError("dates and values must have equal length")
        bad = np.flatnonzero(~(values > 0))
        if len(bad):
            raise DataError(f"price {bad[0]} is {values[bad[0]]}, not strictly positive")
        for a, b in zip(self.dates, self.dates[1:]):
            if b <= a:
                # the dates before b increase, so a is the first of its value
                raise DataError(f"date {self.dates.index(a) + 1} ({b}) does not follow {a}")

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class ReturnSeries:
    """Log returns derived from a PriceSeries."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def __len__(self):
        return len(self.values)


def _parse_date(text):
    # fromisoformat is far cheaper than strptime, but in Python 3.11 it also
    # takes week and compact dates that "%Y-%m-%d" rejects: gate on the shape
    if len(text) == 10 and text[4] == text[7] == "-" and text.isascii():
        try:
            return date.fromisoformat(text)
        except ValueError:
            pass
    for fmt in _DATE_FORMATS:
        try:
            return datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    return None


def _parse_price(text):
    # text float() takes has no comma or inner space, so needs no clean-up
    try:
        value = float(text)
    except ValueError:
        try:
            value = float(text.strip().replace(",", "").replace(" ", ""))
        except ValueError:
            return None
    return value if math.isfinite(value) else None


def _detect_delimiter(sample):
    try:
        return csv.Sniffer().sniff(sample, delimiters=",;\t").delimiter
    except csv.Error:
        return ","


def _undecodable_line(path):
    """1-based line of the first byte that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1


def load_price_csv(path, date_col, value_col, label=None):
    """Load a delimiter-separated price file into a PriceSeries.

    Blank rows and rows with empty cells are skipped with a warning
    (holiday gaps in real exports). Unparseable or non-positive prices,
    out-of-order dates, fields past csv's size limit and bytes that are
    not UTF-8 raise with the offending 1-based line number.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            sample = fh.read(4096)
            fh.seek(0)
            reader = csv.reader(fh, delimiter=_detect_delimiter(sample))
            # as csv.DictReader: the header is the first physical row and
            # the last of duplicate column names wins
            header = next(reader, None)
            if header is None:
                raise MalformedRow(1, "missing header row")
            columns = {name: i for i, name in enumerate(header)}
            for col in (date_col, value_col):
                if col not in columns:
                    raise MalformedRow(1, f"missing column {col!r}")
            date_at, value_at = columns[date_col], columns[value_col]

            dates, values = [], []
            for row in reader:
                if not row:
                    continue
                lineno = reader.line_num
                # a short row's missing cells read as empty
                raw_date = row[date_at].strip() if date_at < len(row) else ""
                raw_value = row[value_at].strip() if value_at < len(row) else ""
                if not raw_date and not raw_value:
                    log.warning("%s: skipping blank row at line %d", path, lineno)
                    continue
                if not raw_date or not raw_value:
                    log.warning("%s: skipping incomplete row at line %d", path, lineno)
                    continue
                parsed_date = _parse_date(raw_date)
                if parsed_date is None:
                    raise MalformedRow(lineno, f"bad date {raw_date!r}")
                price = _parse_price(raw_value)
                if price is None:
                    raise MalformedRow(lineno, f"bad price {raw_value!r}")
                if price <= 0:
                    raise NonPositivePrice(lineno)
                if dates and parsed_date <= dates[-1]:
                    raise NonMonotoneDates(lineno)
                dates.append(parsed_date)
                values.append(price)
    except csv.Error as exc:
        raise MalformedRow(reader.line_num, str(exc)) from None
    except UnicodeDecodeError as exc:
        raise MalformedRow(_undecodable_line(path), f"not UTF-8: {exc.reason}") from None

    return PriceSeries(tuple(dates), np.array(values), label or str(path))


def log_returns(prices):
    """r[t] = ln P[t+1] - ln P[t]."""
    return ReturnSeries(np.diff(np.log(prices.values)), prices.label)


def display_transform(returns):
    """Rescale returns onto [10, 90] for plotting: 40*r/max|r| + 50."""
    values = np.asarray(returns.values, dtype=float)
    if len(values) == 0:
        raise SeriesTooShort("empty return series")
    peak = np.max(np.abs(values))
    if peak == 0:
        raise DegenerateSeries("all returns are zero")
    return 40.0 * values / peak + 50.0
