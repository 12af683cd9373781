"""Price data loading and return-series derivation."""

import csv
import io
import math
import re
from dataclasses import dataclass
from datetime import date, datetime

import numpy as np

from .errors import (
    DataError,
    MalformedRow,
    NonMonotoneDates,
    NonPositivePrice,
    SeriesTooShort,
)

_DATE_FORMATS = ("%Y-%m-%d", "%d/%m/%Y")


@dataclass(frozen=True)
class PriceSeries:
    """Daily index prices with strictly increasing dates (datetime64[D])."""

    dates: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        days = np.asarray(self.dates, "datetime64[D]")
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "dates", days)
        object.__setattr__(self, "values", values)
        if len(values) < 2:
            raise SeriesTooShort(f"{self.label}: only {len(values)} usable rows")
        if len(days) != len(values):
            raise ValueError("dates and values must have equal length")
        bad = np.flatnonzero(~(values > 0))
        if len(bad):
            raise DataError(f"price {bad[0]} is {values[bad[0]]}, not strictly positive")
        bad = np.flatnonzero(days[1:] <= days[:-1]) + 1
        if len(bad):
            raise DataError(f"date {bad[0]} ({days[bad[0]]}) does not follow {days[bad[0] - 1]}")

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class ReturnSeries:
    """Log returns derived from a PriceSeries, made by log_returns."""

    values: np.ndarray


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

    A plain body is parsed whole, column-wise, by _read_plain; any other
    body, or one with a fault, is read by the row loop, _read_rows, from
    line 2, so every warning and error is the row loop's.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            sample = fh.read(4096)
            fh.seek(0)
            delimiter = _detect_delimiter(sample)
            reader = csv.reader(fh, delimiter=delimiter)
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
            # a one-line header: the body starts at line 2
            plain = reader.line_num == 1 and _read_plain(
                path, delimiter, len(header), date_at, value_at)
            dates, values = plain or _read_rows(path, reader, date_at, value_at)
    except csv.Error as exc:
        raise MalformedRow(reader.line_num, str(exc)) from None
    except UnicodeDecodeError as exc:
        raise MalformedRow(_undecodable_line(path), f"not UTF-8: {exc.reason}") from None

    return PriceSeries(dates, values, label or str(path))


def _read_rows(path, reader, date_at, value_at):
    """Dates and prices of the rows left in reader, one row at a time: the
    only source of the loader's warnings and line-numbered errors."""
    days, values = [], []
    for row in reader:
        if not row:
            continue
        lineno = reader.line_num
        # a short row's missing cells read as empty
        raw_date = row[date_at].strip() if date_at < len(row) else ""
        raw_value = row[value_at].strip() if value_at < len(row) else ""
        if not raw_date or not raw_value:
            import logging  # only here: most loads skip no row
            kind = "incomplete" if raw_date or raw_value else "blank"
            logging.getLogger(__name__).warning("%s: skipping %s row at line %d",
                                                path, kind, lineno)
            continue
        parsed_date = _parse_date(raw_date)
        if parsed_date is None:
            raise MalformedRow(lineno, f"bad date {raw_date!r}")
        price = _parse_price(raw_value)
        if price is None:
            raise MalformedRow(lineno, f"bad price {raw_value!r}")
        if price <= 0:
            raise NonPositivePrice(lineno)
        if days and parsed_date.toordinal() <= days[-1]:
            raise NonMonotoneDates(lineno)
        days.append(parsed_date.toordinal())  # 1 is 0001-01-01; numpy takes ints ~20x faster
        values.append(price)
    return np.datetime64("0000-12-31") + np.array(days, int), np.array(values)


def _read_plain(path, delimiter, ncols, date_at, value_at):
    """Dates and prices of the body under a one-line header, parsed whole:
    dates from their digit bytes, prices by one np.loadtxt call. None if the
    row loop might read any of it otherwise, so it never raises or warns.

    The body must have no quote, CR or NUL, ncols - 1 delimiters on each
    line, no line past csv's field limit, ASCII YYYY-MM-DD dates of real
    days from year 1 on, strictly increasing, and prices numpy reads as
    finite and > 0. Only the last line may lack its newline, and empty
    lines are dropped, as the row loop skips them without a word."""
    with open(path, "rb") as fh:
        if b"\r" in fh.readline():
            return None
        body = fh.read()
    if b'"' in body or b"\r" in body or b"\0" in body:
        return None
    body = body if body.endswith(b"\n") else body + b"\n"
    buf = np.frombuffer(body, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if (np.diff(ends, prepend=-1) == 1).any():  # an empty line
        body = re.sub(rb"\n+", b"\n", body).lstrip(b"\n")
        buf = np.frombuffer(body, np.uint8)
        ends = np.flatnonzero(buf == ord("\n"))
    delims = np.flatnonzero(buf == ord(delimiter))
    if not len(ends) or (np.diff(np.searchsorted(delims, ends), prepend=0) != ncols - 1).any() \
            or (np.diff(ends, prepend=-1) > csv.field_size_limit() + 1).any():
        return None
    # each line's date cell, from the delimiter or newline on either side
    start = delims[date_at - 1::ncols - 1] + 1 if date_at else np.r_[0, ends[:-1] + 1]
    stop = delims[date_at::ncols - 1] if date_at < ncols - 1 else ends
    if (stop - start != 10).any():
        return None
    del ends, delims, stop  # 4 MB at 2^18 lines, freed before the dates are read
    year, month, day = np.zeros((3, len(start)), np.int32)
    for k, field in enumerate([year] * 4 + [None] + [month] * 2 + [None] + [day] * 2):
        byte = buf[start + k]
        if (byte != ord("-") if field is None else byte - ord("0") > 9).any():
            return None
        if field is not None:
            field *= 10
            field += byte - ord("0")
    # days on from month starts in numpy's calendar: numpy 2.4.6 can crash casting date text
    months = year * 12 + month - (1970 * 12 + 1)
    starts = np.arange(months.min(), months.max() + 2).astype("datetime64[M]")
    starts = starts.astype("datetime64[D]")
    months -= months.min()
    days = starts[months] + (day - 1)
    if ((month < 1) | (month > 12) | (day < 1) | (days >= starts[months + 1])).any():
        return None
    try:
        prices = np.loadtxt(io.BytesIO(body), delimiter=delimiter, comments=None,
                            usecols=value_at, encoding="utf-8", ndmin=1, dtype=float)
    except ValueError:  # not UTF-8, or a price numpy rejects
        return None
    if not ((prices > 0) & (prices < np.inf)).all() or \
            days[0] < np.datetime64("0001-01-01") or (days[1:] <= days[:-1]).any():
        return None
    return days, prices


def log_returns(prices):
    """r[t] = ln P[t+1] - ln P[t]."""
    return ReturnSeries(np.diff(np.log(prices.values)))
