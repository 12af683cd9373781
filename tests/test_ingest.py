import calendar
import hashlib
import logging
import math
from datetime import date, datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multifract import ingest
from multifract.cli import EXIT_DATA, EXIT_OK, main
from multifract.errors import (
    DataError,
    MalformedRow,
    NonMonotoneDates,
    NonPositivePrice,
    SeriesTooShort,
)
from multifract.ingest import (
    PriceSeries,
    _parse_date,
    _parse_price,
    load_price_csv,
    log_returns,
)


def write_csv(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadPriceCsv:
    def test_three_row_file(self, tmp_path):
        path = write_csv(tmp_path, "date,price\n2020-01-01,100\n2020-01-02,101\n2020-01-03,99\n")
        series = load_price_csv(path, "date", "price")
        assert len(series) == 3
        np.testing.assert_allclose(series.values, [100, 101, 99])

    def test_semicolon_and_tab_delimiters(self, tmp_path):
        for delim, name in ((";", "a.csv"), ("\t", "b.csv")):
            text = f"date{delim}price\n2020-01-01{delim}100\n2020-01-02{delim}101\n"
            series = load_price_csv(write_csv(tmp_path, text, name), "date", "price")
            assert len(series) == 2

    def test_thousands_separators_stripped(self, tmp_path):
        path = write_csv(tmp_path, 'date,price\n2020-01-01,"1,234.5"\n2020-01-02,"1,240"\n')
        series = load_price_csv(path, "date", "price")
        np.testing.assert_allclose(series.values, [1234.5, 1240.0])

    def test_fallback_date_format(self, tmp_path):
        path = write_csv(tmp_path, "date,price\n03/01/2000,100\n04/01/2000,101\n")
        series = load_price_csv(path, "date", "price")
        assert series.dates.astype(str).tolist() == ["2000-01-03", "2000-01-04"]

    def test_zero_price_rejected_with_line(self, tmp_path):
        rows = ["date,price"] + [f"2020-01-{d:02d},10" for d in range(1, 4)]
        rows.append("2020-01-04,0")
        with pytest.raises(NonPositivePrice) as exc:
            load_price_csv(write_csv(tmp_path, "\n".join(rows) + "\n"), "date", "price")
        assert exc.value.line_number == 5

    def test_out_of_order_dates(self, tmp_path):
        path = write_csv(tmp_path, "date,price\n2020-01-02,100\n2020-01-01,101\n")
        with pytest.raises(NonMonotoneDates) as exc:
            load_price_csv(path, "date", "price")
        assert exc.value.line_number == 3

    def test_unparseable_price(self, tmp_path):
        path = write_csv(tmp_path, "date,price\n2020-01-01,100\n2020-01-02,abc\n")
        with pytest.raises(MalformedRow) as exc:
            load_price_csv(path, "date", "price")
        assert exc.value.line_number == 3

    def test_blank_rows_skipped_with_warning(self, tmp_path, caplog):
        path = write_csv(tmp_path, "date,price\n2020-01-01,100\n,\n2020-01-03,101\n")
        with caplog.at_level("WARNING"):
            series = load_price_csv(path, "date", "price")
        assert len(series) == 2
        assert any("skipping" in rec.message for rec in caplog.records)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_price_csv(tmp_path / "nope.csv", "date", "price")

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "date,price\n2020-01-01,100\n")
        with pytest.raises(MalformedRow):
            load_price_csv(path, "date", "close")

    def test_field_over_the_csv_limit_is_malformed(self, tmp_path):
        path = write_csv(tmp_path, 'date,price\n2020-01-01,100\n2020-01-02,"'
                         + "1" * 140_000 + '"\n')
        with pytest.raises(MalformedRow, match="field larger than field limit") as exc:
            load_price_csv(path, "date", "price")
        assert exc.value.line_number == 3

    @pytest.mark.parametrize("bad_line", [2, 900])
    def test_non_utf8_byte_is_malformed_at_its_line(self, tmp_path, bad_line):
        # ~18 bytes a row: line 2 fails to decode while the delimiter sample
        # is read, line 900 (~16 kB in) while the rows are read
        rows = [b"date,price"] + [f"{date.fromordinal(730120 + i)},{100 + i}".encode()
                                  for i in range(1000)]
        rows[bad_line - 1] = rows[bad_line - 1][:-1] + b"\xff"
        path = tmp_path / "latin.csv"
        path.write_bytes(b"\n".join(rows) + b"\n")
        with pytest.raises(MalformedRow, match="not UTF-8") as exc:
            load_price_csv(path, "date", "price")
        assert exc.value.line_number == bad_line


# Captured from the csv.DictReader/strptime loader this one replaced: the
# results below pin its semantics. The first line starts with a UTF-8 BOM;
# "value" names two columns and the last one is read; line 3 and line 14
# are empty and skipped silently; line 5-6 is one record.
GOLDEN_CSV = (
    "\ufeffdate,value,note,value\n"
    '2000-01-03,1.0,"a, b",100\n'
    "\n"
    '2000-01-04,2.0,x,"1,234.5"\n'
    '2000-01-05,3.0,"multi\nline",1 234.5\n'
    ",,,\n"
    ",\n"
    "2000-01-06,4.0,short\n"
    "04/01/2000\n"
    "07/01/2000,5.0,y,101.25,extra,cells\n"
    "2000-1-10,6.0,z,102\n"
    "2000-01-11,7.0,,\n"
    "\n"
    "12/01/2000,8.0,w,1e2\n"
    "2000-01-13,9.0,v,  99.5  \n"
)
GOLDEN_DATES = ["2000-01-03", "2000-01-04", "2000-01-05", "2000-01-07",
                "2000-01-10", "2000-01-12", "2000-01-13"]
GOLDEN_VALUES_SHA256 = "3c1769215d59431dac250018ab99a96bad71594f454d8911fed5ee7e39d0eab2"
GOLDEN_WARNING_LINES = [7, 8, 9, 10, 13]

GOLDEN_FAULTS = [
    ("date,value\n2000-01-03,100\n2000-W01-1,101\n", MalformedRow, 3),
    ("date,value\n2000-01-03,100\n\n20000104,101\n", MalformedRow, 4),
    ("date,value\n2000-01-03,100\n2000-02-30,101\n", MalformedRow, 3),
    ("date,value\n2000-01-03,100\n2000-01-04,nan\n", MalformedRow, 3),
    ('date,value\n2000-01-03,100\n"2000-01-04","inf"\n', MalformedRow, 3),
    ("\ndate,value\n2000-01-03,100\n2000-01-04,101\n", MalformedRow, 1),
    ('date,value,note\n2000-01-03,100,"a\nb"\n2000-01-02,101,c\n', NonMonotoneDates, 4),
]


class TestLoaderGolden:
    def test_quirks_file(self, tmp_path, caplog):
        path = tmp_path / "golden.csv"
        path.write_text(GOLDEN_CSV, encoding="utf-8", newline="")
        with caplog.at_level("WARNING", logger="multifract.ingest"):
            series = load_price_csv(path, "date", "value", label="golden")
        assert series.dates.astype(str).tolist() == GOLDEN_DATES
        assert hashlib.sha256(series.values.tobytes()).hexdigest() == GOLDEN_VALUES_SHA256
        assert [rec.args[-1] for rec in caplog.records] == GOLDEN_WARNING_LINES
        assert series.label == "golden"

    @pytest.mark.parametrize("text, error, line", GOLDEN_FAULTS)
    def test_fault_lines(self, tmp_path, text, error, line):
        path = tmp_path / "fault.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(error) as exc:
            load_price_csv(path, "date", "value")
        assert type(exc.value) is error and exc.value.line_number == line


def strptime_date(text):
    """The loader's date parser before its fromisoformat fast path."""
    for fmt in ("%Y-%m-%d", "%d/%m/%Y"):
        try:
            return datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    return None


def cleaned_price(text):
    """The loader's price parser before its float(text) fast path."""
    try:
        value = float(text.strip().replace(",", "").replace(" ", ""))
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _padded(lo, hi, width):
    return st.integers(lo, hi).map(lambda v: str(v).zfill(width))


ISO_SHAPED = st.one_of(
    st.builds("{}-{}-{}".format, _padded(0, 9999, 4), _padded(0, 19, 2), _padded(0, 39, 2)),
    st.builds("{}-{}-{}".format, *(st.text("0123456789 +-W_١", min_size=k, max_size=k)
                                   for k in (4, 2, 2))),
)
NUMBER_LIKE = st.from_regex(r"\s?[-+]?[0-9, _]{0,6}(\.[0-9]{0,3})?([eE][-+]?[0-9]{1,3})?\s?",
                            fullmatch=True)


class TestParserFastPaths:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(ISO_SHAPED, st.text(max_size=12)))
    @example("2000-W01-1")
    @example("20000103")
    @example("2000-1-3")
    @example("2000-02-29")
    @example("1900-02-29")
    @example("0000-01-01")
    @example("٢٠٠٠-٠١-٠٣")
    def test_parse_date_matches_strptime(self, text):
        assert _parse_date(text) == strptime_date(text)

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(NUMBER_LIKE, st.text(max_size=12)))
    @example("1,234.5")
    @example("1 234.5")
    @example(" 1e2 ")
    @example("1_000")
    @example("-0")
    @example("nan")
    @example("-inf")
    @example("\xa0٣")
    def test_parse_price_matches_cleaned_float(self, text):
        assert repr(_parse_price(text)) == repr(cleaned_price(text))


def outcome(path):
    """What loading path gives: its dates, value bytes and label, or its
    error's type, line and message; and each warning's message."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("multifract.ingest")
    logger.addHandler(handler)
    try:
        series = load_price_csv(path, "date", "value")
        assert series.dates.dtype == "datetime64[D]"
        result = (series.dates.astype(str).tolist(), series.values.tobytes(), series.label)
    except DataError as exc:
        result = (type(exc), getattr(exc, "line_number", None), str(exc))
    finally:
        logger.removeHandler(handler)
    return result, [record.getMessage() for record in records]


def row_loop_outcome(path):
    """outcome(path) with the column-wise path turned away, so the row loop
    reads every row: the reference the column-wise path must match."""
    with mock.patch.object(ingest, "_read_plain", return_value=None):
        return outcome(path)


ROW_QUIRKS = ["pad", "quote", "thousands", "blank", "empty", "short",
              "long", "year0", "feb29_1900", "feb29_2000", "underscore", "nan", "inf",
              "zero", "negative", "repeat", "dmy", "no_value", "arabic_digits", "fullwidth",
              "nbsp", "vtab", "hex", "bare_point", "hash_note", "hash_value"]


@st.composite
def near_plain_csv(draw):
    """Price files that are plain, or carry quirks the row loop warns of,
    rejects or reads its own way: the sniffer's delimiters, extra columns,
    padded and quoted cells, CRLF, blank and short rows, year 0000, Feb 29
    in 1900 and 2000, 1_000, nan, inf, zero and negative prices, prices
    numpy and float() may read apart, a # in a cell, repeated dates and a
    missing final newline."""
    delim = draw(st.sampled_from([",", ";", "\t"]))
    names = draw(st.permutations(["date", "value"] + ["note", "open"][:draw(st.integers(0, 2))]))
    # at most two quirky rows, so the rest of the file stays plain
    quirks = dict(draw(st.lists(st.tuples(st.integers(0, 11), st.sampled_from(ROW_QUIRKS)),
                                max_size=2)))
    day = date(1899, 12, 25) + timedelta(days=draw(st.integers(0, 40_000)))
    lines = [delim.join(names)]
    for i in range(draw(st.integers(0, 12))):
        quirk = quirks.get(i)
        if quirk != "repeat":
            day += timedelta(days=draw(st.integers(1, 3)))
        price = draw(st.floats(1e-3, 1e6))
        cells = {"date": day.isoformat(),
                 "value": draw(st.sampled_from(["{!r}", "{:.17g}", "{:.2f}", "{:e}"])).format(price),
                 "note": draw(st.sampled_from(["", "a", "n/a", "é"])), "open": "1"}
        cells.update({
            "pad": {"value": f" {cells['value']} ", "date": f"{cells['date']} "},
            "quote": {"date": f'"{cells["date"]}"'},
            "thousands": {"value": '"1,234.5"'},
            "year0": {"date": "0000-01-01"},
            "feb29_1900": {"date": "1900-02-29"},
            "feb29_2000": {"date": "2000-02-29"},
            "underscore": {"value": "1_000"},
            "nan": {"value": "nan"}, "inf": {"value": "inf"},
            "zero": {"value": "0"}, "negative": {"value": "-1.5"},
            "dmy": {"date": day.strftime("%d/%m/%Y")},
            "no_value": {"value": ""},
            # prices numpy's parser and float() may read apart; a # that
            # numpy would take for a comment
            "arabic_digits": {"value": "١٢"}, "fullwidth": {"value": "１２"},
            "nbsp": {"value": "1.5\xa0"}, "vtab": {"value": "\x0b1.5"},
            "hex": {"value": "0x1p-2"}, "bare_point": {"value": "+.5e-3"},
            "hash_note": {"note": "a#b"}, "hash_value": {"value": "12#3"},
        }.get(quirk, {}))
        row = [cells[name] for name in names]
        row = {"blank": [], "empty": [""] * len(row), "short": row[:-1],
               "long": row + ["x"]}.get(quirk, row)
        lines.append(delim.join(row))
    newline = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


class TestColumnWisePath:
    @settings(max_examples=400, deadline=None)
    @given(text=near_plain_csv())
    @example(text="date,value\n2000-01-03,100\n2000-01-04,101")
    @example(text="date;value;note\n0000-01-01;1;a\n0001-01-01;2;b\n")
    @example(text="date,value\n1900-02-28,1\n1900-02-29,2\n")
    @example(text="date,value\n2000-01-03,1\n2000-01-03,2\n")
    @example(text="date,value\n2000-01-03,1\n2000-01-04,2\n2000-01-04,\n2000-01-04,3\n")
    @example(text="date,value\n2000-01-03,1_000\n2000-01-04,1e2\n")
    # a # that numpy would take for a comment
    @example(text="date,value\n2000-01-03,12#3\n2000-01-04,1\n")
    # doubt on the last rows: a quoted cell, an incomplete row
    @example(text="date,value\n2000-01-03,1\n2000-01-04,2\n2000-01-05,3\n2000-01-06,\"4\"\n")
    @example(text="date,value\n2000-01-03,1\n2000-01-04,2\n2000-01-05,3\n2000-01-06,")
    def test_matches_the_row_loop(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "prices.csv"
        path.write_bytes(text.encode())
        assert outcome(path) == row_loop_outcome(path)

    def test_plain_file_skips_the_row_loop_across_blocks(self, tmp_path):
        path = long_csv(tmp_path)
        with mock.patch.object(ingest, "_read_rows", side_effect=AssertionError):
            result = outcome(path)
        assert len(result[0][0]) == 70_000
        assert result == row_loop_outcome(path)

    def test_empty_lines_stay_on_the_column_wise_path(self, tmp_path):
        # the row loop skips them without a warning, so no doubt arises
        path = long_csv(tmp_path)
        text = path.read_text().splitlines(keepends=True)
        path.write_text("".join(text[:50_000] + ["\n"] + text[50_000:] + ["\n", "\n"]))
        with mock.patch.object(ingest, "_read_rows", side_effect=AssertionError):
            result = outcome(path)
        assert result == row_loop_outcome(path) and len(result[0][0]) == 70_000

    def test_row_loop_reads_the_whole_body_past_a_plain_block(self, tmp_path):
        # an empty price, which the row loop warns of, far into the body
        path = long_csv(tmp_path, "value", 60_000, "")
        entries = []

        def read_rows(path, reader, *columns):
            entries.append(reader.line_num)
            return real_read_rows(path, reader, *columns)

        real_read_rows = ingest._read_rows
        with mock.patch.object(ingest, "_read_rows", read_rows):
            result = outcome(path)
        assert entries == [1]
        assert result == row_loop_outcome(path)
        assert result[1] == [f"{path}: skipping incomplete row at line 60001"]


# day ordinals from 0001-01-01 to 9999-12-31, leap days and month ends
# drawn on their own, as the plain path reads them from their digits
DAY_ORDINALS = st.one_of(
    st.integers(1, date.max.toordinal()),
    st.integers(1, 2499).map(lambda k: 4 * k).filter(calendar.isleap).map(
        lambda year: date(year, 2, 29).toordinal()),
    st.tuples(st.integers(1, 9999), st.integers(1, 12)).map(
        lambda ym: date(*ym, calendar.monthrange(*ym)[1]).toordinal()),
    st.sampled_from([1, date.max.toordinal()]),
)


class TestPlainDates:
    @settings(max_examples=200, deadline=None)
    @given(ordinals=st.lists(DAY_ORDINALS, min_size=2, max_size=40, unique=True).map(sorted),
           price=st.floats(1e-3, 1e6))
    @example(ordinals=[1, date.max.toordinal()], price=1.0)
    @example(ordinals=[date(1900, 2, 28).toordinal(), date(1900, 3, 1).toordinal(),
                       date(2000, 2, 29).toordinal()], price=1.0)
    def test_valid_dates_match_the_row_loop(self, tmp_path_factory, ordinals, price):
        path = tmp_path_factory.mktemp("csv") / "prices.csv"
        path.write_text("date,value\n" + "".join(
            f"{date.fromordinal(day).isoformat()},{price * (i + 1)!r}\n"
            for i, day in enumerate(ordinals)))
        with mock.patch.object(ingest, "_read_rows", side_effect=AssertionError):
            plain = outcome(path)
        assert plain == row_loop_outcome(path)

    @pytest.mark.parametrize("bad", ["1900-02-29", "2001-04-31", "2001-00-10", "2001-13-10",
                                     "2001-05-00", "2001-05-32", "0000-01-01"])
    def test_invalid_date_goes_to_the_row_loop(self, tmp_path, bad):
        path = write_csv(tmp_path, f"date,value\n1899-01-02,1\n1899-01-03,2\n{bad},3\n"
                                   "2100-01-01,4\n")
        with mock.patch.object(ingest, "_read_rows", wraps=ingest._read_rows) as rows:
            with pytest.raises(MalformedRow) as exc:
                load_price_csv(path, "date", "value")
        assert rows.called
        assert str(exc.value) == f"line 4: bad date {bad!r}"

    def test_invalid_last_date_of_1000_rows(self, tmp_path):
        # numpy 2.4.6 crashes casting the text of these 1,000 dates to
        # datetime64[D]; the plain path casts no date text
        days = (np.datetime64("1988-01-01") + np.arange(999)).astype(str).tolist()
        path = write_csv(tmp_path, "date,value\n" + "".join(
            f"{day},{100 + i}\n" for i, day in enumerate(days + ["1991-02-29"])))
        with pytest.raises(MalformedRow) as exc:
            load_price_csv(path, "date", "value")
        assert str(exc.value) == "line 1001: bad date '1991-02-29'"


def long_csv(tmp_path, column=None, row=None, text=None):
    """A 70,000-row date,value,note file, 2.6 MB, with the cell of 1-based data row `row` in `column` set to `text`."""
    days = (np.datetime64("1800-01-01") + np.arange(70_000)).astype(str)
    cells = {"date": days.tolist(),
             "value": [f"{100 + (i % 997) / 7:.17g}" for i in range(70_000)],
             "note": ["n"] * 70_000}
    if column:
        cells[column][row - 1] = text
    path = tmp_path / "long.csv"
    path.write_text("date,value,note\n" + "".join(
        f"{d},{v},{n}\n" for d, v, n in zip(*cells.values())), encoding="utf-8")
    return path


class TestBlockFaults:
    # each fault sits where a reader that trusts the body's first rows could
    # miss it: far into the body, on the last row, or in a column the loader
    # never reads
    @pytest.mark.parametrize("column, row, text, error, line", [
        ("value", 66_000, "-2.5", NonPositivePrice, 66_001),
        ("date", 65_537, "1979-06-07", NonMonotoneDates, 65_538),
        # a row repeats the date of the row before it
        ("date", 43_691, "1919-08-15", NonMonotoneDates, 43_692),
        ("date", 70_000, "1991-02-29", MalformedRow, 70_001),
        ("note", 68_000, "9" * 131_100, MalformedRow, 68_001),
    ], ids=["price_in_second_block", "repeated_date", "date_across_blocks", "bad_last_date",
         "long_field"])
    def test_fault_line_and_exit_code(self, tmp_path, column, row, text, error, line):
        path = long_csv(tmp_path, column, row, text)
        with pytest.raises(error) as exc:
            load_price_csv(path, "date", "value")
        assert type(exc.value) is error and exc.value.line_number == line
        assert main(["spectrum", "--input", str(path), "--out", str(tmp_path / "r")]) == EXIT_DATA

    def test_nul_in_unused_column(self, tmp_path):
        # csv reads NUL as a character since Python 3.11 and rejected it
        # before, so the expected result is the row loop's
        path = long_csv(tmp_path, "note", 40_000, "\x00")
        reference = row_loop_outcome(path)
        assert outcome(path) == reference
        code = EXIT_DATA if isinstance(reference[0][0], type) else EXIT_OK
        assert main(["spectrum", "--input", str(path), "--out", str(tmp_path / "r")]) == code


class TestLogReturns:
    def make(self, values):
        from datetime import date, timedelta
        dates = tuple(date(2020, 1, 1) + timedelta(days=i) for i in range(len(values)))
        return PriceSeries(dates, np.array(values, dtype=float))

    def test_ln_identities(self):
        returns = log_returns(self.make([1.0, math.e, math.e]))
        np.testing.assert_allclose(returns.values, [1.0, 0.0], atol=1e-15)

    def test_constant_prices(self):
        returns = log_returns(self.make([5, 5, 5, 5]))
        np.testing.assert_allclose(returns.values, [0, 0, 0])

    def test_direct_formula(self):
        returns = log_returns(self.make([100, 110]))
        np.testing.assert_allclose(returns.values, [math.log(1.1)], rtol=1e-12)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            PriceSeries((), np.array([]))

    def test_cumsum_reconstructs_log_prices(self):
        rng = np.random.default_rng(0)
        prices = self.make(np.exp(np.cumsum(rng.normal(0, 0.01, 500)) + 4.0))
        returns = log_returns(prices)
        rebuilt = np.log(prices.values[0]) + np.concatenate([[0.0], np.cumsum(returns.values)])
        np.testing.assert_allclose(rebuilt, np.log(prices.values), rtol=1e-12)


class TestPriceSeries:
    @pytest.mark.parametrize("values, days, match", [
        ([1.0, 0.0, 2.0], [0, 1, 2], "price 1 is 0.0"),
        ([1.0, 2.0, 3.0], [0, 1, 1], "date 2 "),
    ], ids=["non_positive_price", "repeated_date"])
    def test_faults_are_data_errors(self, values, days, match):
        # the loader reports these faults by line, PriceSeries by position
        dates = tuple(date(2020, 1, 1 + day) for day in days)
        with pytest.raises(DataError, match=match):
            PriceSeries(dates, np.array(values))

    def test_date_order_message(self):
        # date objects and datetime64[D] days give the same array and message
        days = [date(2020, 1, 1 + day) for day in (0, 1, 3, 2, 2)]
        for dates in (tuple(days), np.array(days, dtype="datetime64[D]")):
            assert PriceSeries(dates[:3], np.ones(3)).dates.dtype == "datetime64[D]"
            with pytest.raises(DataError) as exc:
                PriceSeries(dates, np.ones(5))
            assert str(exc.value) == "date 3 (2020-01-03) does not follow 2020-01-04"
