import hashlib
import math
from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multifract.errors import (
    DataError,
    DegenerateSeries,
    MalformedRow,
    NonMonotoneDates,
    NonPositivePrice,
    SeriesTooShort,
)
from multifract.ingest import (
    PriceSeries,
    ReturnSeries,
    _parse_date,
    _parse_price,
    display_transform,
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
        assert series.dates[0].year == 2000 and series.dates[0].day == 3

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
        assert [d.isoformat() for d in series.dates] == GOLDEN_DATES
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


class TestDisplayTransform:
    def test_extremes(self):
        out = display_transform(ReturnSeries(np.array([0.1, -0.1])))
        np.testing.assert_allclose(out, [90, 10])

    def test_single_max(self):
        np.testing.assert_allclose(display_transform(ReturnSeries(np.array([0.05]))), [90])

    def test_degenerate(self):
        with pytest.raises(DegenerateSeries):
            display_transform(ReturnSeries(np.array([0.0, 0.0])))

    def test_max_is_exactly_90_at_argmax(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0, 0.02, 400)
        values[137] = 0.1  # force the largest magnitude to be positive
        out = display_transform(ReturnSeries(values))
        assert out.min() >= 10 and out.max() <= 90
        assert out[137] == 90.0 and int(np.argmax(out)) == 137
