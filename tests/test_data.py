import datetime
import hashlib
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wellcast.data import (CSV_HEADER, EPOCH, SeriesPanel,
                           SyntheticFieldConfig, _snap_6_decimals,
                           _well_series, arps_rate, config_from_text,
                           config_to_text, epoch_days_to_date,
                           generate_synthetic, load_csv, save_csv,
                           truncate_at_breakthrough)
from wellcast.errors import (FormatError, NoBreakthroughError, ParameterError,
                             ValidationError)
from wellcast.evaluation import MAX_DRAWS
from wellcast.rng import DATA, stream

import oracles

# the first and last epoch days of years 1 to 9999
DAY_ONE = (datetime.date(1, 1, 1) - EPOCH).days
DAY_LAST = (datetime.date(9999, 12, 31) - EPOCH).days


def panel_from(values, columns=None, stride=2, start=0):
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if columns is None:
        columns = [("A", "oil")] if values.shape[1] == 1 else \
            [("A", "oil"), ("A", "water")]
    ts = start + np.arange(values.shape[0]) * stride
    return SeriesPanel(columns=columns, timestamps=ts, values=values)


class TestSeriesPanel:
    def test_default_split_is_80_20(self):
        p = panel_from(np.ones((10, 1)))
        assert p.split_index == 8

    def test_seventy_two_hundred_steps(self):
        p = panel_from(np.ones((7200, 1)))
        assert p.split_index == 5760

    def test_ragged_stride_rejected(self):
        with pytest.raises(FormatError):
            SeriesPanel(columns=[("A", "oil")],
                        timestamps=np.array([0, 2, 5]),
                        values=np.ones((3, 1)))

    def test_negative_values_rejected(self):
        with pytest.raises(ValidationError):
            panel_from([[-1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValidationError, match="must be finite"):
            panel_from([[1.0], [2.0], [bad]])

    def test_column_lookup(self):
        p = panel_from(np.ones((4, 2)))
        assert p.column_index("A", "water") == 1
        with pytest.raises(ParameterError):
            p.column_index("A", "gas")

    def test_select_extracts_columns(self):
        p = panel_from(np.stack([np.arange(4.0), np.arange(4.0) + 10], axis=1))
        sub = p.select([("A", "water")])
        assert sub.columns == [("A", "water")]
        assert np.array_equal(sub.values[:, 0], p.values[:, 1])


class TestTruncation:
    def test_drops_leading_zero_water(self):
        water = np.array([0.0, 0, 0, 1, 2])
        oil = np.arange(5.0) + 10
        p = panel_from(np.stack([oil, water], axis=1))
        out = truncate_at_breakthrough(p)
        assert out.n_steps == 2
        assert out.values[0, 1] == 1.0
        assert out.values[0, 0] == 13.0  # all channels cut identically
        assert out.timestamps[0] == p.timestamps[3]

    def test_noop_when_water_starts_nonzero(self):
        p = panel_from(np.ones((5, 2)))
        out = truncate_at_breakthrough(p)
        assert out.n_steps == 5
        assert np.array_equal(out.values, p.values)

    def test_all_zero_water_errors(self):
        p = panel_from(np.stack([np.ones(4), np.zeros(4)], axis=1))
        with pytest.raises(NoBreakthroughError):
            truncate_at_breakthrough(p)

    def test_missing_water_channel_errors(self):
        p = panel_from(np.ones((4, 1)), columns=[("A", "oil")])
        with pytest.raises(ParameterError):
            truncate_at_breakthrough(p)

    def test_multi_site_cuts_at_latest_breakthrough(self):
        cols = [("A", "oil"), ("A", "water"), ("B", "oil"), ("B", "water")]
        water_a = np.array([0.0, 1, 1, 1, 1, 1])
        water_b = np.array([0.0, 0, 0, 1, 0, 1])
        vals = np.stack([np.ones(6), water_a, np.ones(6), water_b], axis=1)
        p = panel_from(vals, columns=cols)
        out = truncate_at_breakthrough(p)
        assert out.n_steps == 3  # B breaks through at index 3

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=2,
                    max_size=40))
    def test_first_water_positive_property(self, water):
        water = np.asarray(water)
        oil = np.ones_like(water)
        p = panel_from(np.stack([oil, water], axis=1))
        if np.all(water == 0.0):
            with pytest.raises(NoBreakthroughError):
                truncate_at_breakthrough(p)
        else:
            out = truncate_at_breakthrough(p)
            assert out.values[0, 1] > 0.0
            assert out.n_steps == p.n_steps - int(np.flatnonzero(water > 0)[0])


class TestCsv:
    def test_minimal_two_row_file(self, tmp_path):
        path = tmp_path / "mini.csv"
        path.write_text("date,site,channel,value\n"
                        "1970-01-01,A,oil,1.5\n"
                        "1970-01-03,A,oil,2.5\n")
        p = load_csv(path)
        assert p.n_steps == 2
        assert p.columns == [("A", "oil")]
        assert np.array_equal(p.values[:, 0], [1.5, 2.5])

    def test_out_of_order_sorted_duplicates_rejected(self, tmp_path):
        path = tmp_path / "ooo.csv"
        path.write_text("date,site,channel,value\n"
                        "1970-01-03,A,oil,2.0\n"
                        "1970-01-01,A,oil,1.0\n")
        p = load_csv(path)
        assert np.array_equal(p.values[:, 0], [1.0, 2.0])
        path.write_text("date,site,channel,value\n"
                        "1970-01-01,A,oil,1.0\n"
                        "1970-01-01,A,oil,1.0\n")
        with pytest.raises(FormatError, match="duplicate"):
            load_csv(path)

    def test_missing_cell_is_error(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("date,site,channel,value\n"
                        "1970-01-01,A,oil,1.0\n"
                        "1970-01-01,B,oil,1.0\n"
                        "1970-01-03,A,oil,2.0\n")
        with pytest.raises(FormatError, match="missing cell"):
            load_csv(path)

    def test_negative_value_is_validation_error(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("date,site,channel,value\n"
                        "1970-01-01,A,oil,-1.0\n")
        with pytest.raises(ValidationError):
            load_csv(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_value_is_format_error(self, tmp_path, token):
        path = tmp_path / "nonfinite.csv"
        path.write_text("date,site,channel,value\n"
                        "1970-01-01,A,oil,1.0\n"
                        f"1970-01-02,A,oil,{token}\n")
        with pytest.raises(FormatError, match="non-finite.*row 3"):
            load_csv(path)

    def test_bad_date_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,site,channel,value\n"
                        "1970-13-01,A,oil,1.0\n")
        with pytest.raises(FormatError, match="row 2"):
            load_csv(path)

    def test_ragged_dates_report_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("date,site,channel,value\n"
                        "1970-01-01,A,oil,1.0\n"
                        "1970-01-03,A,oil,2.0\n"
                        "1970-01-08,A,oil,3.0\n")
        with pytest.raises(FormatError, match="ragged dates.*row 4"):
            load_csv(path)

    def test_round_trip_exact(self, tmp_path):
        panel = generate_synthetic(SyntheticFieldConfig(
            n_sites=2, wells_per_site=3, n_steps=40, seed=7))
        path = tmp_path / "panel.csv"
        save_csv(panel, path)
        loaded = load_csv(path)
        assert loaded.columns == panel.columns
        assert np.array_equal(loaded.timestamps, panel.timestamps)
        assert np.array_equal(loaded.values, panel.values)
        # and byte-stable when saved again
        again = tmp_path / "again.csv"
        save_csv(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("days", [[DAY_ONE - 1, DAY_ONE],
                                      [DAY_LAST - 1, DAY_LAST, DAY_LAST + 1]])
    def test_date_outside_iso_range_refused_before_writing(self, tmp_path,
                                                            days):
        # datetime.date holds years 1 to 9999 only; a library caller got an
        # OverflowError traceback here
        odd = days[0] if days[0] < DAY_ONE else days[-1]
        panel = SeriesPanel(columns=[("A", "oil")], timestamps=days,
                            values=np.ones((len(days), 1)))
        with pytest.raises(ParameterError, match=f"^timestamp {odd} "):
            save_csv(panel, tmp_path / "out" / "panel.csv")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("iso", ["0001-01-01", "0004-03-08", "1970-01-01",
                                     "9999-12-31"])
    def test_dates_written_as_iso(self, tmp_path, iso):
        day = (datetime.date.fromisoformat(iso) - EPOCH).days
        save_csv(SeriesPanel(columns=[("A", "oil")], timestamps=[day],
                             values=[[1.0]]), tmp_path / "one.csv")
        assert (tmp_path / "one.csv").read_text() == (
            f"{CSV_HEADER}\n{iso},A,oil,1.000000\n")

    def test_large_panel_split_index(self, tmp_path):
        panel = generate_synthetic(SyntheticFieldConfig(
            n_sites=1, wells_per_site=1, n_steps=7200, seed=3,
            shutin_rate=0.0, noise_scale=0.0))
        path = tmp_path / "big.csv"
        save_csv(panel, path)
        assert load_csv(path).split_index == 5760


def reference_date_to_epoch_days(iso, row=None):
    try:
        return (datetime.date.fromisoformat(iso) - EPOCH).days
    except ValueError as exc:
        where = f" at row {row}" if row is not None else ""
        raise FormatError(f"bad ISO date {iso!r}{where}") from exc


def reference_load_csv(path):
    """The per-row parser that ``load_csv`` replaced, kept as its oracle."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise FormatError(f"expected header {CSV_HEADER!r}")
    cells = {}
    columns = []
    dates = []
    seen_dates = set()
    first_row = {}
    for row, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise FormatError(f"expected 4 fields at row {row}")
        date_s, site, channel, value_s = parts
        day = reference_date_to_epoch_days(date_s, row)
        first_row.setdefault(day, row)
        try:
            value = float(value_s)
        except ValueError:
            raise FormatError(f"non-numeric value {value_s!r} at row {row}") from None
        if not 0.0 <= value < math.inf:  # one test per row for nan, inf and < 0
            if math.isfinite(value):
                raise ValidationError(f"negative value at row {row}")
            raise FormatError(f"non-finite value {value_s!r} at row {row}")
        key = (day, site, channel)
        if key in cells:
            raise FormatError(f"duplicate cell {key} at row {row}")
        cells[key] = value
        if (site, channel) not in columns:
            columns.append((site, channel))
        if day not in seen_dates:
            seen_dates.add(day)
            dates.append(day)
    if not cells:
        raise FormatError("no data rows")
    dates.sort()
    if len(dates) >= 2:
        strides = np.diff(dates)
        if np.any(strides != strides[0]):
            bad_day = dates[int(np.flatnonzero(strides != strides[0])[0]) + 1]
            raise FormatError(
                f"ragged dates: {epoch_days_to_date(bad_day)} (first seen at "
                f"row {first_row[bad_day]}) breaks the constant stride")
    values = np.empty((len(dates), len(columns)))
    for t, day in enumerate(dates):
        for j, (site, channel) in enumerate(columns):
            try:
                values[t, j] = cells[(day, site, channel)]
            except KeyError:
                raise FormatError(
                    f"missing cell for {epoch_days_to_date(day)} "
                    f"({site}, {channel})") from None
    return SeriesPanel(columns=columns, timestamps=np.array(dates),
                       values=values)


def parse_outcome(parse, path):
    """The panel's bytes, or the error's class and text."""
    try:
        p = parse(path)
    except ValidationError as exc:
        return type(exc), str(exc)
    return (p.columns, p.timestamps.dtype, p.timestamps.tobytes(),
            p.values.shape, p.values.tobytes(), p.split_index)


# every line break of str.splitlines
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029"]
FAULTS = ("fields", "date", "date_alias", "number", "non_finite", "negative",
          "duplicate", "ragged", "missing", "empty")


@st.composite
def csv_texts(draw):
    """A small panel as CSV text: shuffled rows, value spellings that
    ``float`` accepts, and zero or more faults and blank lines.  Site names
    may be non-ASCII, hold NULs or run past 16 bytes; each line ends in one
    of ``str.splitlines``' line breaks, and the last may end in none."""
    sites = draw(st.lists(st.sampled_from(
        ["A", "B", "SITE02", "Ölfeld", "井", "A\x00", "A\x00B",
         "a site name past sixteen bytes"]), min_size=1, max_size=3,
        unique=True))
    channels = draw(st.lists(st.sampled_from(["oil", "water"]), min_size=1,
                             max_size=2, unique=True))
    start, stride = draw(st.integers(0, 800)), draw(st.integers(1, 3))
    n_dates = draw(st.integers(1, 5))
    spelling = st.sampled_from(["0.000000", "1.5", "12.345678", " 3 ",
                                "1_000", "2e-3", "7", "+1", ".5", "5.", "1E3",
                                "\t2\t", "\u0661", "12345.678901234567890"])
    rows = [[epoch_days_to_date(start + t * stride), site, channel,
             draw(spelling)]
            for t in range(n_dates) for site in sites for channel in channels]
    rows = draw(st.permutations(rows))
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3)):
        if not rows:
            break
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if fault == "fields" and (len(row) < 2 or draw(st.booleans())):
            row.append("x")
        elif fault == "fields":
            row.pop()
        elif fault == "date":
            row[0] = draw(st.sampled_from(["1970-13-01", "x", "", "2021-02-29",
                                           "0000-01-01", row[0] + "\x00"]))
        elif fault == "date_alias":  # another spelling of the same day
            row[0] = row[0].replace("-", "")
        elif fault == "number":
            row[-1] = draw(st.sampled_from(["abc", "", "1.2.3", "--1", "1e",
                                            ".", "1\x00", "\u0661\u0662x"]))
        elif fault == "non_finite":
            row[-1] = draw(st.sampled_from(["nan", "inf", "-inf", "Infinity"]))
        elif fault == "negative":
            row[-1] = "-1.5"
        elif fault == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), list(row))
        elif fault == "ragged":  # move one date a day off the stride
            day = start + draw(st.integers(0, n_dates - 1)) * stride
            for other in rows:
                if other[0] == epoch_days_to_date(day):
                    other[0] = epoch_days_to_date(day + 1)
        elif fault == "missing":
            rows.remove(row)
        else:
            rows.clear()
    lines = [CSV_HEADER] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    # mostly "\n", as in a saved panel; any break in a few lines
    breaks = st.one_of(st.just("\n"), st.sampled_from(LINE_BREAKS))
    ends = [draw(breaks) for _ in lines[:-1]]
    ends.append(draw(st.sampled_from(["", *LINE_BREAKS])))
    return "".join(line + end for line, end in zip(lines, ends))


class TestCsvParserMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(text=csv_texts())
    def test_same_panel_or_same_error(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "reference_case.csv"
        path.write_bytes(text.encode("utf-8"))
        assert parse_outcome(load_csv, path) == \
            parse_outcome(reference_load_csv, path)

    @pytest.mark.parametrize("body,error", [
        # a duplicate at row 3 comes before a bad date at row 4
        (["1970-01-01,A,oil,1", "1970-01-01,A,oil,2", "x,A,oil,3"],
         "duplicate cell (0, 'A', 'oil') at row 3"),
        # within one row, the date is checked before the number
        (["1970-01-01,A,oil,1", "x,A,oil,abc"], "bad ISO date 'x' at row 3"),
        # a field-count fault at row 2 hides every later fault
        (["1970-01-01,A,oil", "1970-01-03,A,oil,-1"],
         "expected 4 fields at row 2"),
        # blank lines keep their row numbers
        (["", "1970-01-01,A,oil,1", "", "1970-01-03,A,oil,nan"],
         "non-finite value 'nan' at row 5"),
        # two spellings of one day are one date
        (["1970-01-01,A,oil,1", "19700101,A,oil,2"],
         "duplicate cell (0, 'A', 'oil') at row 3"),
    ])
    def test_first_faulty_row_in_file_order(self, tmp_path, body, error):
        path = tmp_path / "faults.csv"
        path.write_text("\n".join([CSV_HEADER] + body) + "\n")
        with pytest.raises(FormatError) as raised:
            load_csv(path)
        assert str(raised.value) == error

    def test_site_first_seen_mid_file_orders_columns(self, tmp_path):
        path = tmp_path / "late.csv"
        path.write_text("date,site,channel,value\n"
                        "1970-01-03,B,oil,3\n"
                        "1970-01-01,B,oil,1\n"
                        "1970-01-01,A,water,2\n"
                        "1970-01-03,A,water,4\n")
        p = load_csv(path)
        assert p.columns == [("B", "oil"), ("A", "water")]
        assert np.array_equal(p.values, [[1.0, 2.0], [3.0, 4.0]])


@st.composite
def fixed_point(draw, width=None):
    """Digits around one "." (or none): 1 to 16 digits, 0 to 9 of them
    after the point; with ``width``, that many characters, dot anywhere."""
    if width is None:
        n = draw(st.integers(1, 16))
        f = draw(st.integers(0, min(9, n)))
        digits = draw(st.text("0123456789", min_size=n, max_size=n))
        dot = n - f if f or draw(st.booleans()) else None
    else:
        digits = draw(st.text("0123456789", min_size=width - 1,
                              max_size=width - 1))
        dot = draw(st.integers(0, width - 1))
    return digits if dot is None else digits[:dot] + "." + digits[dot:]


@st.composite
def value_columns(draw):
    """One column of value texts: fixed point of any width, a group of one
    width whose dot moves, other spellings float takes, and faults."""
    width = draw(st.integers(2, 17))
    texts = st.one_of(
        fixed_point(), fixed_point(width),
        st.sampled_from(["5.", ".5", "+1.5", "1e5", "1E-3", "00012.5",
                         "0.000000", "999999999999999.9", "9999999999999999."]),
        st.sampled_from(["-1.5", "-0.000", "nan", "inf", "abc", ".", "1.2.3",
                         "1.5\x00", "1..5", "١.5"]))
    good = st.one_of(fixed_point(), fixed_point(width))
    values = draw(st.lists(good, min_size=1, max_size=30))
    for _ in range(draw(st.integers(0, 4))):
        values.insert(draw(st.integers(0, len(values))), draw(texts))
    return values


class TestCsvValues:
    @settings(max_examples=300, deadline=None)
    @given(texts=value_columns())
    @example(texts=["12.5", "1.25", ".125", "125."])
    @example(texts=["1234567890123456.", "1.5"])
    @example(texts=["1.5", "-1.5", "nan", "abc"])
    def test_values_have_float_bits(self, tmp_path_factory, texts):
        """Every value has the bits of ``float(text)``, as the per-row
        parser reads it, or the file fails with that parser's error and
        row."""
        path = tmp_path_factory.getbasetemp() / "values_case.csv"
        path.write_text(CSV_HEADER + "\n" + "".join(
            f"{epoch_days_to_date(t)},A,oil,{text}\n"
            for t, text in enumerate(texts)))
        assert parse_outcome(load_csv, path) == \
            parse_outcome(reference_load_csv, path)


class TestArps:
    def test_exponential_limit(self):
        dt = np.array([0.0, 10.0, 100.0])
        out = arps_rate(50.0, 0.01, 0.0, dt)
        assert np.allclose(out, 50.0 * np.exp(-0.01 * dt))

    def test_harmonic_half_life(self):
        # b = 1: q(1/D) = q_i / 2
        d = 0.004
        out = arps_rate(80.0, d, 1.0, np.array([1.0 / d]))
        assert np.isclose(out[0], 40.0, atol=1e-9)

    def test_degenerate_constant(self):
        # b = 0 with D -> 0 keeps the rate at q_i
        out = arps_rate(66.0, 1e-12, 0.0, np.arange(5.0))
        assert np.allclose(out, 66.0, atol=1e-6)


@np.errstate(all="ignore")
def replay_wells(cfg, series=None):
    """Each site's list of (oil, water) well series, drawn as
    ``generate_synthetic`` draws them from the (seed, DATA) stream, on the
    field's time axis and surge profile; ``series`` replaces
    ``_well_series`` by a function of (cfg, rng, first_well)."""
    rng = stream(cfg.seed, DATA)
    t = np.arange(cfg.n_steps, dtype=np.float64)
    surge = 1.0 + cfg.surge_amplitude * np.exp(-t / cfg.surge_decay_steps)
    if series is None:
        def series(cfg, rng, first_well):
            return _well_series(cfg, rng, t, surge, first_well=first_well)
    return [[series(cfg, rng, first_well=(w == 0))
             for w in range(cfg.wells_per_site)] for _ in range(cfg.n_sites)]


class TestGenerator:
    def test_deterministic_per_seed(self):
        cfg = SyntheticFieldConfig(n_sites=2, wells_per_site=2, n_steps=60)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert np.array_equal(a.values, b.values)
        c = generate_synthetic(replace_seed(cfg, 43))
        assert not np.array_equal(a.values, c.values)

    def test_values_nonnegative_and_water_zero_before_breakthrough(self):
        cfg = SyntheticFieldConfig(n_sites=3, wells_per_site=4, n_steps=300,
                                   seed=5)
        panel = generate_synthetic(cfg)
        assert np.all(panel.values >= 0.0)
        for site in replay_wells(cfg):
            for _, water in site:
                nz = np.flatnonzero(water > 0)
                if len(nz):
                    assert np.all(water[:nz[0]] == 0.0)

    def test_site_is_sum_of_wells(self):
        cfg = SyntheticFieldConfig(n_sites=2, wells_per_site=5, n_steps=120,
                                   seed=9)
        panel = generate_synthetic(cfg)
        for site, wells in zip(panel.site_names, replay_wells(cfg)):
            for j, channel in enumerate(("oil", "water")):
                raw = np.zeros(cfg.n_steps)
                for well in wells:
                    raw += well[j]
                col = panel.column_index(site, channel)
                # panel values are the well sums snapped to the 6-decimal grid
                assert np.array_equal(panel.values[:, col],
                                      _snap_6_decimals(raw))
                assert np.abs(panel.values[:, col] - raw).max() < 5e-7

    def test_shutin_produces_exact_zeros(self):
        cfg = SyntheticFieldConfig(n_sites=1, wells_per_site=1, n_steps=400,
                                   shutin_rate=0.05, noise_scale=0.2, seed=11)
        panel = generate_synthetic(cfg)
        oil = panel.values[:, panel.column_index("SITE00", "oil")]
        assert np.array_equal(oil, _snap_6_decimals(replay_wells(cfg)[0][0][0]))
        assert np.any(oil[50:] == 0.0)  # events do occur at this rate

    def test_constant_degenerate_well(self):
        cfg = SyntheticFieldConfig(
            n_sites=1, wells_per_site=1, n_steps=50, seed=13,
            q_init_range=(75.0, 75.0), decline_range=(1e-12, 1e-12),
            b_range=(0.0, 0.0), well_start_frac=0.02,
            breakthrough_delay_range=(100, 101), shutin_rate=0.0,
            noise_scale=0.0)
        panel = generate_synthetic(cfg)
        oil = panel.values[:, 0]
        started = oil > 0
        assert np.allclose(oil[started], 75.0, atol=1e-4)

    def test_invalid_config_rejected(self):
        with pytest.raises(ParameterError):
            generate_synthetic(SyntheticFieldConfig(wells_per_site=0))

    @pytest.mark.parametrize("key,value", [("n_steps", 10 ** 12),
                                           ("wells_per_site", 10 ** 9)])
    def test_huge_field_refused_before_allocating(self, key, value):
        with pytest.raises(ParameterError,
                           match="lower n_sites, wells_per_site or n_steps"):
            generate_synthetic(SyntheticFieldConfig(**{key: value}))

    def test_field_size_bound_is_the_draw_budget(self):
        # 2^20 two-day steps end in year 7711; MAX_DRAWS one-well steps
        # would pass year 9999
        SyntheticFieldConfig(n_sites=1, wells_per_site=MAX_DRAWS >> 20,
                             n_steps=1 << 20).validate()
        with pytest.raises(ParameterError, match="lower n_sites"):
            SyntheticFieldConfig(n_sites=2, wells_per_site=1,
                                 n_steps=MAX_DRAWS // 2 + 1).validate()

    @pytest.mark.parametrize("changes", [
        {"start_day": 2932890}, {"start_day": -719200},
        {"stride_days": 2000000}, {"start_day": 10 ** 18},
        {"stride_days": 10 ** 18}, {"start_day": -10 ** 18}])
    def test_dates_outside_years_1_to_9999_refused(self, changes):
        cfg = SyntheticFieldConfig(n_steps=10, n_sites=1, wells_per_site=1,
                                   **changes)
        with pytest.raises(ParameterError, match="outside 0001-01-01"
                                                 "..9999-12-31") as caught:
            generate_synthetic(cfg)
        first = cfg.start_day
        assert f"from epoch day {first} to {first + 9 * cfg.stride_days}" \
            in str(caught.value)

    def test_dates_at_years_1_and_9999_accepted(self):
        for start_day, stride_days in ((DAY_ONE, 1), (DAY_LAST - 9, 1),
                                       (DAY_ONE, (DAY_LAST - DAY_ONE) // 9)):
            panel = generate_synthetic(SyntheticFieldConfig(
                n_steps=10, n_sites=1, wells_per_site=1, start_day=start_day,
                stride_days=stride_days))
            assert epoch_days_to_date(panel.timestamps[0]) >= "0001-01-01"
            assert epoch_days_to_date(panel.timestamps[-1]) <= "9999-12-31"

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_day_refused(self, stride):
        with pytest.raises(ParameterError, match="stride_days must be >= 1"):
            generate_synthetic(SyntheticFieldConfig(n_steps=10, n_sites=1,
                                                    stride_days=stride))

    @pytest.mark.parametrize("lo,hi", [(-5, -3), (-1, 0)])
    def test_negative_shutin_duration_refused(self, lo, hi):
        # at the parent, (-5, -3) ended in a broadcast ValueError and
        # (-1, 0) at shutin_rate 1 looped forever
        cfg = SyntheticFieldConfig(n_steps=50, n_sites=1, wells_per_site=1,
                                   shutin_rate=1.0,
                                   shutin_duration_range=(lo, hi))
        with pytest.raises(ParameterError, match="shutin_duration_range"):
            generate_synthetic(cfg)

    def test_config_text_round_trip(self):
        cfg = SyntheticFieldConfig(n_sites=3, seed=99, noise_scale=0.05,
                                   shutin_duration_range=(2, 9))
        text = config_to_text(cfg)
        back = config_from_text(text)
        assert back == cfg
        with pytest.raises(FormatError):
            config_from_text("bogus_key=1\n")


@st.composite
def field_configs(draw):
    """Valid generator configs with small n_steps, each range ordered."""
    def ordered(elements):
        return st.lists(elements, min_size=2, max_size=2).map(sorted).map(tuple)

    def steps(lo, hi):  # integer ranges need lo < hi
        return ordered(st.integers(lo, hi)).filter(lambda r: r[0] < r[1])

    n_steps = draw(st.integers(2, 60))
    stride = draw(st.integers(1, 9))
    return SyntheticFieldConfig(
        n_sites=draw(st.integers(1, 3)), wells_per_site=draw(st.integers(1, 4)),
        n_steps=n_steps, stride_days=stride,
        start_day=draw(st.integers(DAY_ONE, DAY_LAST - (n_steps - 1) * stride)),
        q_init_range=draw(ordered(st.floats(1e-3, 1e4))),
        decline_range=draw(ordered(st.floats(1e-6, 0.5))),
        b_range=draw(ordered(st.floats(0.0, 1.0))),
        well_start_frac=draw(st.floats(0.0, 1.0)),
        breakthrough_delay_range=draw(steps(-20, 80)),
        water_cut_max_range=draw(ordered(st.floats(0.0, 1.0))),
        water_ramp_steps=draw(st.floats(1e-3, 500.0)),
        shutin_rate=draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
        shutin_duration_range=draw(steps(0, 20)),
        surge_amplitude=draw(st.floats(0.0, 5.0)),
        surge_decay_steps=draw(st.one_of(st.just(1e-300),
                                         st.floats(1e-3, 50.0))),
        noise_scale=draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
        seed=draw(st.integers(0, 2 ** 32)))


def assert_same_bytes(got: SeriesPanel, want: SeriesPanel, tmp):
    assert got.columns == want.columns
    assert got.split_index == want.split_index
    assert got.timestamps.tobytes() == want.timestamps.tobytes()
    assert got.values.tobytes() == want.values.tobytes()
    oracles.save_csv(want, tmp / "want.csv")
    save_csv(got, tmp / "got.csv")
    assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()


def assert_matches_oracle(cfg):
    """Every well series, the panel and its CSV have the bits of the
    whole-record generator and the per-row writer in ``oracles``."""
    wells = replay_wells(cfg)
    for site, want_site in zip(wells, replay_wells(cfg, oracles._well_series)):
        for (oil, water), (want_oil, want_water) in zip(site, want_site):
            assert oil.tobytes() == want_oil.tobytes()
            assert water.tobytes() == want_water.tobytes()
    try:
        want = oracles.generate_synthetic(cfg)
    except ValidationError as exc:  # an overflowing field, refused by both
        with pytest.raises(ValidationError, match=re.escape(str(exc))):
            generate_synthetic(cfg)
        return wells
    with tempfile.TemporaryDirectory() as tmp:
        assert_same_bytes(generate_synthetic(cfg), want, Path(tmp))
    return wells


# the generator's edges
EDGES = {
    # every well breaks through at or after the last step
    "breakthrough_at_end": dict(n_steps=12, well_start_frac=0.0,
                                breakthrough_delay_range=(11, 15)),
    # wells may spud at step 1, the last that well_start_frac 1 allows
    "spud_at_last_step": dict(n_steps=2, n_sites=2, wells_per_site=6,
                              well_start_frac=1.0, shutin_rate=0.0,
                              breakthrough_delay_range=(0, 1)),
    "no_shutins": dict(n_steps=60, shutin_rate=0.0),
    "frequent_shutins": dict(n_steps=400, shutin_rate=0.05),
    "exponential_decline": dict(n_steps=80, b_range=(0.0, 0.0)),
    "noiseless": dict(n_steps=80, noise_scale=0.0, shutin_rate=0.05),
    # the surge profile is 1 + amplitude at k = 0, then underflows to 1.0
    "tiny_surge_decay": dict(n_steps=200, shutin_rate=0.05,
                             surge_decay_steps=1e-300),
    "two_steps": dict(n_steps=2),
    "breakthrough_before_spud": dict(n_steps=50,
                                     breakthrough_delay_range=(-30, -10)),
    "default": dict(),
}


class TestGeneratorMatchesOracle:
    """The generator evaluates decline from spud, the water cut from
    breakthrough and each surge as a slice of one field-wide profile; the
    writer formats a step's rows with one template.  Both keep the bits of
    the whole-record forms in ``oracles``."""

    @settings(max_examples=150, deadline=None)
    @given(field_configs())
    def test_any_valid_field(self, cfg):
        assert_matches_oracle(cfg)

    @pytest.mark.parametrize("name", EDGES)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_edges(self, name, seed):
        cfg = SyntheticFieldConfig(seed=seed, **EDGES[name])
        wells = [w for site in assert_matches_oracle(cfg) for w in site]
        if name == "breakthrough_at_end":
            assert all(not water[:-1].any() for _, water in wells)
        if name == "spud_at_last_step":
            assert any(oil[0] == 0.0 < oil[1] for oil, _ in wells)
        if name == "tiny_surge_decay":
            assert any((oil == 0.0).any() for oil, _ in wells)


@st.composite
def csv_panels(draw):
    names = st.text(max_size=6)
    columns = draw(st.lists(st.tuples(names, names), min_size=1, max_size=4,
                            unique=True))
    n = draw(st.integers(1, 12))
    stride = draw(st.integers(1, 400))
    values = st.one_of(st.floats(0.0, 1e12), st.floats(0.0, 1.7e308),
                       st.sampled_from([-0.0, 0.0, 5e-7, 1e9, 999999999.9999995,
                                        2.0 ** 53 + 2.0]))
    last_start = DAY_LAST - (n - 1) * stride
    return SeriesPanel(
        columns=columns,
        timestamps=draw(st.one_of(st.sampled_from([DAY_ONE, last_start]),
                                  st.integers(DAY_ONE, last_start)))
        + stride * np.arange(n),
        values=np.array(draw(st.lists(values, min_size=n * len(columns),
                                      max_size=n * len(columns))))
        .reshape(n, len(columns)))


class TestSaveCsvMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(csv_panels())
    @example(SeriesPanel(columns=[("S%s", "oil%d"), ("%%", "%")],
                         timestamps=[DAY_ONE, DAY_LAST],
                         values=[[-0.0, 1e9], [123456789012.345678, 0.0]]))
    def test_any_panel(self, panel):
        with tempfile.TemporaryDirectory() as tmp:
            assert_same_bytes(panel, panel, Path(tmp))


def string_snap(values):
    """The 6-decimal grid through the string, as the CSV writes it."""
    return np.array([float(f"{v:.6f}") for v in values])


def near_ties():
    """(k + 0.5) / 1e6 at several scales, and its neighbours one ulp away."""
    k = st.integers(-10 ** 12, 10 ** 12).map(lambda k: (k + 0.5) / 1e6)
    return st.tuples(k, st.sampled_from([-1, 0, 1])).map(
        lambda t: t[0] if t[1] == 0 else np.nextafter(t[0], t[1] * np.inf))


class TestSnap:
    """Snapping the panel to 6 decimals with array ops gives the bits of
    float(f"{v:.6f}") for every finite value."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1e-5, 1e-5), near_ties(),
        st.floats(2.0 ** 52 / 1e6, 1e12),
        st.sampled_from([0.0, -0.0, -1e-300, -4e-7, -5e-7, 5e-7, 1 / 128,
                         2.0 ** 52 / 1e6])), min_size=1, max_size=40))
    def test_matches_string_round_trip(self, values):
        values = np.array(values)
        got, want = _snap_6_decimals(values), string_snap(values)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_exact_ties_round_half_even(self):
        # 1/128 * 1e6 = 7812.5 exactly: both routes round it to even
        values = np.array([1 / 128, 3 / 128, -1 / 128])
        assert _snap_6_decimals(values).tolist() == [0.007812, 0.023438,
                                                     -0.007812]

    @pytest.mark.parametrize("seed,digest", [
        (1, "ccc90ba2597aa1d66b2e000182e088142f81ae290fc6161b6ce8e5f706877d37"),
        (7, "88d77c4c927af7fc7e89ac054d2a8964d6018f4997f1f809ab07e273d9ca305e"),
        (42, "997fd86277434a139a9adeee26a52c058ffe0d98c5836c336d3d0f3e0a774d67")])
    def test_default_panel_bytes(self, seed, digest):
        values = generate_synthetic(SyntheticFieldConfig(seed=seed)).values
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest


def replace_seed(cfg, seed):
    from dataclasses import replace
    return replace(cfg, seed=seed)
