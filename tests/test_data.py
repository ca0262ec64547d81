import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellcast.data import (SeriesPanel, SyntheticFieldConfig, arps_rate,
                           config_from_text, config_to_text,
                           generate_synthetic, load_csv, save_csv, split,
                           truncate_at_breakthrough)
from wellcast.errors import (FormatError, NoBreakthroughError, ParameterError,
                             ValidationError)


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


class TestSplit:
    def test_arithmetic(self):
        p = panel_from(np.ones((10, 1)))
        train, test = split(p, 0.8)
        assert train.n_steps == 8 and test.n_steps == 2

    def test_7200_split(self):
        p = panel_from(np.ones((7200, 1)))
        train, test = split(p, 0.8)
        assert train.n_steps == 5760 and test.n_steps == 1440

    def test_views_share_storage_and_partition(self):
        p = panel_from(np.arange(20.0).reshape(10, 2) + 1.0)
        train, test = split(p, 0.8)
        assert np.shares_memory(train.values, p.values)
        assert np.shares_memory(test.values, p.values)
        rebuilt = np.concatenate([train.values, test.values])
        assert np.array_equal(rebuilt, p.values)
        rebuilt_ts = np.concatenate([train.timestamps, test.timestamps])
        assert np.array_equal(rebuilt_ts, p.timestamps)

    def test_empty_side_rejected(self):
        p = panel_from(np.ones((3, 1)))
        with pytest.raises(ParameterError):
            split(p, 0.01)  # floor(0.01 * 3) = 0: empty train side
        with pytest.raises(ParameterError):
            split(p, 1.5)
        with pytest.raises(ParameterError):
            split(p, 0.0)


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

    def test_large_panel_split_index(self, tmp_path):
        panel = generate_synthetic(SyntheticFieldConfig(
            n_sites=1, wells_per_site=1, n_steps=7200, seed=3,
            shutin_rate=0.0, noise_scale=0.0))
        path = tmp_path / "big.csv"
        save_csv(panel, path)
        assert load_csv(path).split_index == 5760


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
        panel, wells = generate_synthetic(cfg, return_wells=True)
        assert np.all(panel.values >= 0.0)
        for name, series in wells.items():
            if name.endswith("/water") and "well" in name:
                nz = np.flatnonzero(series > 0)
                if len(nz):
                    assert np.all(series[:nz[0]] == 0.0)

    def test_site_is_sum_of_wells(self):
        cfg = SyntheticFieldConfig(n_sites=2, wells_per_site=5, n_steps=120,
                                   seed=9)
        panel, wells = generate_synthetic(cfg, return_wells=True)
        for site in panel.site_names:
            oil_sum = sum(wells[k] for k in sorted(wells)
                          if k.startswith(f"{site}/well") and k.endswith("/oil"))
            assert np.abs(oil_sum - wells[f"{site}/oil_raw"]).max() < 1e-9
            col = panel.column_index(site, "oil")
            # panel values are the raw sums snapped to the 6-decimal grid
            assert np.abs(panel.values[:, col] - wells[f"{site}/oil_raw"]).max() < 5e-7

    def test_shutin_produces_exact_zeros(self):
        cfg = SyntheticFieldConfig(n_sites=1, wells_per_site=1, n_steps=400,
                                   shutin_rate=0.05, noise_scale=0.2, seed=11)
        panel, wells = generate_synthetic(cfg, return_wells=True)
        oil = wells["SITE00/well00/oil"]
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

    def test_config_text_round_trip(self):
        cfg = SyntheticFieldConfig(n_sites=3, seed=99, noise_scale=0.05,
                                   shutin_duration_range=(2, 9))
        text = config_to_text(cfg)
        back = config_from_text(text)
        assert back == cfg
        with pytest.raises(FormatError):
            config_from_text("bogus_key=1\n")


def replace_seed(cfg, seed):
    from dataclasses import replace
    return replace(cfg, seed=seed)
