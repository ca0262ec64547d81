from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles

from wellcast.errors import ContractError, MetricError, ParameterError
from wellcast.evaluation import (QUANTILE_GRID,
                                 ForecastEnsemble, MetricsReport, SiteMetrics,
                                 best_quantile, ensemble_moments, mase, mse,
                                 nearest_rank_index, quantile_path,
                                 svg_line_chart, write_plot_csv)
from wellcast.rng import EVAL, stream


def make_ens(samples):
    return ForecastEnsemble(samples=np.asarray(samples, dtype=np.float64))


def brute_force_quantile(values, q):
    """Independent nearest-rank oracle: sort a copy, walk to the rank."""
    ordered = sorted(values)
    import math
    k = math.ceil(q * len(ordered))
    return ordered[max(0, k - 1)]


class TestQuantilePath:
    def test_endpoints(self):
        rng = stream(0, EVAL)
        ens = make_ens(rng.normal(size=(20, 6, 2)))
        assert np.array_equal(quantile_path(ens, 0.0), ens.samples.min(axis=0))
        assert np.array_equal(quantile_path(ens, 1.0), ens.samples.max(axis=0))

    def test_median_index_for_100_samples(self):
        assert nearest_rank_index(0.5, 100) == 49
        assert nearest_rank_index(0.9, 100) == 89
        assert nearest_rank_index(0.0, 100) == 0
        assert nearest_rank_index(1.0, 100) == 99

    def test_float_grid_indices_match_exact_arithmetic(self):
        # 0.15 * 100 must give rank 15 (index 14), not 16
        for i, q in enumerate(QUANTILE_GRID, start=1):
            assert nearest_rank_index(q, 100) == 5 * i - 1
            assert nearest_rank_index(q, 20) == i - 1

    def test_out_of_range_rejected(self):
        ens = make_ens(np.zeros((3, 2, 1)))
        with pytest.raises(ParameterError):
            quantile_path(ens, -0.1)
        with pytest.raises(ParameterError):
            quantile_path(ens, 1.1)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_oracle(self, seed):
        rng = stream(10 + seed, EVAL)
        s, h, d = 17, 4, 2
        ens = make_ens(rng.normal(size=(s, h, d)))
        for q in (0.0, 0.3, 0.5, 0.77, 1.0):
            path = quantile_path(ens, q)
            for t in range(h):
                for j in range(d):
                    expect = brute_force_quantile(ens.samples[:, t, j], q)
                    assert path[t, j] == expect

    def test_monotone_in_q(self):
        rng = stream(20, EVAL)
        ens = make_ens(rng.normal(size=(30, 5, 3)))
        prev = quantile_path(ens, QUANTILE_GRID[0])
        for q in QUANTILE_GRID[1:]:
            cur = quantile_path(ens, q)
            assert np.all(cur >= prev)
            prev = cur

    def test_paths_are_actual_samples(self):
        rng = stream(21, EVAL)
        ens = make_ens(rng.normal(size=(9, 4, 1)))
        path = quantile_path(ens, 0.6)
        for t in range(4):
            assert path[t, 0] in ens.samples[:, t, 0]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=200),
           st.floats(min_value=0.0, max_value=1.0))
    def test_nearest_rank_in_bounds_property(self, n, q):
        idx = nearest_rank_index(q, n)
        assert 0 <= idx < n


class TestMse:
    def test_identity(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        # (0-0)^2 and (2-0)^2 -> mean 2
        assert mse([0.0, 2.0], [0.0, 0.0]) == 2.0

    def test_scale_quadratically(self):
        rng = stream(22, EVAL)
        a, b = rng.normal(size=8), rng.normal(size=8)
        assert np.isclose(mse(3 * a, 3 * b), 9 * mse(a, b))

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            mse([1.0], [1.0, 2.0])


class TestMase:
    def test_identity(self):
        assert mase([5.0, 6.0], [5.0, 6.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_value(self):
        # train [1,2,3,4]: naive MAE 1; |5-5|,|5-6| -> MAE 0.5 -> MASE 0.5
        assert mase([5.0, 5.0], [5.0, 6.0], [1.0, 2.0, 3.0, 4.0]) == 0.5

    def test_scale_invariance(self):
        rng = stream(23, EVAL)
        pred, truth = rng.normal(size=6), rng.normal(size=6)
        train = rng.normal(size=30)
        a = mase(pred, truth, train)
        b = mase(pred * 7.3, truth * 7.3, train * 7.3)
        assert np.isclose(a, b, rtol=1e-12)

    def test_constant_train_rejected(self):
        with pytest.raises(MetricError):
            mase([1.0], [2.0], [3.0, 3.0, 3.0])

    def test_short_train_rejected(self):
        with pytest.raises(ParameterError):
            mase([1.0], [2.0], [3.0])

    def test_naive_persistence_on_random_walk_near_one(self):
        # rolling one-step persistence over the test span scores ~1 by
        # construction of the MASE denominator
        vals = []
        for seed in range(10):
            rng = stream(100 + seed, EVAL)
            walk = np.cumsum(rng.standard_normal(600))
            train, test = walk[:480], walk[480:]
            pred = np.concatenate([[train[-1]], test[:-1]])
            vals.append(mase(pred, test, train))
        assert 0.8 <= float(np.mean(vals)) <= 1.25

    def test_brute_force_oracle_agreement(self):
        # metric oracles: direct loops, no numpy reductions
        rng = stream(24, EVAL)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            ln = int(rng.integers(2, 15))
            pred = rng.normal(size=n)
            truth = rng.normal(size=n)
            train = rng.normal(size=ln)
            bf_mse = sum((p - t) ** 2 for p, t in zip(pred, truth)) / n
            assert abs(mse(pred, truth) - bf_mse) < 1e-12
            naive = sum(abs(train[i] - train[i - 1])
                        for i in range(1, ln)) / (ln - 1)
            bf_mae = sum(abs(p - t) for p, t in zip(pred, truth)) / n
            assert abs(mase(pred, truth, train) - bf_mae / naive) < 1e-12


class TestBestQuantile:
    def test_planted_median(self):
        rng = stream(25, EVAL)
        h = 6
        samples = np.sort(rng.normal(size=(100, h, 1)), axis=0)
        truth = samples[49, :, 0]
        q, val = best_quantile(make_ens(samples), truth, mse)
        assert q == 0.5
        assert val == 0.0

    def test_constant_ensemble_ties_to_lowest_q(self):
        ens = make_ens(np.full((10, 4, 1), 2.0))
        q, val = best_quantile(ens, np.full(4, 2.0), mse)
        assert q == QUANTILE_GRID[0]
        assert val == 0.0

    def test_planted_ninetieth_percentile(self):
        rng = stream(26, EVAL)
        samples = np.sort(rng.normal(size=(100, 5, 1)), axis=0)
        truth = samples[89, :, 0]  # rank of q=0.9
        q, val = best_quantile(make_ens(samples), truth, mse)
        assert q == 0.9
        assert val == 0.0

    def test_metric_with_closure(self):
        rng = stream(27, EVAL)
        train = np.cumsum(rng.normal(size=50))
        ens = make_ens(rng.normal(size=(40, 6, 1)))
        truth = rng.normal(size=6)
        q, val = best_quantile(ens, truth,
                               lambda p, t: mase(p, t, train))
        assert q in QUANTILE_GRID
        assert val >= 0.0

    def test_order_invariance(self):
        rng = stream(28, EVAL)
        samples = rng.normal(size=(30, 5, 1))
        truth = rng.normal(size=5)
        q1, v1 = best_quantile(make_ens(samples), truth, mse)
        perm = rng.permutation(30)
        q2, v2 = best_quantile(make_ens(samples[perm]), truth, mse)
        assert q1 == q2 and v1 == v2


class TestMoments:
    def test_constant_ensemble(self):
        ens = make_ens(np.full((5, 3, 2), 4.0))
        m = ensemble_moments(ens)
        assert np.array_equal(m.pooled_mean, [4.0, 4.0])
        assert np.array_equal(m.pooled_std, [0.0, 0.0])

    def test_two_sample_population_convention(self):
        a, b = 1.0, 3.0
        ens = make_ens(np.array([[[a]], [[b]]]))
        m = ensemble_moments(ens)
        assert m.pooled_mean[0] == 2.0
        # population std: |a-b|/2; sample std would be |a-b|/sqrt(2)
        assert np.isclose(m.pooled_std[0], abs(a - b) / 2.0)

    def test_single_sample_rejected(self):
        with pytest.raises(MetricError):
            ensemble_moments(make_ens(np.zeros((1, 3, 1))))

    def test_standard_normal_pool(self):
        rng = stream(29, EVAL)
        ens = make_ens(rng.standard_normal((200, 50, 1)))
        m = ensemble_moments(ens)
        assert abs(m.pooled_mean[0]) < 0.05
        assert abs(m.pooled_std[0] - 1.0) < 0.05


class TestReport:
    def _report(self):
        rows = [
            SiteMetrics("SITE00", 0.9, 0.011, 0.193, 0.64, 0.93, 0.62, 0.92),
            SiteMetrics("SITE01", 0.5, 0.012, 0.106, -0.05, 0.27, -0.11, 0.29),
        ]
        return MetricsReport(model="informer", rows=rows)

    def test_csv_round_trip_exact(self):
        rep = self._report()
        text = rep.to_csv_text()
        back = MetricsReport.from_csv_text(text)
        assert back.model == rep.model
        for a, b in zip(back.rows, rep.rows):
            assert a == b
        assert back.to_csv_text() == text

    def test_table_layout_columns(self):
        table = self._report().to_table_text()
        head = table.splitlines()[0]
        for col in ("Model", "Site", "MSE", "MASE"):
            assert col in head
        assert "SITE00" in table and "informer" in table

    def test_header_validation(self):
        with pytest.raises(ContractError):
            MetricsReport.from_csv_text("bogus,header\n1,2\n")


class TestPlotOutputs:
    def test_plot_csv_columns(self, tmp_path):
        path = tmp_path / "plot.csv"
        ts = np.arange(4) * 2
        write_plot_csv(path, ts, np.ones(4), np.zeros(4),
                       -np.ones(4), np.full(4, 2.0))
        lines = path.read_text().splitlines()
        assert lines[0] == "timestamp,truth,prediction,q_low,q_high"
        assert len(lines) == 5
        assert lines[1].split(",")[0] == "0"

    @pytest.mark.parametrize("n", [3, 5])
    def test_plot_csv_column_of_another_length(self, tmp_path, n):
        with pytest.raises(ContractError, match="match the timestamps"):
            write_plot_csv(tmp_path / "plot.csv", np.arange(4), np.ones(4),
                           np.ones(n), np.ones(4), np.ones(4))
        assert not list(tmp_path.iterdir())

    def test_svg_self_contained(self):
        ts = np.arange(10)
        rng = stream(30, EVAL)
        svg = svg_line_chart(ts, {"truth": rng.normal(size=10),
                                  "pred": rng.normal(size=10)},
                             band=(np.full(10, -2.0), np.full(10, 2.0)),
                             title="demo")
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")
        assert "polyline" in svg and "polygon" in svg

    def test_svg_constant_series(self):
        svg = svg_line_chart(np.arange(3), {"x": np.zeros(3)})
        assert "<svg" in svg

    def test_svg_escapes_markup_in_names(self):
        svg = svg_line_chart(np.arange(3), {"a<b": np.zeros(3)},
                             title="vanilla R&D<1> oil")
        root = ElementTree.fromstring(svg)
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "vanilla R&D<1> oil" in texts and "a<b" in texts

    @pytest.mark.parametrize("band", [None, "low", "high"])
    def test_svg_array_of_another_length(self, band):
        ts, five, three = np.arange(5), np.ones(5), np.ones(3)
        series = {"x": three if band is None else five}
        edges = None if band is None else \
            (three, five) if band == "low" else (five, three)
        with pytest.raises(ContractError, match="match the timestamps"):
            svg_line_chart(ts, series, band=edges)


@st.composite
def chart_inputs(draw):
    """Timestamps, series and an optional band for one chart: 1-60 points,
    values from -1e6 to 1e6 at one of ten decades, some series constant,
    and first and last timestamps sometimes equal."""
    n = draw(st.integers(1, 60))
    scale = 10.0 ** draw(st.integers(-3, 6))

    def column():
        if draw(st.booleans()):
            return np.full(n, draw(st.floats(-1, 1)) * scale)
        return np.array(draw(st.lists(st.floats(-1, 1), min_size=n,
                                      max_size=n))) * scale

    steps = draw(st.lists(st.integers(0, 400), min_size=n - 1, max_size=n - 1))
    ts = draw(st.integers(-20000, 20000)) + np.cumsum([0] + steps)
    if draw(st.booleans()):
        ts[-1] = ts[0]
    series = {f"s{i}": column() for i in range(draw(st.integers(1, 3)))}
    band = (column(), column()) if draw(st.booleans()) else None
    return ts.astype(np.float64), series, band


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(chart_inputs())
def test_charts_match_the_per_point_forms(tmp_path, inputs):
    ts, series, band = inputs
    assert svg_line_chart(ts, series, band=band, title="t") == \
        oracles.svg_line_chart(ts, series, band=band, title="t")
    columns = list(series.values()) * 4
    write_plot_csv(tmp_path / "new.csv", ts, *columns[:4])
    oracles.write_plot_csv(tmp_path / "old.csv", ts, *columns[:4])
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()
