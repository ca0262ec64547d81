"""Tests of the benchmark's own machinery.

    python3 -m pytest bench -q
"""

import json
import sys
from pathlib import Path

import pytest

import harness
from harness import Ledger, Span, Tracer, self_times

BENCH = Path(__file__).resolve().parent


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_self_time_of_a_hand_built_tree():
    #  root 0..10
    #  +- a 1..4          (self 3 - 1 = 2)
    #  |  +- a1 2..3
    #  +- b 5..9          (self 4 - 3 = 1, children overlap on 6..7)
    #     +- b1 5..7
    #     +- b2 6..8
    spans = [Span("root", 0, 10, -1, 0), Span("a", 1, 4, 0, 0),
             Span("a1", 2, 3, 1, 0), Span("b", 5, 9, 0, 0),
             Span("b1", 5, 7, 3, 0), Span("b2", 6, 8, 3, 0)]
    assert self_times(spans) == [10 - 3 - 4, 2, 1, 1, 2, 2]


def test_self_time_clips_children_to_the_parent():
    spans = [Span("p", 0, 4, -1, 0), Span("c", 3, 6, 0, 0)]
    assert self_times(spans) == [3, 3]


def test_self_times_sum_to_the_root_duration():
    spans = [Span("root", 0, 10, -1, 0), Span("a", 1, 4, 0, 0),
             Span("a1", 2, 3, 1, 0), Span("b", 5, 9, 0, 0)]
    assert sum(self_times(spans)) == 10


def test_tracer_nests_spans_and_charges_self_time_by_name():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))

    def leaf():
        return "leaf"

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_outer = tracer.wrap(lambda: [traced_leaf(), traced_leaf()],
                               "outer")
    tracer.op = 7
    assert traced_outer() == ["leaf", "leaf"]
    outer, first, second = tracer.spans
    assert (outer.name, outer.parent, outer.op) == ("outer", -1, 7)
    assert first.parent == second.parent == 0
    # clock: outer 0..5, leaves 1..2 and 3..4
    assert tracer.self_time_by_name([7]) == {"outer": 3, "leaf": 2}
    assert tracer.self_time_by_name([8]) == {}


def test_tracer_closes_the_span_when_the_callable_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    assert tracer.spans[0].name == "boom"
    assert tracer._open == []


def test_tracer_names_spans_from_arguments_and_counts_per_chunk():
    tracer = Tracer()
    f = tracer.wrap(lambda mode: mode, lambda a, k: "f_" + k["mode"],
                    after=lambda a, k, r: tracer.count("calls"))
    f(mode="prob")
    tracer.op = 1
    f(mode="full")
    f(mode="full")
    assert [s.name for s in tracer.spans] == ["f_prob", "f_full", "f_full"]
    assert tracer.counts_of(-1) == {"calls": 1}
    assert tracer.counts_of(1) == {"calls": 2}


# ---------------------------------------------------------------------------
# percentiles and the sample-count rule
# ---------------------------------------------------------------------------

def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 90) == 90
    assert harness.percentile(values, 100) == 100
    assert harness.percentile([3.0], 90) == 3.0
    assert harness.median([5, 1, 3, 2]) == 2.5


@pytest.mark.parametrize("n, tail", [
    (10, None), (39, None), (40, 75), (99, 75), (100, 90), (199, 90),
    (200, 95), (999, 95), (1000, 99)])
def test_tail_percentile_needs_ten_samples_beyond_it(n, tail):
    assert harness.tail_percentile(n) == tail
    if tail is not None:
        assert harness.samples_beyond(n, tail) >= harness.MIN_SAMPLES_BEYOND


def test_p90_is_withheld_below_one_hundred_samples():
    assert harness.percentile_if_supported(list(range(99)), 90) is None
    assert harness.percentile_if_supported(list(range(1, 101)), 90) == 90


# ---------------------------------------------------------------------------
# error-rate accounting
# ---------------------------------------------------------------------------

def test_a_failed_chunk_fails_all_its_operations():
    ledger = Ledger()
    ledger.record(64, [])
    ledger.record(64, ["non-finite loss"])
    ledger.record(64, [])
    assert (ledger.attempted, ledger.failed) == (192, 64)
    assert ledger.error_rate == pytest.approx(1 / 3)
    assert ledger.reasons == ["non-finite loss"]
    assert not ledger.correct


def test_several_failures_of_one_chunk_count_its_operations_once():
    ledger = Ledger()
    ledger.record(1, ["shape", "not byte-identical"])
    ledger.record(1, [])
    assert (ledger.attempted, ledger.failed, ledger.error_rate) == (2, 1, 0.5)


def test_run_errors_make_the_run_incorrect_without_failing_operations():
    ledger = Ledger()
    ledger.record(4, [])
    assert ledger.correct and ledger.error_rate == 0.0
    ledger.run_error("tape nodes differ across seeds")
    assert ledger.failed == 0 and ledger.error_rate == 0.0
    assert not ledger.correct


def test_a_run_that_attempted_nothing_is_not_correct():
    assert not Ledger().correct
    assert Ledger().error_rate == 1.0


# ---------------------------------------------------------------------------
# BENCHMARK.json matches what the runs print
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_the_metrics_the_runs_report():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(BENCH.parent / "src"))
    import run
    import tracing
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def calibrator_with(samples, ref_s=1.0):
    cal = harness.Calibrator(kernel=None, ref_s=ref_s)
    for start, end in samples:
        cal.starts.append(start)
        cal.ends.append(end)
    return cal


def test_an_interval_is_scaled_by_the_kernel_times_around_it():
    # kernel took 1 s before the interval and 3 s after: mean 2 s
    cal = calibrator_with([(0, 1), (11, 14)])
    raw, scaled = cal.measure(1, 11)
    assert raw == 10 and scaled == pytest.approx(10 * 1.0 / 2)


def test_kernel_runs_inside_an_interval_are_cut_out_and_bound_each_gap():
    #  k=1 [0,1] | gap 1..5 | k=2 [5,7] | gap 7..9 | k=4 [9,13]
    cal = calibrator_with([(0, 1), (5, 7), (9, 13)])
    raw, scaled = cal.measure(1, 9)
    assert raw == 4 + 2
    assert scaled == pytest.approx(4 / 1.5 + 2 / 3)


def test_a_first_interval_without_an_earlier_sample_uses_the_later_ones():
    cal = calibrator_with([(2, 4), (10, 12)])
    raw, scaled = cal.measure(0, 10)
    # gap 0..2 bounded only by the 2 s sample; gap 4..10 by 2 s and 2 s
    assert raw == 8 and scaled == pytest.approx(8 / 2)


def test_an_interval_with_no_sample_near_it_is_an_error():
    with pytest.raises(ValueError):
        calibrator_with([]).measure(0, 1)


def test_maybe_sample_keeps_a_minimum_gap():
    ticks = iter(range(0, 1000, 1))
    runs = []
    cal = harness.Calibrator(kernel=lambda: runs.append(1), ref_s=1.0,
                             min_gap_s=5, clock=lambda: next(ticks))
    for _ in range(6):
        cal.maybe_sample()
    # the clock advances 2 ticks per sample and 1 per skipped check
    assert len(runs) == 2


def test_a_paused_calibrator_does_not_sample():
    runs = []
    cal = harness.Calibrator(kernel=lambda: runs.append(1), ref_s=1.0)
    cal.paused = True
    cal.maybe_sample()
    cal.paused = False
    cal.maybe_sample()
    assert len(runs) == 1
