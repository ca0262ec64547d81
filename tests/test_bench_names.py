"""The benchmark's tracer looks up wellcast names by attribute; deleting or
renaming one breaks `bench/run.py --trace 1` without failing any other
test, so building its stand-in table here catches it.  Each workload also
runs once, so a changed call into wellcast that the benchmark makes fails
here rather than in a benchmark run."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
WORKLOADS = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]

import tracing  # noqa: E402
import workloads  # noqa: E402

from wellcast import seqmodels, timegrad  # noqa: E402


def test_every_traced_name_is_bound():
    trace = tracing.LayerTrace()
    assert trace._swaps  # one per wrapped callable
    assert {owner for owner, *_ in trace._swaps} >= {timegrad, seqmodels}


def test_transformers_train_through_the_one_loop():
    assert seqmodels.train_model is timegrad.fit


@pytest.mark.parametrize("name", [w["name"] for w in WORKLOADS])
def test_each_workload_runs_once(name, tmp_path):
    """Run a workload's steps once, at most two operations a chunk, so a
    change to a call that the benchmark makes fails here."""
    workload = workloads.make(name, tmp_path)
    workload.cal = SimpleNamespace(maybe_sample=lambda: None)
    workload.units = min(workload.units, 2)
    workload.setup(0)
    workload.warmup()
    out = workload.chunk(0)
    assert workload.check(0, out) == []
    workload.close()
