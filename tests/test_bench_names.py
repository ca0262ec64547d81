"""The benchmark's tracer looks up wellcast names by attribute; deleting or
renaming one breaks `bench/run.py --trace 1` without failing any other
test, so building its stand-in table here catches it."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402

from wellcast import seqmodels, timegrad  # noqa: E402


def test_every_traced_name_is_bound():
    trace = tracing.LayerTrace()
    assert trace._swaps  # one per wrapped callable
    assert {owner for owner, *_ in trace._swaps} >= {timegrad, seqmodels}


def test_transformers_train_through_the_one_loop():
    assert seqmodels.train_model is timegrad.fit
