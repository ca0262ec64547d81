"""Whatever single malformed input a command gets, ``cli.main`` ends with exit
0, 2, 3 or 4, lets no exception out and leaves no ``*.tmp`` file.

Each example starts from the files of a small valid run (a generated field,
an informer and a timegrad checkpoint trained one short epoch, and their
ensembles) and changes one input: a ``--config`` line, a line of the
generator sidecar, a single flag, a few records or bytes of a checkpoint or
of an ensemble, or a path.  A bad path is a ``--data`` that is a directory,
is missing or holds a byte that is not UTF-8, or an ``--out`` under a
regular file; such a run must exit 2 or 4 and print one ``error=`` line.
Values stay small (sizes up to 8), so each run is short; running out of
memory on a huge but well-formed size is not what this test is about.  The
``checkpoint`` and ``synthetic_config`` paths are not mutated, and every
path stays inside the run's own directory, so no run writes outside it.
The targeted cases of ``test_cli.py::TestMalformedInputs`` are its seed
examples.
"""

import contextlib
import io
import shutil
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wellcast import checkpoint, data
from wellcast.cli import RunConfig, main

BASE = {"horizon": "6", "samples": "8", "epochs": "1",
        "windows_per_epoch": "2", "seed": "3", "lr": "0.001",
        "context_length": "24", "enc_length": "24", "token_length": "8"}
PATHS = {"data", "out", "checkpoint", "synthetic_config"}
RUN_KEYS = [f.name for f in fields(RunConfig) if f.name not in PATHS]
FIELD_KEYS = [f.name for f in fields(data.SyntheticFieldConfig)]
MODELS = ["timegrad", "informer"]
COMMANDS = ["generate", "train", "forecast", "evaluate"]

VALUES = st.one_of(
    st.sampled_from(["", "0", "1", "2", "3", "8", "-1", "1.5", "0.5", "nan",
                     "inf", "-inf", "1e308", "abc", "1,2", "5,5", "2,1",
                     "0,1", "-1,3", "nan,1", "1,inf", "timegrad", "informer",
                     "vanilla", "oil_water_per_site", "oil_only_pairs"]),
    st.text("0.,-+eE naif", max_size=5))
FLOATS = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -1.0, 0.5, 1.5, 2.0 ** 40,
                     1e308, 3.0]),
    st.floats(allow_nan=True, allow_infinity=True))
# a record: a name ("config" is the model's config record), or (few-valued
# records only, index into the sorted names)
RECORD = st.one_of(
    st.sampled_from(["config", "timegrad/sched", "opt/step", "opt/hyper",
                     "meta/epochs_done", "ensemble/samples",
                     "ensemble/timestamps"]),
    st.tuples(st.booleans(), st.integers(0, 10 ** 6)))
INDEX = st.one_of(st.integers(0, 11), st.integers(0, 10 ** 6))
POSITION = st.one_of(st.integers(0, 300), st.integers(0, 10 ** 7))
EDIT = st.one_of(
    st.tuples(st.just("drop"), RECORD),
    st.tuples(st.just("short"), RECORD),
    st.tuples(st.just("set"), RECORD, INDEX, FLOATS),
    st.tuples(st.just("byte"), POSITION, st.integers(0, 255)),
    st.tuples(st.just("truncate"), POSITION))
EDITS = st.lists(EDIT, min_size=1, max_size=3)
# a bad --data (read by every command but generate) or a bad --out
PATH_FAULTS = ["data_dir", "data_missing", "data_not_utf8", "out_under_file"]

CASES = st.one_of(
    st.tuples(st.just("config"), st.sampled_from(COMMANDS),
              st.sampled_from(MODELS),
              st.one_of(st.tuples(st.sampled_from(RUN_KEYS + ["bogus"]), VALUES)
                        .map(lambda kv: f"{kv[0]}={kv[1]}"),
                        st.sampled_from(["garbage", "=", "horizon", "=3"]))),
    st.tuples(st.just("sidecar"), st.sampled_from(FIELD_KEYS + ["bogus"]),
              VALUES),
    st.tuples(st.just("flag"), st.sampled_from(COMMANDS),
              st.sampled_from(MODELS), st.sampled_from(RUN_KEYS), VALUES),
    st.tuples(st.just("checkpoint"), st.sampled_from(["forecast", "train"]),
              st.sampled_from(MODELS), EDITS),
    st.tuples(st.just("ensemble"), st.sampled_from(MODELS), EDITS),
    st.tuples(st.just("path"), st.sampled_from(COMMANDS[1:]),
              st.sampled_from(MODELS), st.sampled_from(PATH_FAULTS[:3]),
              POSITION, st.integers(0x80, 0xFF)),
    st.tuples(st.just("path"), st.sampled_from(COMMANDS),
              st.sampled_from(MODELS), st.just("out_under_file"), st.just(0),
              st.just(0)))


def base_argv(command, model, base):
    argv = [command, "--model", model, "--data", str(base / "data.csv"),
            "--out", str(base)]
    for key, value in BASE.items():
        argv += ["--" + key.replace("_", "-"), value]
    return argv


@pytest.fixture(scope="module")
def valid_run(tmp_path_factory):
    """Field CSV, sidecar, checkpoints and ensembles of a small valid run."""
    base = tmp_path_factory.mktemp("valid_run")
    cfg = data.SyntheticFieldConfig(n_sites=2, wells_per_site=3, n_steps=260,
                                    seed=7, breakthrough_delay_range=(5, 40),
                                    well_start_frac=0.1)
    (base / "field.cfg").write_text(data.config_to_text(cfg))
    assert main(["generate", "--synthetic-config", str(base / "field.cfg"),
                 "--out", str(base)]) == 0
    for model in MODELS:
        for command in ("train", "forecast"):
            assert main(base_argv(command, model, base)) == 0
    return base


def _record(records, sel):
    if sel == "config":
        return next((n for n in records if n.endswith("/config")), None)
    if isinstance(sel, str):
        return sel
    few, i = sel
    names = sorted(n for n, a in records.items() if a.size <= 12 or not few)
    return names[i % len(names)] if names else None


def _mutate(path: Path, edits) -> None:
    """Apply record edits to the file's records, then byte edits to its bytes."""
    records = checkpoint.load(path)
    blob = None
    for edit in edits:
        kind = edit[0]
        if kind in ("byte", "truncate"):
            blob = bytearray(checkpoint.pack_records(records)
                             if blob is None else blob)
            if not blob:
                continue
            pos = edit[1] % len(blob)
            if kind == "byte":
                blob[pos] = edit[2]
            else:
                del blob[pos:]
            continue
        if blob is not None:  # record edits after a byte edit: skip
            continue
        name = _record(records, edit[1])
        if name not in records:
            continue
        if kind == "drop":
            del records[name]
        elif kind == "short":
            records[name] = records[name][..., :-1]
        elif records[name].size:
            flat = records[name].reshape(-1)
            flat[edit[2] % flat.size] = edit[3]
    path.write_bytes(bytes(blob) if blob is not None
                     else checkpoint.pack_records(records))


def _argv(case, run: Path, base: Path):
    kind = case[0]
    if kind == "config":
        _, command, model, line = case
        lines = [f"model={model}", f"data={run / 'data.csv'}", f"out={run}"]
        lines += [f"{k}={v}" for k, v in BASE.items()] + [line]
        (run / "run.cfg").write_text("\n".join(lines) + "\n")
        return [command, "--config", str(run / "run.cfg")]
    if kind == "sidecar":
        _, key, value = case
        text = (base / "data.sidecar").read_text() + f"{key}={value}\n"
        (run / "field.cfg").write_text(text)
        return ["generate", "--synthetic-config", str(run / "field.cfg"),
                "--out", str(run)]
    if kind == "flag":
        _, command, model, key, value = case
        return base_argv(command, model, run) + ["--" + key.replace("_", "-"),
                                                 value]
    if kind == "path":
        _, command, model, fault, position, byte = case
        argv = base_argv(command, model, run)  # a repeated flag's last wins
        if fault == "out_under_file":
            return argv + ["--out", str(run / "data.csv" / "out")]
        bad = run / "bad.csv"
        if fault == "data_dir":
            bad.mkdir()
        elif fault == "data_not_utf8":  # the field CSV is ASCII
            blob = bytearray((run / "data.csv").read_bytes())
            blob[position % len(blob)] = byte
            bad.write_bytes(bytes(blob))
        return argv + ["--data", str(bad)]
    if kind == "checkpoint":
        _, command, model, edits = case
        _mutate(run / f"{model}_all.gck", edits)
        return base_argv(command, model, run)
    _, model, edits = case
    _mutate(run / f"{model}_all_ensemble.gck", edits)
    return base_argv("evaluate", model, run)


def run_case(case, base: Path) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        shutil.copytree(base, run)
        argv = _argv(case, run, base)
        printed = io.StringIO()
        try:
            with contextlib.redirect_stdout(printed):
                code = main(argv)
        except SystemExit as exc:  # argparse refusing a flag or value
            code = exc.code
        assert code in (0, 2, 3, 4), (argv, code)
        assert not list(Path(tmp).rglob("*.tmp")), argv
        if case[0] == "path":
            assert code in (2, 4), (argv, code)
            errors = [line for line in printed.getvalue().splitlines()
                      if line.startswith("error=")]
            assert len(errors) == 1, (argv, printed.getvalue())
        return code


SEEDS = [  # the targeted cases in test_cli.py::TestMalformedInputs
    ("sidecar", "n_sites", "abc"), ("sidecar", "seed", "1.5"),
    ("sidecar", "q_init_range", "1,x"), ("sidecar", "wells_per_site", ""),
    *[("checkpoint", "forecast", model, [(damage, name)])
      for model, param in (("timegrad", "timegrad/gru/0/u_h"),
                           ("informer", "informer/p/3"))
      for damage, name in (("drop", param), ("short", param),
                           ("short", f"{model}/config"))],
    ("checkpoint", "train", "informer", [("drop", "opt/hyper")]),
    ("checkpoint", "train", "informer", [("drop", "meta/epochs_done")]),
    ("ensemble", "informer", [("drop", "ensemble/samples")]),
    *[("path", "evaluate", "informer", fault, 5, 0xFF)
      for fault in PATH_FAULTS],
]


def _seeded(test):
    for case in SEEDS:
        test = example(case=case)(test)
    return test


@_seeded
@settings(max_examples=360, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(case=CASES)
def test_any_one_malformed_input_exits_cleanly(valid_run, case):
    run_case(case, valid_run)
