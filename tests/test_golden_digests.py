"""Same bits, checked: two small ``pipeline`` runs must write every artifact
with the sha256 recorded in ``golden_digests.json``.

The runs happen in a child process under ``OPENBLAS_CORETYPE=Haswell`` and
``OPENBLAS_NUM_THREADS=1``.  The first pins the OpenBLAS kernel, as byte
identity holds for one numpy build and one kernel, not across them;
``Haswell`` runs on any AVX2 x86-64.  The second makes the worker count the
core count, so on two or more cores ``train`` and the forecast fork.  The
first run is the 29-artifact pipeline of the byte-identity checks in
CHANGES.md (one group, 6 paths: it never forks); the second trains two
groups and draws 32 paths, two blocks of 16.

The test skips, naming the reason, where the table does not apply: a numpy
version other than the table's, or a kernel other than ``Haswell`` (numpy's
OpenBLAS built without DYNAMIC_ARCH, a CPU without AVX2, or a CPU that is
not x86, where the kernel query reports ``unknown`` or another name).

A change that moves bits on purpose rewrites the table and says so in
CHANGES.md:

    OPENBLAS_CORETYPE=Haswell OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \\
        python tests/test_golden_digests.py --write
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import wellcast
from wellcast.cli import main

TABLE = Path(__file__).with_name("golden_digests.json")
ENV = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}
FIELD = "n_sites=2\nn_steps=600\n"  # the other generator fields at defaults
FLAGS = ["--horizon", "5", "--epochs", "2", "--windows-per-epoch", "3",
         "--seed", "11", "--lr", "1e-3", "--context-length", "20",
         "--enc-length", "20", "--token-length", "6"]
RUNS = {  # run directory -> flags after FLAGS
    "single": ["--samples", "6"],
    "forked": ["--samples", "32", "--grouping", "oil_water_per_site"],
}


def openblas_core() -> str:
    """The kernel that numpy's bundled OpenBLAS runs, or ``unknown``."""
    libs = Path(np.__file__).parents[1] / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            query = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        query.argtypes, query.restype = [], ctypes.c_char_p
        return query().decode()
    return "unknown"


def facts() -> dict:
    return {"numpy": np.__version__, "openblas_core": openblas_core()}


def digests(root: Path) -> dict:
    """Run each pipeline under ``root``; every artifact's sha256 by path."""
    (root / "field.cfg").write_text(FIELD)
    for name, flags in RUNS.items():
        argv = ["pipeline", "--synthetic-config", str(root / "field.cfg"),
                "--out", str(root / name), *FLAGS, *flags]
        if main(argv) != 0:
            raise SystemExit(f"pipeline {name} failed")
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for name in RUNS for p in sorted((root / name).rglob("*"))
            if p.is_file()}


def _child(write: bool) -> dict:
    """Facts, and the digests when the table's facts hold here (or when
    the table is being written)."""
    found = facts()
    table = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    result = {"facts": found, "digests": None}
    if write or found == table.get("facts"):
        with tempfile.TemporaryDirectory() as tmp:
            result["digests"] = digests(Path(tmp))
    if write:
        TABLE.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return result


def test_pipeline_artifacts_have_the_recorded_bytes():
    table = json.loads(TABLE.read_text())
    src = str(Path(wellcast.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__],
        env=dict(os.environ, PYTHONPATH=path, **ENV), capture_output=True,
        text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    if got["digests"] is None:
        pytest.skip(f"the table holds numpy {table['facts']['numpy']} on the "
                    f"{table['facts']['openblas_core']} kernel; this is numpy "
                    f"{got['facts']['numpy']} on the "
                    f"{got['facts']['openblas_core']} kernel")
    differ = sorted(name for name in table["digests"].keys() | got["digests"]
                    if table["digests"].get(name) != got["digests"].get(name))
    assert differ == []


if __name__ == "__main__":
    import contextlib
    with contextlib.redirect_stdout(sys.stderr):  # the pipelines' logs
        result = _child("--write" in sys.argv[1:])
    print(json.dumps(result))
