"""Every file wellcast writes goes to disk through ``checkpoint.atomic_write``
(tmp-and-rename); this guard fails when a module writes a file any other way:
``write_text``, ``write_bytes`` or ``open(...)`` with a w, a or x mode."""

import ast
from pathlib import Path

import pytest

import wellcast

SRC = Path(wellcast.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


def _open_mode(call: ast.Call) -> str | None:
    """The mode of an ``open(path, ...)`` or ``path.open(...)`` call, "w" when
    it is not a literal, or None when the call is no open."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        pos = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        pos = 0
    else:
        return None
    modes = [k.value for k in call.keywords if k.arg == "mode"]
    mode = call.args[pos] if len(call.args) > pos else (
        modes[0] if modes else ast.Constant("r"))
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return "w"


def writes(source: str, allowed: str | None = None) -> list[int]:
    """Line numbers of the file writes in ``source`` outside the top-level
    function named ``allowed``."""
    tree = ast.parse(source)
    exempt = {node for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name == allowed
              for node in ast.walk(fn)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or node in exempt:
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else None
        if name in ("write_text", "write_bytes") or set("wax") & set(
                _open_mode(node) or ""):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_writes_only_through_atomic_write(path):
    allowed = "atomic_write" if path.name == "checkpoint.py" else None
    assert writes(path.read_text(encoding="utf-8"), allowed) == [], path.name


def test_atomic_write_is_the_one_writer():
    source = (SRC / "checkpoint.py").read_text(encoding="utf-8")
    assert writes(source) and not writes(source, "atomic_write")


def test_guard_sees_each_way_of_writing():
    source = "\n".join([
        'open(p).read()',
        'open(p, "r")',
        'p.open()',
        'p.read_text()',
        'open(p, "w")',
        'open(p, mode="a")',
        'open(p, "xb")',
        'open(p, mode)',
        'p.open("wb")',
        'p.write_text(s)',
        'p.write_bytes(b)',
    ])
    assert writes(source) == list(range(5, 12))
