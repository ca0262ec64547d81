"""Every file wellcast writes goes to disk through ``checkpoint.atomic_write``
(tmp-and-rename); this guard fails when a module changes the file system any
other way: a call of a path method in ``METHODS`` on any receiver, of an
``os`` or ``shutil`` function in ``WRITERS`` however it was imported, of
``open``, ``io.open``, ``os.fdopen`` or ``.open`` with a w, a, x, + or
non-literal mode, of ``os.open`` with flags that are not an ``|`` of the
read-only ones in ``READ_ONLY`` (so a pipe's ``os.write`` passes, but not a
file opened for it), or of ``.replace`` with one positional argument and no
keyword: that is ``Path.replace``, as ``str.replace`` takes two (so spell a
one-argument ``datetime.replace`` with a keyword).  It cannot see a writer
looked up by a string, bound by ``from os import *`` or called through a
value.  The last tests check that ``atomic_write`` stays atomic with two
writer processes on one path, and when a writer is killed mid-write."""

import ast
import os
import signal
from pathlib import Path

import pytest

import wellcast
from srcnames import dotted, imported
from wellcast import checkpoint

SRC = Path(wellcast.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))
METHODS = {"write_text", "write_bytes", "rename", "unlink", "rmdir", "mkdir",
           "touch", "symlink_to", "hardlink_to", "makedirs", "removedirs"}
WRITERS = {"pathlib.Path.replace"} | {f"{module}.{name}" for module, names in {
    "os": "replace rename renames remove unlink rmdir mkdir makedirs "
          "removedirs link symlink truncate",
    "shutil": "copy copy2 copyfile copytree move rmtree"}.items()
    for name in names.split()}
READ_ONLY = {f"os.{flag}" for flag in "O_RDONLY O_CLOEXEC O_NOFOLLOW "
             "O_DIRECTORY O_NONBLOCK O_NOCTTY O_NOATIME O_BINARY".split()}


def _open_mode(call: ast.Call, name: str | None) -> str:
    """The mode of an ``open(path, ...)``, ``io.open(path, ...)``,
    ``os.fdopen(fd, ...)`` or ``path.open(...)`` call, "w" when it is not a
    literal, or "" when the call is no open; ``name`` is what the call's
    function resolves to."""
    pos = 1 if name in ("open", "io.open", "os.fdopen") else 0
    if not pos and (name == "os.open"
                    or getattr(call.func, "attr", None) != "open"):
        return ""
    modes = [k.value for k in call.keywords if k.arg == "mode"]
    mode = (call.args[pos:pos + 1] + modes + [ast.Constant("r")])[0]
    literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
    return mode.value if literal else "w"


def _writable_flags(call: ast.Call, names: dict[str, str]) -> bool:
    """Whether the flags of an ``os.open(path, flags, ...)`` call are
    anything but an ``|`` of ``READ_ONLY`` flags."""
    flags = [k.value for k in call.keywords if k.arg == "flags"]

    def read_only(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return read_only(node.left) and read_only(node.right)
        return dotted(names, node) in READ_ONLY

    return not read_only((call.args[1:2] + flags + [ast.Constant(None)])[0])


def writes(source: str, allowed: str | None = None) -> list[int]:
    """Line numbers of the file-system changes in ``source`` outside the
    top-level function named ``allowed``."""
    tree = ast.parse(source)
    names = imported("", tree)
    exempt = {node for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name == allowed
              for node in ast.walk(fn)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or node in exempt:
            continue
        name = dotted(names, node.func)
        attr = getattr(node.func, "attr", None)
        if (name in WRITERS or attr in METHODS
                or set("wax+") & set(_open_mode(node, name))
                or name == "os.open" and _writable_flags(node, names)
                or attr == "replace" and len(node.args) == 1
                and not node.keywords):  # Path.replace
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
    unseen = [
        'open(p).read()', 'open(p, "r")', 'open(fd, "rb")', 'io.open(p)',
        'p.open()', 'p.read_text()', 's.replace(a, b)', 'xs.remove(x)',
        'from dataclasses import replace; replace(cfg, x=1)',
        'os.open(p, os.O_RDONLY)', 'os.open(p, flags=os.O_RDONLY)',
        'os.open(p, os.O_RDONLY | os.O_CLOEXEC)',
        'from os import O_RDONLY, open as o; o(p, O_RDONLY)',
        'os.fdopen(fd)', 'os.fdopen(fd, "rb")',
        'r, w = os.pipe(); os.write(w, b); open(r, "rb")',
    ]
    seen = [
        'open(p, "w")', 'open(p, mode="a")', 'open(p, "xb")', 'open(p, mode)',
        'open(p, "r+")', 'open(p, "rb+")', 'io.open(p, "w")', 'p.open("wb")',
        'p.open("r+")', 'p.write_text(s)', 'p.write_bytes(b)',
        'os.replace(p, q)', 'p.replace(q)', 'Path(p).replace(q)',
        'from pathlib import Path; Path.replace(p, q)',
        'from os import replace; replace(p, q)', 'os.rename(p, q)',
        'p.rename(q)', 'os.remove(p)', 'import os as o; o.remove(p)',
        'p.unlink()', 'os.unlink(p)', 'p.rmdir()', 'os.rmdir(p)',
        'p.mkdir(parents=True)', 'os.mkdir(p)', 'p.touch()',
        'p.symlink_to(q)', 'os.makedirs(p)', 'os.symlink(p, q)',
        'os.truncate(p, 0)', 'shutil.copy(p, q)', 'shutil.move(p, q)',
        'shutil.rmtree(p)', 'from shutil import rmtree; rmtree(p)',
        'import shutil as sh; sh.rmtree(p)',
        'os.fdopen(fd, "w")', 'os.fdopen(fd, mode="ab")',
        'from os import fdopen; fdopen(fd, "w")', 'open(fd, "wb")',
        'os.open("f", os.O_WRONLY | os.O_CREAT)', 'os.open(p, os.O_RDWR)',
        'os.open(p, flags)', 'os.open(p, os.O_RDONLY | os.O_TRUNC)',
        'import os as o; o.open(p, o.O_APPEND)',
    ]
    assert [line for line in unseen if writes(line)] == []
    assert [line for line in seen if not writes(line)] == []


def test_guard_fails_on_src_plus_one_call():
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert writes(source) == []
    # in cli.py, Path is pathlib.Path and replace is dataclasses.replace
    source += "\nreplace(cfg, model=m)\nPath.replace(Path(cfg.out), p)\n"
    assert writes(source) == [source.count("\n")]


def _fork(act) -> int:
    """Fork a child that runs ``act()`` and exits 0, or 1 if it raised;
    return its pid."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            act()
            code = 0
        finally:
            os._exit(code)
    return pid


def test_two_writers_on_one_path_never_publish_a_torn_file(tmp_path):
    # 20 MB apiece, so that the writes overlap: at 2 MB no read was torn
    # even when both writers staged at one name
    path = tmp_path / "model.gck"
    payloads = [bytes([i]) * (20 << 20) for i in (1, 2)]
    checkpoint.atomic_write(path, payloads[0])

    def write(payload):
        for _ in range(20):
            checkpoint.atomic_write(path, payload)

    pids = [_fork(lambda p=p: write(p)) for p in payloads]
    reads = torn = 0
    codes = {}
    while len(codes) < len(pids):
        torn += path.read_bytes() not in payloads
        reads += 1
        for pid in set(pids) - set(codes):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                codes[pid] = os.waitstatus_to_exitcode(status)
    assert reads > 1 and torn == 0
    assert list(codes.values()) == [0, 0]  # neither writer raised
    assert list(tmp_path.iterdir()) == [path]


def test_a_writer_killed_mid_write_leaves_a_whole_file(tmp_path,
                                                       monkeypatch):
    # this process stages its payload and, before renaming it, lets a
    # second writer stage half of its own and stop, then kills it
    path = tmp_path / "model.gck"
    mine, theirs = b"m" * (1 << 20), b"t" * (1 << 20)
    go_r, go_w = os.pipe()
    half_r, half_w = os.pipe()

    def write_half(self, data):
        with open(self, "wb") as fh:
            fh.write(data[:len(data) // 2])
        os.write(half_w, b"h")
        os.read(go_r, 1)  # never sent: the writer is killed here

    def theirs_write():
        os.read(go_r, 1)
        monkeypatch.setattr(Path, "write_bytes", write_half)
        checkpoint.atomic_write(path, theirs)

    pid = _fork(theirs_write)
    os.close(go_r)  # so that a child that dies early ends the wait below
    os.close(half_w)
    real_replace = os.replace

    def replace(src, dst):
        os.write(go_w, b"g")
        os.read(half_r, 1)
        return real_replace(src, dst)

    try:
        monkeypatch.setattr(os, "replace", replace)
        checkpoint.atomic_write(path, mine)
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        os.close(go_w)
        os.close(half_r)
    assert path.read_bytes() == mine
    assert sorted(tmp_path.iterdir()) == [
        path, tmp_path / f"model.gck.{pid}.tmp"]


@pytest.mark.parametrize("name", ["a" * 250, "b" * 255, "\u20ac" * 83 + ".gck"],
                         ids=["ascii-250", "ascii-255", "multibyte-253"])
def test_any_name_that_fits_name_max_is_written(tmp_path, monkeypatch, name):
    # the staged copy of the name loses whole characters from its end until
    # it fits in 255 bytes too, and no more of them
    staged, real = [], Path.write_bytes

    def write_bytes(self, data):
        staged.append(self.name)
        return real(self, data)

    monkeypatch.setattr(Path, "write_bytes", write_bytes)
    checkpoint.atomic_write(tmp_path / name, "payload")
    assert (tmp_path / name).read_text() == "payload"
    assert list(tmp_path.iterdir()) == [tmp_path / name]
    [tmp] = staged
    stem = tmp.removesuffix(f".{os.getpid()}.tmp")
    assert name.startswith(stem) and len(tmp.encode()) <= 255
    assert len(tmp.encode()) > 255 - len("\u20ac".encode())
