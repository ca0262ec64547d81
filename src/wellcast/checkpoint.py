"""Flat binary checkpoint container.

Layout (all integers little-endian):

    magic    4 bytes  b"GCK1"
    count    uint32   number of records
    record*  uint32 name length, name (utf-8),
             uint32 ndim, uint32 * ndim dims,
             uint64 payload bytes, payload (little-endian float64)

Record order is preserved and the float payload is written bit-exactly, so
save -> load -> save reproduces identical bytes.  ``load`` checks every
record header of a file, but may read only the payloads whose names start
with a prefix (``forecast`` reads only ``<kind>/``, not the optimizer
moments); the size bounds still count every value the file stores.  Every
loader takes records through ``read``, which returns the record itself,
and only ``load_params`` copies, from a plain dict.  Every artifact,
checkpoint or not, reaches disk through ``atomic_write``.
"""

import math
import os
import struct
import sys
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"GCK1"
NAME_MAX = 255  # bytes in one file name, on Linux's file systems


def pack_records(records: dict[str, np.ndarray]) -> bytes:
    """The GCK1 bytes of ``records``, in their order.  Each payload is a byte
    view of the record's contiguous little-endian float64 values, so the one
    ``b"".join`` is the only copy of it.  The result is ``bytes``, not a
    ``bytearray``, which pickles through another copy on its way back from
    a train worker."""
    parts = [MAGIC, struct.pack("<I", len(records))]
    for name, arr in records.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        name_b = name.encode("utf-8")
        parts.append(struct.pack("<I", len(name_b)))
        parts.append(name_b)
        parts.append(struct.pack(f"<I{arr.ndim}IQ", arr.ndim, *arr.shape,
                                 arr.nbytes))
        parts.append(memoryview(arr.reshape(-1)).cast("B"))
    return b"".join(parts)


class Records(dict):
    """A loaded file's records by name, in file order, and ``stored_values``:
    the float64 values the file declares, skipped records included."""

    stored_values = 0


def _read_records(fh, size: int, prefix: str = "") -> Records:
    """The records in the ``size`` bytes that ``fh`` reads whose names start
    with ``prefix``.  Every record's header is checked (its lengths against
    ``size``, its name against every earlier name, its byte count against
    its dims) before its payload is read or allocated.  A matching payload
    is read straight into an array that the record owns, and every other
    payload is seeked past."""
    if fh.read(4) != MAGIC:
        raise FormatError("not a GCK1 checkpoint (bad magic bytes)")
    pos = 4

    def take(fmt):
        nonlocal pos
        n = struct.calcsize(fmt)
        if pos + n > size:
            raise FormatError("truncated checkpoint")
        raw = fh.read(n)
        if len(raw) != n:  # cut short after fstat
            raise FormatError("truncated checkpoint")
        pos += n
        return struct.unpack(fmt, raw)

    (count,) = take("<I")
    records = Records()
    names = set()
    for _ in range(count):
        (name_len,) = take("<I")
        try:
            name = fh.read(min(name_len, size - pos)).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"record name at byte {pos} is not utf-8") from None
        if name in names:
            raise FormatError(f"duplicate record name {name!r}")
        names.add(name)
        pos += name_len
        (ndim,) = take("<I")
        dims = take(f"<{ndim}I") if ndim else ()
        (nbytes,) = take("<Q")
        if pos + nbytes > size:
            raise FormatError("truncated checkpoint payload")
        values = math.prod(dims)
        # numpy's limits (numpy 1 allows 32 dims), checked for every record
        # so that a prefix load refuses what a full load refuses
        if ndim > 32 or math.prod(d for d in dims if d) > sys.maxsize // 8:
            raise FormatError(f"record {name!r}: dims {dims} exceed numpy's "
                              f"array limits")
        if nbytes != 8 * values:
            raise FormatError(
                f"record {name!r}: payload of {nbytes} bytes does not hold "
                f"float64 dims {dims}")
        records.stored_values += values
        if name.startswith(prefix):
            records[name] = np.empty(dims, "<f8")
            if fh.readinto(records[name]) != nbytes:  # cut short after fstat
                raise FormatError("truncated checkpoint payload")
        else:
            fh.seek(nbytes, os.SEEK_CUR)
        pos += nbytes
    if pos != size:
        raise FormatError("trailing bytes after final record")
    if fh.seek(0, os.SEEK_END) < size:  # a skipped payload cut short
        raise FormatError("truncated checkpoint payload")
    return records


def atomic_write(path, data: bytes | str) -> None:
    """Write ``data`` (a str as utf-8) to ``<name>.<pid>.tmp`` beside
    ``path``, making the parent directory first, then rename it over
    ``path``, so a crash leaves the old file or the new one, never a torn
    one, also with two runs writing into one directory: each write stages
    under its own name, as a process writes one file at a time and forked
    workers (``workers.run``) write nothing.  ``<name>`` loses characters
    from its end until the staged name's bytes (utf-8 on Linux) fit in
    ``NAME_MAX``, so any name that fits there can be written.  A failed
    write or rename leaves no ``.tmp`` behind; a killed writer leaves its
    own, and no later run removes it, since it cannot tell that the writer
    is dead."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    path = Path(path)
    stem, suffix = path.name, f".{os.getpid()}.tmp"
    while len(os.fsencode(stem + suffix)) > NAME_MAX:
        stem = stem[:-1]  # a character at a time, so none is cut in two
    tmp = path.with_name(stem + suffix)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save(path, records: dict[str, np.ndarray]) -> None:
    atomic_write(path, pack_records(records))


def load(path, prefix: str = "") -> Records:
    """The records of the checkpoint at ``path`` whose names start with
    ``prefix`` (all of them by default); every record is still checked."""
    with open(path, "rb") as fh:
        return _read_records(fh, os.fstat(fh.fileno()).st_size, prefix)


def read(records: dict, name: str, shape: tuple | None = None) -> np.ndarray:
    """Record ``name`` itself, not a copy; FormatError if it is absent or,
    when ``shape`` is not None, shaped otherwise."""
    if name not in records:
        raise FormatError(f"checkpoint has no record {name!r}")
    arr = records[name]
    if shape is not None and arr.shape != tuple(shape):
        raise FormatError(f"record {name!r} has shape {arr.shape}, "
                          f"expected {tuple(shape)}")
    return arr


def _stored_values(records: dict) -> int:
    """The float64 values a loaded file declares, or a plain dict holds."""
    if isinstance(records, Records):
        return records.stored_values
    return sum(arr.size for arr in records.values())


def read_int(records: dict, name: str, index: int,
             shape: tuple | None = None, size: bool = False) -> int:
    """Entry ``index`` of record ``name`` (read as by ``read``) as an int;
    FormatError unless the entry exists and is finite and integral.  A
    ``size`` shapes an allocation, so it must also lie between 1 and the
    number of float64 values the records hold (for a loaded file, every
    value it stores, loaded or not)."""
    flat = read(records, name, shape).reshape(-1)
    if index >= flat.size:
        raise FormatError(f"record {name!r} has no entry {index}")
    value = flat[index]
    if not (np.isfinite(value) and value == np.floor(value)):
        raise FormatError(f"record {name!r} entry {index} is {float(value)}, "
                          f"expected an integer")
    if size and not 1 <= value <= _stored_values(records):
        raise FormatError(f"record {name!r} entry {index} is {float(value)}, "
                          f"expected a size from 1 to {_stored_values(records)}")
    return int(value)


class Undrawn:
    """Init stream for a model whose parameters are then set from
    ``records``: each ``uniform`` draw is a read-only view of one zero, so
    the model allocates nothing that ``load_params`` replaces, and
    FormatError once the draws ask for more values than the records hold
    (as ``read_int`` counts them), which a model that the records can fill
    never does."""

    def __init__(self, records: dict):
        self.budget = _stored_values(records)

    def uniform(self, low, high, size) -> np.ndarray:
        self.budget -= math.prod(size)
        if self.budget < 0:
            raise FormatError("checkpoint config asks for more parameter "
                              "values than the checkpoint holds")
        return np.broadcast_to(0.0, size)


def load_params(records: dict, named: dict) -> None:
    """Set each parameter of ``{record name: tensor}`` from its record.
    Nothing else holds the arrays of a ``Records`` that ``load`` returned,
    so the parameters adopt them; a plain dict's (a live model's
    ``state_records()``) are copied, so two models never share an array."""
    for name, p in named.items():
        arr = read(records, name, p.shape)
        p.data = arr if isinstance(records, Records) else arr.copy()
