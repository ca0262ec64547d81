"""Flat binary checkpoint container.

Layout (all integers little-endian):

    magic    4 bytes  b"GCK1"
    count    uint32   number of records
    record*  uint32 name length, name (utf-8),
             uint32 ndim, uint32 * ndim dims,
             uint64 payload bytes, payload (little-endian float64)

Record order is preserved and the float payload is written bit-exactly, so
save -> load -> save reproduces identical bytes.  Every artifact, checkpoint
or not, reaches disk through ``atomic_write``.
"""

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"GCK1"


def pack_records(records: dict[str, np.ndarray]) -> bytes:
    parts = [MAGIC, struct.pack("<I", len(records))]
    for name, arr in records.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        name_b = name.encode("utf-8")
        parts.append(struct.pack("<I", len(name_b)))
        parts.append(name_b)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        payload = arr.tobytes()
        parts.append(struct.pack("<Q", len(payload)))
        parts.append(payload)
    return b"".join(parts)


def unpack_records(blob: bytes) -> dict[str, np.ndarray]:
    if blob[:4] != MAGIC:
        raise FormatError("not a GCK1 checkpoint (bad magic bytes)")
    pos = 4

    def take(fmt):
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(blob):
            raise FormatError("truncated checkpoint")
        vals = struct.unpack_from(fmt, blob, pos)
        pos += size
        return vals

    (count,) = take("<I")
    records: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = take("<I")
        try:
            name = blob[pos:pos + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"record name at byte {pos} is not utf-8") from None
        if name in records:
            raise FormatError(f"duplicate record name {name!r}")
        pos += name_len
        (ndim,) = take("<I")
        dims = take(f"<{ndim}I") if ndim else ()
        (nbytes,) = take("<Q")
        if pos + nbytes > len(blob):
            raise FormatError("truncated checkpoint payload")
        if nbytes != 8 * math.prod(dims):
            raise FormatError(
                f"record {name!r}: payload of {nbytes} bytes does not hold "
                f"float64 dims {dims}")
        arr = np.frombuffer(blob[pos:pos + nbytes], dtype="<f8").reshape(dims)
        pos += nbytes
        records[name] = arr.copy()
    if pos != len(blob):
        raise FormatError("trailing bytes after final record")
    return records


def atomic_write(path, data: bytes | str) -> None:
    """Write ``data`` (a str as utf-8) to ``<name>.tmp`` beside ``path``, making
    the parent directory first, then rename it over ``path``, so a crash
    leaves either the old file or the new one, never a torn one."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save(path, records: dict[str, np.ndarray]) -> None:
    atomic_write(path, pack_records(records))


def load(path) -> dict[str, np.ndarray]:
    return unpack_records(Path(path).read_bytes())


def read(records: dict, name: str, shape: tuple | None = None) -> np.ndarray:
    """A copy of record ``name``; FormatError if it is absent or, when
    ``shape`` is given, shaped otherwise.  Every loader reads through here."""
    if name not in records:
        raise FormatError(f"checkpoint has no record {name!r}")
    arr = records[name]
    if shape is not None and arr.shape != tuple(shape):
        raise FormatError(f"record {name!r} has shape {arr.shape}, "
                          f"expected {tuple(shape)}")
    return arr.copy()


def read_int(records: dict, name: str, index: int,
             shape: tuple | None = None) -> int:
    """Entry ``index`` of record ``name`` (read as by ``read``) as an int;
    FormatError unless the entry exists and is finite and integral."""
    flat = read(records, name, shape).reshape(-1)
    if index >= flat.size:
        raise FormatError(f"record {name!r} has no entry {index}")
    value = flat[index]
    if not (np.isfinite(value) and value == np.floor(value)):
        raise FormatError(f"record {name!r} entry {index} is {value!r}, "
                          f"expected an integer")
    return int(value)


def load_params(records: dict, named: dict) -> None:
    """Set each parameter of ``{record name: tensor}`` from its record."""
    for name, p in named.items():
        p.data = read(records, name, p.shape)
