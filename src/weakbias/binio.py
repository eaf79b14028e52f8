"""The layout shared by the two binary files, and the atomic write every
saved file goes through.

A binary file is its 4-byte magic, a u32 version, the u32 byte length of a
JSON object (the header), the header, then float32 little-endian matrices
whose shapes the header gives."""

from __future__ import annotations

import json
import os
import stat
import struct
from contextlib import contextmanager
from typing import IO, BinaryIO, Iterator

import numpy as np

from .errors import InputError

U32_MAX = 2**32 - 1  # the largest layer width a model file or checkpoint is written with


@contextmanager
def atomic_write(path: str, binary: bool = False) -> Iterator[IO]:
    """A new file beside `path`, opened for writing (UTF-8 text unless
    binary), that is synced to disk and replaces `path` only once the block
    ends without an error, and is removed if it raises: no write leaves a
    half-written file. It keeps the mode of the file it replaces. A target
    that is not a regular file (a symlink, FIFO or device) is written in
    place, so the link or device stays what it was."""
    def opened(name: str) -> IO:
        return open(name, "wb") if binary else open(name, "w", encoding="utf-8")

    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with opened(path) as fh:
            yield fh
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = opened(tmp)
    try:
        with fh:
            if mode is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


# fh.read(n) allocates all n bytes before it reads any, so a corrupt count
# could ask for gigabytes. A read of up to this many bytes is harmless to try;
# a longer one, which a file makes only for its few matrices, is first checked
# against the bytes a regular file has left (a FIFO has no size to check).
_UNCHECKED_READ = 1 << 16


def read_exact(fh: BinaryIO, n: int) -> bytes:
    if n > _UNCHECKED_READ:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode) and n > info.st_size - fh.tell():
            raise InputError(
                f"truncated file: wanted {n} bytes, {info.st_size - fh.tell()} left"
            )
    data = fh.read(n)
    if len(data) != n:
        raise InputError(f"truncated file: wanted {n} bytes, got {len(data)}")
    return data


def write_header(fh: BinaryIO, magic: bytes, version: int, header: dict) -> None:
    """The magic, version, length and header, as ASCII JSON: a string that is
    not UTF-8 (a lone surrogate) is written as its escape and reads back."""
    raw = json.dumps(header).encode("ascii")
    fh.write(magic + struct.pack("<II", version, len(raw)) + raw)


def read_header(fh: BinaryIO, magic: bytes, version: int, what: str) -> dict:
    """The header of a file of `what` ("model", "checkpoint") at `version`;
    any other magic or version, and a header that is not a UTF-8 JSON
    object, raise InputError."""
    got = fh.read(len(magic))
    if got != magic:
        raise InputError(f"bad magic: expected {magic!r}, got {got!r}")
    found, length = struct.unpack("<II", read_exact(fh, 8))
    if found != version:
        raise InputError(f"unsupported {what} version {found}")
    raw = read_exact(fh, length)
    try:
        header = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} header is not UTF-8: {exc.reason}") from None
    except ValueError as exc:  # a JSONDecodeError, or an int over int()'s digit limit
        raise InputError(f"{what} header is not valid JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{what} header JSON is nested too deeply") from None
    if not isinstance(header, dict):
        raise InputError(f"{what} header is not a JSON object")
    return header


def header_field(header: dict, key: str, kind: type, item: type | None = None):
    """header[key] if its type is exactly `kind` (a bool is not an int), and
    with `item`, a list of values of type exactly `item`; else InputError
    naming the key."""
    value = header.get(key)
    if type(value) is not kind or (item is not None and any(type(v) is not item for v in value)):
        expected = kind.__name__ if item is None else f"{kind.__name__} of {item.__name__}"
        raise InputError(f"header field {key!r} must be of type {expected}")
    return value


def finite_in_float32(array: np.ndarray) -> bool:
    """Whether every value of the array is finite once written as float32;
    the loaders refuse a file holding any other."""
    with np.errstate(over="ignore"):
        return bool(np.isfinite(np.asarray(array, dtype="<f4")).all())


def write_matrix(fh: BinaryIO, matrix: np.ndarray) -> None:
    """Write a 2-D array as float32 little-endian, row-major."""
    fh.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def read_matrix(fh: BinaryIO, rows: int, cols: int) -> np.ndarray:
    raw = read_exact(fh, 4 * rows * cols)
    return np.frombuffer(raw, dtype="<f4").reshape(rows, cols).copy()


def write_vector(fh: BinaryIO, vector: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(vector, dtype="<f4").tobytes())


def read_vector(fh: BinaryIO, n: int) -> np.ndarray:
    raw = read_exact(fh, 4 * n)
    return np.frombuffer(raw, dtype="<f4").copy()
