"""Little-endian binary primitives shared by the model file formats, and the
atomic write every saved file goes through."""

from __future__ import annotations

import os
import stat
import struct
from contextlib import contextmanager
from typing import IO, BinaryIO, Iterator

import numpy as np

from .errors import InputError

U32_MAX = 2**32 - 1  # the largest count or size a u32 field of a file holds


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


def write_u32(fh: BinaryIO, value: int) -> None:
    fh.write(struct.pack("<I", value))


def read_u32(fh: BinaryIO) -> int:
    return struct.unpack("<I", read_exact(fh, 4))[0]


def write_u64(fh: BinaryIO, value: int) -> None:
    fh.write(struct.pack("<Q", value))


def read_u64(fh: BinaryIO) -> int:
    return struct.unpack("<Q", read_exact(fh, 8))[0]


def write_str(fh: BinaryIO, text: str) -> None:
    raw = text.encode("utf-8")
    write_u32(fh, len(raw))
    fh.write(raw)


def read_str(fh: BinaryIO) -> str:
    n = read_u32(fh)
    try:
        return read_exact(fh, n).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"string of {n} bytes is not UTF-8: {exc.reason}") from None


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


def expect_magic(fh: BinaryIO, magic: bytes) -> None:
    got = fh.read(len(magic))
    if got != magic:
        raise InputError(f"bad magic: expected {magic!r}, got {got!r}")
