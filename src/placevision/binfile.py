"""Bounds-checked reading and atomic writing of artifact files.

A binary artifact (``.desc``, ``vocab.bin``, ``model.bin``) starts with a
header of its 4-byte tag and ``<I`` format version, followed by
little-endian fields, ``<I``-length-prefixed UTF-8 strings and raw arrays.
"""

import os
import struct
from pathlib import Path

import numpy as np


class Reader:
    """Cursor over an artifact file.  Every read checks the bytes left, so a
    short or corrupt file is a ``ValueError`` naming it.  With a ``limit``,
    only the first ``limit`` bytes are read; `end` still counts the others."""

    def __init__(self, path, head: bytes, what: str, limit: int = -1):
        self.path, self.what = path, what
        with open(path, "rb") as fh:
            self.data = fh.read(limit)
            self.unread = os.fstat(fh.fileno()).st_size - len(self.data)
        if not head.startswith(self.data[: len(head)]):
            raise ValueError(f"{path}: not a {what} file of this format version")
        self.pos = 0
        self._take(len(head))

    def _take(self, n: int) -> int:
        if len(self.data) - self.pos < n:
            raise ValueError(f"{self.path}: truncated {self.what} file")
        self.pos += n
        return self.pos - n

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self._take(struct.calcsize(fmt)))

    def text(self) -> str:
        (n,) = self.unpack("<I")
        start = self._take(n)
        try:
            return self.data[start : start + n].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{self.path}: bad text in {self.what} file") from exc

    def array(self, dtype, count: int) -> np.ndarray:
        """Read-only view of the next ``count`` items of ``dtype``."""
        try:
            dt = np.dtype(dtype)
        except ValueError:  # a record size read from the file that numpy cannot hold
            raise ValueError(f"{self.path}: bad record layout in {self.what} file") from None
        return np.frombuffer(self.data, dt, count, self._take(dt.itemsize * count))

    def indices(self, count: int, bound: int, what: str) -> np.ndarray:
        """Read-only view of the next ``count`` ``<u4`` indices; an index
        not below ``bound`` is an error naming ``what`` it indexes."""
        index = self.array("<u4", count)
        bad = np.flatnonzero(index >= bound)
        if bad.size:
            raise ValueError(f"{self.path}: {what} index {index[bad[0]]} out of range")
        return index

    def align(self) -> None:
        """Skip the zero bytes that start the next array at a multiple of 8
        bytes of the file, and so of ``data``, whose buffer CPython aligns."""
        start = self._take(-self.pos % 8)
        if any(self.data[start : self.pos]):
            raise ValueError(f"{self.path}: bad padding in {self.what} file")

    def build(self, make, *args):
        """``make(*args)``, a ValueError from it naming this file."""
        try:
            return make(*args)
        except ValueError as exc:
            raise ValueError(f"{self.path}: {exc}") from None

    def finite(self, *values) -> None:
        """Refuse the file unless every number in ``values`` is finite: the
        min or max of an array holds any NaN or infinity in it, without a mask."""
        if not all(np.isfinite([np.min(v, initial=0.0), np.max(v, initial=0.0)]).all() for v in values):
            raise ValueError(f"{self.path}: non-finite value in {self.what} file")

    def end(self, following: int = 0) -> None:
        """Check that exactly ``following`` bytes of the file are left, none
        by default: a corrupt count or size field that makes the reader stop
        early is an error too."""
        left = len(self.data) - self.pos + self.unread
        if left < following:
            raise ValueError(f"{self.path}: truncated {self.what} file")
        if left > following:
            raise ValueError(f"{self.path}: trailing bytes in {self.what} file")


def pack_text(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def write_atomic(path, chunks) -> None:
    """Write the byte chunks to a temporary sibling, then rename it over path:
    readers, and reruns after a killed process, see the old file or the new
    one.  There is no fsync, so this does not hold across a power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
