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
    short or corrupt file is a ``ValueError`` naming it."""

    def __init__(self, path, head: bytes, what: str):
        self.path, self.what = path, what
        self.data = Path(path).read_bytes()
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
        dt = np.dtype(dtype)
        return np.frombuffer(self.data, dt, count, self._take(dt.itemsize * count))

    def end(self) -> None:
        """Check that every byte was read, so a corrupt count or size field
        that makes the reader stop early is an error too."""
        if self.pos != len(self.data):
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
