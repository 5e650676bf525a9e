"""Flat binary checkpoints of named float64 arrays.

Layout: the magic string "EEVIT", one format-version byte, then one
entry per array in sorted name order.  Every integer (name length,
rank, extents) is an unsigned 64-bit little-endian value; array data
follows as raw 64-bit little-endian floats in row-major order.  The
round trip is bit-exact.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"EEVIT"
VERSION = 1


class CheckpointFormatError(ValueError):
    """The file is not a valid checkpoint of the expected version."""


def save_checkpoint(path: str, state: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([VERSION]))
        for name in sorted(state):
            arr = np.asarray(state[name], dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<Q", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<Q", arr.ndim))
            for extent in arr.shape:
                fh.write(struct.pack("<Q", extent))
            fh.write(arr.tobytes())


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic")
    if blob[len(MAGIC)] != VERSION:
        raise CheckpointFormatError(f"{path}: unsupported version {blob[len(MAGIC)]}")
    offset = len(MAGIC) + 1
    state: dict[str, np.ndarray] = {}
    total = len(blob)

    def read_u64() -> int:
        nonlocal offset
        if offset + 8 > total:
            raise CheckpointFormatError(f"{path}: truncated header field")
        (value,) = struct.unpack_from("<Q", blob, offset)
        offset += 8
        return value

    while offset < total:
        name_len = read_u64()
        name = blob[offset : offset + name_len].decode("utf-8")
        offset += name_len
        rank = read_u64()
        shape = tuple(read_u64() for _ in range(rank))
        count = 1
        for extent in shape:
            count *= extent
        nbytes = count * 8
        if offset + nbytes > total:
            raise CheckpointFormatError(f"{path}: truncated data for {name!r}")
        state[name] = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        offset += nbytes
    return state
