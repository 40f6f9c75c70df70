"""The benchmark's own reader and writer for the documented ``.pkt`` layout.

Inputs are written and outputs are checked without prunekit's container code,
so a defect there cannot hide in the check. Layout: magic ``PRUNEKT1``, a
little-endian u32 manifest length, a UTF-8 JSON manifest ``{"tensors": [...]}``
whose entries carry ``name``, ``shape``, ``dtype`` and payload ``offset``, then
the row-major little-endian buffers.
"""

from __future__ import annotations

import json
import struct

import numpy as np

MAGIC = b"PRUNEKT1"
DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}


def write(path: str, tensors: list[tuple[str, np.ndarray, str, dict]]) -> None:
    """Write ``(name, array, dtype tag, extra manifest fields)`` tensors in order."""
    manifest, offset = [], 0
    for name, array, tag, extra in tensors:
        manifest.append({"name": name, "shape": list(array.shape), "dtype": tag,
                         "offset": offset, **extra})
        offset += array.size * DTYPES[tag].itemsize
    head = json.dumps({"tensors": manifest}, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        for _, array, tag, _ in tensors:
            np.ascontiguousarray(array, dtype=DTYPES[tag]).tofile(fh)


def read(path: str) -> dict[str, tuple[dict, np.ndarray]]:
    """Map each tensor name to its manifest entry and a read-only memory map."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValueError(f"{path}: bad magic")
        (length,) = struct.unpack("<I", fh.read(4))
        manifest = json.loads(fh.read(length))
    base = len(MAGIC) + 4 + length
    tensors = {}
    for entry in manifest["tensors"]:
        array = np.memmap(path, dtype=DTYPES[entry["dtype"]], mode="r",
                          offset=base + entry["offset"], shape=tuple(entry["shape"]))
        tensors[entry["name"]] = (entry, array)
    return tensors
