"""Bit-exact binary container for weight layers, calibration data, masks, and stats.

File layout (".pkt"):

    bytes 0..8     magic b"PRUNEKT1"
    bytes 8..12    u32 little-endian manifest byte length
    manifest       UTF-8 JSON: {"tensors": [entry, ...]}
    payload        contiguous row-major little-endian buffers

Each manifest entry carries ``name``, ``shape``, ``dtype`` and the byte
``offset`` of its buffer in the payload. Buffers are contiguous, in manifest
order: each starts where the previous one ends, and the payload ends where
the last one does. Entries that represent weight layers additionally carry
``centered`` (the layer's input distribution is zero-mean per feature, e.g.
after a mean-subtracting normalization) and ``has_bias`` (a companion
"<name>.bias" tensor follows). Buffers are "f32" except prune masks, which
are "u8" holding 0/1.

Values are checked once, when a tensor enters a container through
``TensorContainer.add``; every tensor the loader reads enters that way. An
"f32" tensor is accepted exactly when its float32 cast is finite, and a "u8"
tensor named "<layer>.mask" must hold only 0/1, so a bad value fails at
load and nothing later scans the values again. Float tensors surface in
memory as float64 (the widening is exact) and are cast back to float32 on
save; values that originated as float32 therefore round-trip bit-exactly.
Stored arrays are read-only views, so a container's own arrays cannot
change after their check; ``add`` does not copy a float64 array, whose
owner must not write to it afterwards. Any number of readers may share one
container, saving is single-writer.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvariantViolation,
    IoFailure,
    MagicMismatch,
    ShapeMismatch,
    TruncatedPayload,
)

MAGIC = b"PRUNEKT1"

_DISK_DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}
_MEMORY_DTYPES = {"f32": np.float64, "u8": np.uint8}
# Halfway between FLT_MAX and 2**128: a magnitude below it rounds to a finite
# float32, the tie itself rounds to even, which is infinity. A numpy float64,
# so a float32 min/max is compared in float64 instead of the limit being cast
# down to float32 (where it overflows).
_F32_LIMIT = np.float64(2.0**128 - 2.0**103)


@dataclass
class WeightLayer:
    """One linear layer: ``weights[j, m]`` maps input feature j to output m.

    ``weights`` has shape (M, H) with input features along rows; ``bias``
    is a length-H vector or None (compensation treats a missing bias as
    zeros). ``centered`` declares the layer's input distribution zero-mean
    per feature.
    """

    weights: np.ndarray
    bias: np.ndarray | None
    centered: bool

    @property
    def m(self) -> int:
        return self.weights.shape[0]

    @property
    def h(self) -> int:
        return self.weights.shape[1]


@dataclass
class TensorEntry:
    name: str
    array: np.ndarray
    dtype: str
    centered: bool | None = None
    has_bias: bool | None = None

    @property
    def is_layer(self) -> bool:
        return self.centered is not None


class TensorContainer:
    """Ordered collection of named tensors with per-layer metadata."""

    def __init__(self) -> None:
        self._entries: dict[str, TensorEntry] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def entries(self) -> list[TensorEntry]:
        return list(self._entries.values())

    def entry(self, name: str) -> TensorEntry:
        if name not in self._entries:
            raise KeyError(f"no tensor named {name!r}")
        return self._entries[name]

    def get(self, name: str) -> np.ndarray:
        return self.entry(name).array

    def add(
        self,
        name: str,
        array: np.ndarray,
        dtype: str = "f32",
        centered: bool | None = None,
        has_bias: bool | None = None,
    ) -> None:
        """Check ``array`` against its dtype's value rule and store it read-only."""
        if not name:
            raise InvariantViolation("tensor name must be non-empty")
        if name in self._entries:
            raise InvariantViolation(f"duplicate tensor name {name!r}")
        if dtype not in _DISK_DTYPES:
            raise InvariantViolation(f"unsupported dtype {dtype!r} for {name!r}")
        array = np.asarray(array)
        # min/max of the input itself: no temporary, no cast that could
        # overflow, and NaN fails both comparisons.
        if dtype == "f32" and array.size and not (
                -_F32_LIMIT < array.min() and array.max() < _F32_LIMIT):
            raise InvariantViolation(f"tensor {name!r}: value not finite as float32")
        arr = np.ascontiguousarray(array, dtype=_MEMORY_DTYPES[dtype]).view()
        if dtype == "u8" and name.endswith(".mask") and arr.size and arr.max() > 1:
            raise InvariantViolation(f"tensor {name!r}: mask values must be 0 or 1")
        if arr.ndim == 0:
            arr = arr.reshape(1)
        arr.flags.writeable = False
        self._entries[name] = TensorEntry(name, arr, dtype, centered, has_bias)

    # -- weight layers -------------------------------------------------

    def layer_names(self) -> list[str]:
        return [e.name for e in self._entries.values() if e.is_layer]

    def add_layer(self, name: str, layer: WeightLayer) -> None:
        if layer.weights.ndim != 2:
            raise ShapeMismatch(f"layer {name!r}: weights must be 2-D")
        self.add(name, layer.weights, centered=layer.centered,
                 has_bias=layer.bias is not None)
        if layer.bias is not None:
            if layer.bias.shape != (layer.h,):
                raise ShapeMismatch(
                    f"layer {name!r}: bias length {layer.bias.shape} != ({layer.h},)")
            self.add(f"{name}.bias", layer.bias)

    def get_layer(self, name: str) -> WeightLayer:
        entry = self.entry(name)
        if not entry.is_layer:
            raise InvariantViolation(f"{name!r} is not a weight-layer entry")
        weights = entry.array
        if weights.ndim != 2:
            raise ShapeMismatch(f"layer {name!r}: weights must be 2-D, got shape "
                                f"{weights.shape}")
        bias = None
        if entry.has_bias:
            bias_name = f"{name}.bias"
            if bias_name not in self._entries:
                raise InvariantViolation(f"layer {name!r}: has_bias set but "
                                         f"{bias_name!r} is missing")
            bias = self.get(bias_name)
            if bias.shape != (weights.shape[1],):
                raise ShapeMismatch(f"layer {name!r}: bias shape {bias.shape} "
                                    f"!= ({weights.shape[1]},)")
        return WeightLayer(weights=weights, bias=bias, centered=bool(entry.centered))

    # -- masks ----------------------------------------------------------

    def add_mask(self, layer_name: str, mask: np.ndarray) -> None:
        self.add(f"{layer_name}.mask", mask.astype(np.uint8), dtype="u8")

    def get_mask(self, layer_name: str) -> np.ndarray:
        return self.get(f"{layer_name}.mask").astype(bool)


def _entry_nbytes(entry: TensorEntry) -> int:
    return entry.array.size * _DISK_DTYPES[entry.dtype].itemsize


def save_container(container: TensorContainer, path: str) -> None:
    """Write ``container`` to ``path``; two saves of equal content are byte-identical."""
    manifest = []
    offset = 0
    for entry in container.entries():
        record = {
            "name": entry.name,
            "shape": [int(d) for d in entry.array.shape],
            "dtype": entry.dtype,
            "offset": offset,
        }
        if entry.is_layer:
            record["centered"] = bool(entry.centered)
            record["has_bias"] = bool(entry.has_bias)
        manifest.append(record)
        offset += _entry_nbytes(entry)
    manifest_bytes = json.dumps({"tensors": manifest}, sort_keys=True,
                                separators=(",", ":")).encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(manifest_bytes)))
            fh.write(manifest_bytes)
            for entry in container.entries():
                fh.write(entry.array.astype(_DISK_DTYPES[entry.dtype]).tobytes())
    except OSError as exc:
        raise IoFailure(f"cannot write container to {path!r}: {exc}") from exc


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def load_container(path: str) -> TensorContainer:
    """Read a container file, validating the manifest against the payload."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read container from {path!r}: {exc}") from exc

    if len(blob) < len(MAGIC) or blob[: len(MAGIC)] != MAGIC:
        raise MagicMismatch(f"{path!r} does not start with {MAGIC!r}")
    if len(blob) < len(MAGIC) + 4:
        raise TruncatedPayload(f"{path!r}: manifest length field missing")
    (manifest_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    header_end = len(MAGIC) + 4 + manifest_len
    if len(blob) < header_end:
        raise TruncatedPayload(f"{path!r}: manifest truncated")
    try:
        manifest = json.loads(blob[len(MAGIC) + 4 : header_end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise InvariantViolation(f"{path!r}: manifest is not valid JSON: {exc}") from exc
    records = manifest.get("tensors") if isinstance(manifest, dict) else None
    if not isinstance(records, list):
        raise InvariantViolation(f"{path!r}: manifest has no tensor list")

    payload_len = len(blob) - header_end
    container = TensorContainer()
    end = 0
    for record in records:
        if not isinstance(record, dict):
            raise InvariantViolation(f"{path!r}: manifest entry is not an object")
        name = record.get("name")
        if not isinstance(name, str) or not name:
            raise InvariantViolation(f"{path!r}: manifest entry without a name")
        shape = record.get("shape")
        if (not isinstance(shape, list) or not shape
                or any(not _is_count(d) for d in shape)):
            raise ShapeMismatch(f"{path!r}: tensor {name!r} has invalid shape {shape!r}")
        dtype = record.get("dtype")
        if dtype not in _DISK_DTYPES:
            raise InvariantViolation(f"{path!r}: tensor {name!r} has unsupported "
                                     f"dtype {dtype!r}")
        flags = {key: record.get(key) for key in ("centered", "has_bias")}
        if any(value is not None and not isinstance(value, bool)
               for value in flags.values()):
            raise InvariantViolation(f"{path!r}: tensor {name!r} has non-boolean "
                                     f"layer flags {flags!r}")
        offset = record.get("offset")
        if not _is_count(offset):
            raise TruncatedPayload(f"{path!r}: tensor {name!r} has invalid offset")
        if offset != end:
            raise InvariantViolation(f"{path!r}: tensor {name!r} starts at byte "
                                     f"{offset}, expected {end}")
        count = math.prod(shape)
        end = offset + count * _DISK_DTYPES[dtype].itemsize
        if end > payload_len:
            raise TruncatedPayload(
                f"{path!r}: tensor {name!r} needs bytes [{offset}, {end}) "
                f"but payload holds {payload_len}")
        buf = np.frombuffer(blob, dtype=_DISK_DTYPES[dtype], count=count,
                            offset=header_end + offset)
        try:
            container.add(name, buf.reshape(shape), dtype=dtype, **flags)
        except InvariantViolation as exc:
            raise InvariantViolation(f"{path!r}: {exc}") from exc
    if end != payload_len:
        raise InvariantViolation(f"{path!r}: {payload_len - end} trailing payload "
                                 f"bytes after the last tensor")
    return container
