"""Bit-exact binary container for weight layers, calibration data and masks.

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
after a mean-subtracting normalization) and ``has_bias``. Buffers are "f32"
except boolean tensors such as prune masks, which are "u8" holding 0/1.

The layer rule: a weight layer "<name>" is 2-D f32, (M, H); its parts
"<name>.bias" (f32, length H) and "<name>.mask" (u8, (M, H)) are not layers.
A layer has a bias exactly when "<name>.bias" is present; ``has_bias`` is
written from that, and a file whose flag disagrees fails to load.

Values and the layer rule are checked once, when a tensor (a layer or a
part, in either order) enters a container through ``TensorContainer.add``;
every tensor the loader reads enters that way. ``add`` takes the storage
type from the array: a bool or uint8 array is "u8" and must hold only 0/1,
every other array is "f32" and is accepted exactly when its float32 cast is
finite, so a bad value fails at load and nothing later scans the values
again. "u8" tensors surface in memory as bool arrays and float tensors as
float64 (the widening is exact); both are cast back on save, so values
that originated as float32 round-trip bit-exactly. Every loaded tensor is
cast into its own array, so nothing keeps the file's bytes alive after
``load_container`` returns. Stored arrays are read-only views, so a
container's own arrays cannot change after their check; ``add`` does not
copy a bool or float64 array, whose owner must not write to it afterwards.
Any number of readers may share one container, saving is single-writer.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    IoFailure,
    MagicMismatch,
    NonFiniteInput,
    PruneKitError,
    ShapeMismatch,
    TruncatedPayload,
)

MAGIC = b"PRUNEKT1"

_DISK_DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}
# Halfway between FLT_MAX and 2**128: a magnitude below it rounds to a finite
# float32, the tie itself rounds to even, which is infinity. A numpy float64,
# so a float32 min/max is compared in float64 instead of the limit being cast
# down to float32 (where it overflows).
_F32_LIMIT = np.float64(2.0**128 - 2.0**103)
_PARTS = ("bias", "mask")  # the suffixes of the tensors a weight layer owns


@dataclass(frozen=True)
class WeightLayer:
    """One linear layer: ``weights[j, m]`` maps input feature j to output m.

    ``weights`` has shape (M, H) with input features along rows; ``bias``
    is a length-H vector or None (compensation treats a missing bias as
    zeros). ``centered`` declares the layer's input distribution zero-mean
    per feature.

    Construction holds the in-memory half of the layer rule: 2-D weights
    and a bias that is None or a finite length-H vector, else
    ``DimensionMismatch`` or ``NonFiniteInput``. It is O(H); the weights'
    values are checked by whoever computes on them. The layer is frozen, so
    no field can be swapped past that check.
    """

    weights: np.ndarray
    bias: np.ndarray | None
    centered: bool

    def __post_init__(self) -> None:
        if np.ndim(self.weights) != 2:
            raise DimensionMismatch(f"layer weights must be 2-D, got "
                                    f"{np.ndim(self.weights)}-D")
        if self.bias is None:
            return
        if np.shape(self.bias) != (self.h,):
            raise DimensionMismatch(f"layer bias shape {np.shape(self.bias)} != "
                                    f"({self.h},)")
        if not np.isfinite(self.bias).all():
            raise NonFiniteInput("layer bias contains NaN/Inf")

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
    centered: bool | None = None

    @property
    def dtype(self) -> str:
        return "u8" if self.array.dtype == bool else "f32"

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

    def add(self, name: str, array: np.ndarray, centered: bool | None = None) -> None:
        """Check ``array`` against the value and layer rules, then store it
        read-only: a bool or uint8 array as "u8", any other as "f32"."""
        if not name:
            raise InvariantViolation("tensor name must be non-empty")
        if name in self._entries:
            raise InvariantViolation(f"duplicate tensor name {name!r}")
        array = np.asarray(array)
        boolean = array.dtype in (bool, np.uint8)
        if boolean and array.size and array.max() > 1:
            raise InvariantViolation(f"tensor {name!r}: u8 values must be 0 or 1")
        # min/max of the input itself: no temporary, no cast that could
        # overflow, and NaN fails both comparisons.
        if not boolean and array.size and not (
                -_F32_LIMIT < array.min() and array.max() < _F32_LIMIT):
            raise InvariantViolation(f"tensor {name!r}: value not finite as float32")
        arr = np.ascontiguousarray(array, dtype=bool if boolean else np.float64).view()
        arr.flags.writeable = False
        entry = TensorEntry(name, arr, centered)
        self._check_layer_rule(entry)
        self._entries[name] = entry

    def _check_layer_rule(self, new: TensorEntry) -> None:
        """The layer rule (module docstring) for ``new``, as a layer and as a
        part of one, against the tensors already present."""
        if new.is_layer and (new.dtype != "f32" or new.array.ndim != 2):
            raise InvariantViolation(f"layer {new.name!r}: weights must be 2-D f32, got "
                                     f"{new.dtype} of shape {new.array.shape}")
        stem, _, suffix = new.name.rpartition(".")
        owner = self._entries.get(stem) if suffix in _PARTS else None
        pairs = [(owner, new)] if owner and owner.is_layer else []
        if new.is_layer:
            parts = (self._entries.get(f"{new.name}.{s}") for s in _PARTS)
            pairs += [(new, part) for part in parts if part]
        for layer, part in pairs:
            dtype, shape = (("f32", layer.array.shape[1:]) if part.name.endswith(".bias")
                            else ("u8", layer.array.shape))
            if part.is_layer or part.dtype != dtype:
                raise InvariantViolation(f"layer {layer.name!r}: {part.name!r} must be "
                                         f"a {dtype} tensor, not a {part.dtype} "
                                         f"{'layer' if part.is_layer else 'tensor'}")
            if part.array.shape != shape:
                raise ShapeMismatch(f"layer {layer.name!r}: {part.name!r} shape "
                                    f"{part.array.shape} != {shape}")

    # -- weight layers -------------------------------------------------

    def layer_names(self) -> list[str]:
        return [e.name for e in self._entries.values() if e.is_layer]

    def add_layer(self, name: str, layer: WeightLayer) -> None:
        self.add(name, layer.weights, centered=layer.centered)
        if layer.bias is not None:
            self.add(f"{name}.bias", layer.bias)

    def get_layer(self, name: str) -> WeightLayer:
        entry, bias = self.entry(name), self._entries.get(f"{name}.bias")
        return WeightLayer(entry.array, bias.array if bias else None, bool(entry.centered))

    # -- masks ----------------------------------------------------------

    def add_mask(self, layer_name: str, mask: np.ndarray) -> None:
        self.add(f"{layer_name}.mask", np.asarray(mask, dtype=bool))

    def get_mask(self, layer_name: str) -> np.ndarray:
        return self.get(f"{layer_name}.mask")


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
            record["has_bias"] = f"{entry.name}.bias" in container
        manifest.append(record)
        offset += entry.array.size * _DISK_DTYPES[entry.dtype].itemsize
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
                            offset=header_end + offset).reshape(shape)
        # add casts the buffer into its own bool or float64 array, so no
        # loaded tensor keeps the whole file alive.
        try:
            container.add(name, buf, centered=flags["centered"])
        except PruneKitError as exc:
            raise type(exc)(f"{path!r}: {exc}") from exc
    if end != payload_len:
        raise InvariantViolation(f"{path!r}: {payload_len - end} trailing payload "
                                 f"bytes after the last tensor")
    for record in records:
        name, has_bias = record["name"], record.get("has_bias")
        derived = f"{name}.bias" in container if container.entry(name).is_layer else None
        if has_bias != derived:
            raise InvariantViolation(f"{path!r}: tensor {name!r}: has_bias is {has_bias} "
                                     f"in the manifest but {derived} from its tensors")
    return container
