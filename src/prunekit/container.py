"""Bit-exact binary container for weight layers, calibration data and masks.

README's "Container format" is the file layout, the layer and value rules
and when each is checked. A tensor's header is one ``_Slot`` record, which
is all the layer rule reads, whether the tensor is held (``TensorEntry``),
in an open file (``_FileEntry``) or not yet written. ``add`` does not copy
a bool, float32 or float64 array, whose owner must not write to it
afterwards. Any number of readers may share one container, open or in
memory. Every file is written by ``_Writer``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
import struct
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from typing import BinaryIO

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
from .stats import _is_buildable, _is_count

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
    is a length-H vector or None, which ``output`` and compensation treat as
    zeros. ``centered`` declares the layer's input distribution zero-mean
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

    def output(self, rows: np.ndarray) -> np.ndarray:
        """``rows @ weights`` in a new array, plus the bias when there is one."""
        out = rows @ self.weights
        if self.bias is not None:
            out += self.bias
        return out


def _check_values(name: str, array: np.ndarray) -> None:
    """The value rule: a bool or uint8 array holds only 0 and 1, any other
    array only values finite as float32; else ``InvariantViolation``."""
    boolean = array.dtype in (bool, np.uint8)
    if boolean and array.size and array.max() > 1:
        raise InvariantViolation(f"tensor {name!r}: u8 values must be 0 or 1")
    # min/max of the input itself: no temporary, no cast that could
    # overflow, and NaN fails both comparisons.
    if not boolean and array.size and not (
            -_F32_LIMIT < array.min() and array.max() < _F32_LIMIT):
        raise InvariantViolation(f"tensor {name!r}: value not finite as float32")


def _stored(name: str, array: np.ndarray) -> np.ndarray:
    """``array`` checked by the value rule, read-only, as it is held: a bool
    or uint8 array as bool ("u8"), any other as float32 if it is float32,
    else float64 (both "f32")."""
    array = np.asarray(array)
    _check_values(name, array)
    dtype = (bool if array.dtype in (bool, np.uint8)
             else np.float32 if array.dtype == np.float32 else np.float64)
    arr = np.ascontiguousarray(array, dtype=dtype).view()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class _Slot:
    """A tensor's header: what its manifest record and the layer rule need.
    A bare slot is a tensor's place in a file being written, before its
    array exists; ``TensorEntry`` and ``_FileEntry`` add where its values are."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    centered: bool | None = None

    @property
    def is_layer(self) -> bool:
        return self.centered is not None


@dataclass(frozen=True, eq=False, kw_only=True)
class TensorEntry(_Slot):
    """A tensor held in memory."""

    array: np.ndarray

    @classmethod
    def of(cls, name: str, array: np.ndarray, centered: bool | None = None) -> TensorEntry:
        """The entry of a held array (``_stored``), its dtype and shape taken from it."""
        return cls(name, "u8" if array.dtype == bool else "f32", array.shape, centered,
                   array=array)

    def rows(self, a: int, b: int) -> np.ndarray:
        """Rows [a, b) along the first axis: a view of the held array."""
        return self.array[a:b]


@dataclass(frozen=True, eq=False, kw_only=True)
class _FileEntry(_Slot):
    """A tensor of an open container file, whose manifest record passed
    every check. ``rows`` reads a range of it anew at each call, with a
    positional read into an array of its own, so concurrent readers share no
    file offset; the container keeps no array. Before each read it checks
    that the file still has the size and modification time it had when it
    was opened, so a file changed between two reads of one tensor fails."""

    fh: BinaryIO
    start: int  # the file position of its first byte
    path: str
    opened: tuple[int, int]  # the file's (st_size, st_mtime_ns) when it was opened

    @property
    def array(self) -> np.ndarray:
        return self.rows(0, self.shape[0])

    def rows(self, a: int, b: int) -> np.ndarray:
        """Rows [a, b) along the first axis, checked by the value rule."""
        dtype = _DISK_DTYPES[self.dtype]
        array = np.empty((b - a, *self.shape[1:]), dtype=dtype)
        buf = array.reshape(-1).view(np.uint8)
        start = self.start + a * math.prod(self.shape[1:]) * dtype.itemsize
        done = 0
        try:
            info = os.fstat(self.fh.fileno())
            if (info.st_size, info.st_mtime_ns) != self.opened:
                raise IoFailure(f"cannot read container from {self.path!r}: the file "
                                f"changed since it was opened")
            while done < buf.size:  # one preadv can return less than asked
                got = os.preadv(self.fh.fileno(), [buf[done:]], start + done)
                if not got:
                    raise TruncatedPayload(
                        f"{self.path!r}: tensor {self.name!r}: file ends inside bytes "
                        f"[{start}, {start + buf.size}) of the file")
                done += got
        except OSError as exc:
            raise IoFailure(f"cannot read container from {self.path!r}: {exc}") from exc
        try:
            _check_values(self.name, array)
        except PruneKitError as exc:
            raise type(exc)(f"{self.path!r}: {exc}") from exc
        if self.dtype == "u8":
            array = array.view(bool)
        array.flags.writeable = False
        return array


class TensorContainer:
    """Ordered collection of named tensors with per-layer metadata.

    Each tensor is held in memory, or read from its file at each ``get``
    (``open_container``); every read method serves both alike.
    """

    def __init__(self) -> None:
        self._entries: dict[str, TensorEntry | _FileEntry] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def entries(self) -> list[TensorEntry | _FileEntry]:
        return list(self._entries.values())

    def entry(self, name: str) -> TensorEntry | _FileEntry:
        if name not in self._entries:
            raise KeyError(f"no tensor named {name!r}")
        return self._entries[name]

    def get(self, name: str) -> np.ndarray:
        return self.entry(name).array

    def add(self, name: str, array: np.ndarray, centered: bool | None = None) -> None:
        """Check ``array`` against the value and layer rules, then store it
        (``_stored``)."""
        self._insert(TensorEntry.of(name, _stored(name, array), centered))

    def _insert(self, new: TensorEntry | _FileEntry) -> None:
        """Store ``new`` if its name is new and non-empty and it keeps the
        layer rule (README's "Container format"), as a layer and as a part
        of one, against the tensors already present."""
        if not new.name:
            raise InvariantViolation("tensor name must be non-empty")
        if new.name in self._entries:
            raise InvariantViolation(f"duplicate tensor name {new.name!r}")
        if new.is_layer and (new.dtype != "f32" or len(new.shape) != 2):
            raise InvariantViolation(f"layer {new.name!r}: weights must be 2-D f32, got "
                                     f"{new.dtype} of shape {new.shape}")
        owner = self.layer_of(new.name)
        pairs = [(self._entries[owner], new)] if owner is not None else []
        if new.is_layer:
            parts = (self._entries.get(f"{new.name}.{s}") for s in _PARTS)
            pairs += [(new, part) for part in parts if part]
        for layer, part in pairs:
            dtype, shape = (("f32", layer.shape[1:]) if part.name.endswith(".bias")
                            else ("u8", layer.shape))
            if part.is_layer or part.dtype != dtype:
                raise InvariantViolation(f"layer {layer.name!r}: {part.name!r} must be "
                                         f"a {dtype} tensor, not a {part.dtype} "
                                         f"{'layer' if part.is_layer else 'tensor'}")
            if part.shape != shape:
                raise ShapeMismatch(f"layer {layer.name!r}: {part.name!r} shape "
                                    f"{part.shape} != {shape}")
        self._entries[new.name] = new

    # -- weight layers and their parts -----------------------------------

    def layer_names(self) -> list[str]:
        return [e.name for e in self._entries.values() if e.is_layer]

    def layer_of(self, name: str) -> str | None:
        """The layer whose "<layer>.bias" or "<layer>.mask" ``name`` is, else None."""
        stem, _, suffix = name.rpartition(".")
        owner = self._entries.get(stem)
        return stem if suffix in _PARTS and owner is not None and owner.is_layer else None

    def add_layer(self, name: str, layer: WeightLayer) -> None:
        self.add(name, layer.weights, centered=layer.centered)
        if layer.bias is not None:
            self.add(f"{name}.bias", layer.bias)

    def get_layer(self, name: str) -> WeightLayer:
        entry, bias = self.entry(name), self._entries.get(f"{name}.bias")
        return WeightLayer(entry.array, bias.array if bias else None, bool(entry.centered))

    def add_mask(self, layer_name: str, mask: np.ndarray) -> None:
        self.add(f"{layer_name}.mask", np.asarray(mask, dtype=bool))


def _disk_bytes(array: np.ndarray) -> memoryview:
    """The bytes of a held array (``_stored``) as the file stores them."""
    disk = array.view(np.uint8) if array.dtype == bool else array.astype("<f4", copy=False)
    return memoryview(disk.reshape(-1).view(np.uint8))


class _TempFile:
    """A new file beside ``path``, made with mode 0o666 less the umask, that
    ``commit`` moves over ``path`` and ``discard`` deletes. An ``OSError``
    is raised as ``IoFailure`` naming ``path`` and what is written (``kind``)."""

    def __init__(self, path: str, kind: str = "container") -> None:
        self.path, self._kind = path, kind
        tmp = f"{path}.{os.urandom(4).hex()}.tmp"
        self._fd = self._io(os.open, tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        self._tmp: str | None = tmp

    def __fspath__(self) -> str:
        """The temporary file, until ``commit`` or ``discard``."""
        return self._tmp

    def write(self, data: bytes | memoryview, at: int = 0) -> None:
        done = 0
        while done < len(data):  # one pwrite can write less than asked
            done += self._io(os.pwrite, self._fd, data[done:], at + done)

    def close(self) -> None:
        fd, self._fd = self._fd, -1
        if fd >= 0:
            self._io(os.close, fd)

    def commit(self) -> None:
        self.close()
        self._io(os.replace, self._tmp, self.path)
        self._tmp = None

    def discard(self) -> None:
        with contextlib.suppress(IoFailure):
            self.close()
        if self._tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(self._tmp)
            self._tmp = None

    def _io(self, call, *args):
        try:
            return call(*args)
        except OSError as exc:
            raise IoFailure(f"cannot write {self._kind} to {self.path!r}: {exc}") from exc


@contextlib.contextmanager
def _staged(*targets: tuple[str | _TempFile | None, str]) -> Iterator[list[_TempFile | None]]:
    """All or none of a command's outputs (README's "CLI"). Each target is a
    (path, kind) pair; a ``_TempFile`` is made for each path before the
    block runs. After the block every one is closed, and only then is each
    moved over its path; on any failure every one is deleted. A target that
    is None, or already a ``_TempFile``, is passed through and left to its
    maker."""
    made, files = [], []
    try:
        for out, kind in targets:
            if isinstance(out, str):
                out = _TempFile(out, kind)
                made.append(out)
            files.append(out)
        yield files
        for file in made:
            file.close()
        for file in made:
            file.commit()
    except BaseException:
        for file in made:
            file.discard()
        raise


class _Writer:
    """The one writer of container files, and the owner of their manifest
    records.

    It is given the file's tensors in order as ``_Slot`` records, which
    must keep the layer rule and fix every offset, so the header is written
    at open. ``add`` checks a tensor by the value rule and against its
    slot, from any thread, and writes it at its offset. ``out`` is taken as
    ``_staged`` takes it; with ``out`` None each tensor takes its slot's
    place in the layout, which is then ``container``.
    """

    def __init__(self, out: str | _TempFile | None, slots: list[_Slot]) -> None:
        self._out, self.container = out, None
        self._layout = TensorContainer()
        for slot in slots:
            self._layout._insert(slot)
        records, offset = [], 0
        for slot in self._layout.entries():
            record = {"name": slot.name, "shape": [int(d) for d in slot.shape],
                      "dtype": slot.dtype, "offset": offset}
            if slot.is_layer:
                record["centered"] = bool(slot.centered)
                record["has_bias"] = f"{slot.name}.bias" in self._layout
            records.append(record)
            offset += math.prod(slot.shape) * _DISK_DTYPES[slot.dtype].itemsize
        manifest = json.dumps({"tensors": records}, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
        self._header = MAGIC + struct.pack("<I", len(manifest)) + manifest
        self._at = {r["name"]: len(self._header) + r["offset"] for r in records}
        self._written: set[str] = set()
        self._lock = threading.Lock()

    def __enter__(self) -> _Writer:
        with contextlib.ExitStack() as stack:
            (self._file,) = stack.enter_context(_staged((self._out, "container")))
            if self._file is not None:
                self._file.write(memoryview(self._header))
            self._stage = stack.pop_all()
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if kind is not None:
            self._stage.__exit__(kind, exc, tb)
            return
        with self._stage:
            missing = [name for name in self._layout._entries if name not in self._written]
            if missing:
                raise InvariantViolation(f"tensors {missing} were never written")
            if self._file is None:
                self.container = self._layout

    def add(self, name: str, array: np.ndarray, centered: bool | None = None) -> None:
        self._put(TensorEntry.of(name, _stored(name, array), centered))

    def _put(self, entry: TensorEntry | _FileEntry) -> None:
        """Write a tensor whose array has passed the value rule, or with
        ``out`` None put it in its slot's place."""
        name = entry.name
        with self._lock:
            slot = self._layout._entries.get(name)
            if slot is None or name in self._written or (
                    (slot.dtype, slot.shape, slot.centered)
                    != (entry.dtype, entry.shape, entry.centered)):
                raise InvariantViolation(f"tensor {name!r}: a {entry.dtype} tensor of shape "
                                         f"{entry.shape} has no place left in the file")
            self._written.add(name)
            if self._file is None:
                self._layout._entries[name] = entry
                return
        self._file.write(_disk_bytes(entry.array), self._at[name])

    def add_layer(self, name: str, layer: WeightLayer, mask: np.ndarray) -> None:
        """Add the layer's weights, bias if it has one, and mask."""
        self.add(name, layer.weights, centered=layer.centered)
        if layer.bias is not None:
            self.add(f"{name}.bias", layer.bias)
        self.add(f"{name}.mask", np.asarray(mask, dtype=bool))


def save_container(container: TensorContainer, path: str | _TempFile) -> None:
    """Write ``container`` to ``path`` (``_Writer``); two saves of equal
    content are byte-identical."""
    with _Writer(path, container.entries()) as out:
        for entry in container.entries():
            out._put(entry)


def load_container(path: str) -> TensorContainer:
    """Read a container file whole: ``open_container``, then every tensor
    read into memory, so a load holds the payload once."""
    with open_container(path) as container:
        for e in container.entries():
            container._entries[e.name] = TensorEntry.of(e.name, e.array, e.centered)
    return container


@contextlib.contextmanager
def open_container(path: str) -> Iterator[TensorContainer]:
    """Open a container file and check its manifest; yield a container whose
    tensors are read from the file at each access, until the block ends.

    ``path`` must be a regular file: its size, not its contents, tells how
    long the payload is before any tensor is read. A tensor's values are
    checked when it is read.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise IoFailure(f"cannot read container from {path!r}: {exc}") from exc
    with fh:
        try:
            container = _read_manifest(fh, path)
        except OSError as exc:
            raise IoFailure(f"cannot read container from {path!r}: {exc}") from exc
        yield container


def _read_manifest(fh: BinaryIO, path: str) -> TensorContainer:
    """The container in ``fh``, open at its start, with every tensor left in
    the file.

    Every manifest check of a tensor, the layer rule included, runs here, so
    no tensor read allocates more than the file holds.
    """
    info = os.fstat(fh.fileno())
    if not stat.S_ISREG(info.st_mode):
        raise IoFailure(f"cannot read container from {path!r}: not a regular file")
    head = fh.read(len(MAGIC) + 4)
    if head[: len(MAGIC)] != MAGIC:
        raise MagicMismatch(f"{path!r} does not start with {MAGIC!r}")
    if len(head) < len(MAGIC) + 4:
        raise TruncatedPayload(f"{path!r}: manifest length field missing")
    (manifest_len,) = struct.unpack_from("<I", head, len(MAGIC))
    header_end = len(head) + manifest_len
    # Nothing is read past the file's size, so a hostile length allocates nothing.
    manifest_bytes = fh.read(manifest_len) if header_end <= info.st_size else b""
    if len(manifest_bytes) < manifest_len:
        raise TruncatedPayload(f"{path!r}: manifest truncated")
    try:
        manifest = json.loads(manifest_bytes.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise InvariantViolation(f"{path!r}: manifest is not valid JSON: {exc}") from exc
    records = manifest.get("tensors") if isinstance(manifest, dict) else None
    if not isinstance(records, list):
        raise InvariantViolation(f"{path!r}: manifest has no tensor list")

    payload_len = info.st_size - header_end
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
        itemsize = _DISK_DTYPES[dtype].itemsize
        end = offset + math.prod(shape) * itemsize
        if end > payload_len:
            raise TruncatedPayload(
                f"{path!r}: tensor {name!r} needs bytes [{offset}, {end}) "
                f"but payload holds {payload_len}")
        # A shape can fit the payload and still be one numpy cannot build.
        if not _is_buildable(shape, itemsize):
            raise ShapeMismatch(f"{path!r}: tensor {name!r} has shape {shape!r}, "
                                f"which numpy cannot build")
        try:
            container._insert(_FileEntry(name, dtype, tuple(shape), flags["centered"], fh=fh,
                                         start=header_end + offset, path=path,
                                         opened=(info.st_size, info.st_mtime_ns)))
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
