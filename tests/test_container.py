import json
import os
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prunekit import (
    TensorContainer,
    WeightLayer,
    load_container,
    save_container,
)
from prunekit.container import MAGIC, _Slot, _staged, _Writer, open_container
from prunekit.errors import (
    InvariantViolation,
    IoFailure,
    MagicMismatch,
    PruneKitError,
    ShapeMismatch,
    TruncatedPayload,
)


def make_layer_container(weights, bias=None, centered=False, name="layer0"):
    c = TensorContainer()
    c.add_layer(name, WeightLayer(np.asarray(weights, dtype=np.float64),
                                  None if bias is None else np.asarray(bias, float),
                                  centered))
    return c


def _entry(name="t", shape=(1,), offset=0):
    return {"name": name, "shape": list(shape), "dtype": "f32", "offset": offset}


def _file(manifest, payload):
    if not isinstance(manifest, bytes):
        manifest = json.dumps({"tensors": manifest}).encode()
    return MAGIC + struct.pack("<I", len(manifest)) + manifest + payload


_ONE = np.float32(1.0).tobytes()


def _layer(name, shape, has_bias=False, dtype="f32", offset=0):
    return {**_entry(name, shape, offset), "dtype": dtype, "centered": False,
            "has_bias": has_bias}


_U8 = b"\x01"


def test_single_layer_round_trip(tmp_path):
    w = np.arange(6, dtype=np.float64).reshape(2, 3)
    c = make_layer_container(w, bias=[0.5, -1.0, 2.0], centered=True)
    path = tmp_path / "m.pkt"
    save_container(c, str(path))
    loaded = load_container(str(path))
    layer = loaded.get_layer("layer0")
    assert layer.weights.shape == (2, 3)
    assert np.array_equal(layer.weights, w)
    assert np.array_equal(layer.bias, [0.5, -1.0, 2.0])
    assert layer.centered is True


def test_empty_container_round_trip(tmp_path):
    path = tmp_path / "empty.pkt"
    save_container(TensorContainer(), str(path))
    loaded = load_container(str(path))
    assert loaded.entries() == []
    assert loaded.layer_names() == []


def test_save_load_save_bytes_identical(tmp_path):
    rng = np.random.default_rng(0)
    c = make_layer_container(rng.standard_normal((4, 5)), bias=rng.standard_normal(5))
    c.add("extra", rng.standard_normal(7))
    p1, p2 = tmp_path / "a.pkt", tmp_path / "b.pkt"
    save_container(c, str(p1))
    save_container(load_container(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_two_saves_identical(tmp_path):
    c = make_layer_container(np.ones((3, 3)))
    p1, p2 = tmp_path / "a.pkt", tmp_path / "b.pkt"
    save_container(c, str(p1))
    save_container(c, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_magic_mismatch(tmp_path):
    path = tmp_path / "bad.pkt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(MagicMismatch):
        load_container(str(path))


def test_truncated_payload_names_layer(tmp_path):
    path = tmp_path / "m.pkt"
    save_container(make_layer_container(np.ones((2, 3))), str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])  # drop the last float: 5 remain for a 2x3 tensor
    with pytest.raises(TruncatedPayload, match="layer0"):
        load_container(str(path))


def test_truncated_manifest(tmp_path):
    path = tmp_path / "m.pkt"
    path.write_bytes(MAGIC + struct.pack("<I", 100) + b"{}")
    with pytest.raises(TruncatedPayload):
        load_container(str(path))


def test_nan_weight_rejected_on_add():
    w = np.ones((2, 2))
    w[0, 1] = np.nan
    with pytest.raises(InvariantViolation, match="layer0"):
        make_layer_container(w)


def test_scalar_is_stored_as_one_element():
    c = TensorContainer()
    c.add("s", 2.5)
    assert c.get("s").shape == (1,) and c.get("s")[0] == 2.5


def test_duplicate_name_rejected():
    c = TensorContainer()
    c.add("t", np.ones(3))
    with pytest.raises(InvariantViolation):
        c.add("t", np.ones(3))


def test_empty_name_and_missing_entry_are_rejected():
    c = TensorContainer()
    with pytest.raises(InvariantViolation, match="non-empty"):
        c.add("", np.ones(1))
    with pytest.raises(KeyError, match="no tensor named 'x'"):
        c.entry("x")


def test_save_to_an_unwritable_path_is_io_failure(tmp_path):
    with pytest.raises(IoFailure, match="cannot write container"):
        save_container(TensorContainer(), str(tmp_path / "no-such-dir" / "m.pkt"))


def test_save_replaces_a_symlink_rather_than_writing_through_it(tmp_path):
    target, link = tmp_path / "target.pkt", tmp_path / "link.pkt"
    target.write_bytes(b"kept")
    link.symlink_to(target)
    save_container(make_layer_container(np.ones((2, 3))), str(link))
    assert target.read_bytes() == b"kept" and not link.is_symlink()
    assert np.array_equal(load_container(str(link)).get("layer0"), np.ones((2, 3)))


_LAYOUT = [_Slot("fc", "f32", (2, 3), False), _Slot("fc.bias", "f32", (3,)),
           _Slot("fc.mask", "u8", (2, 3))]


@pytest.mark.parametrize("name, array, error", [
    ("fc.bias", np.ones(4), "no place left"),            # not its slot's shape
    ("fc.mask", np.ones((2, 3)), "no place left"),       # f32 where a u8 goes
    ("fc.calib", np.ones(3), "no place left"),           # no slot
    ("fc.bias", np.array([1.0, np.nan, 0.0]), "not finite"),
])
def test_writer_takes_each_tensor_into_its_own_slot_only(tmp_path, name, array, error):
    # ... and a failed write leaves no file, temporary or final.
    path = tmp_path / "o.pkt"
    with pytest.raises(InvariantViolation, match=error):
        with _staged((str(path), "container")) as (file,), _Writer(file, _LAYOUT) as out:
            out.add(name, array)
    assert os.listdir(tmp_path) == []


def test_writer_fails_when_a_slot_is_written_never_or_twice(tmp_path):
    path, layer = str(tmp_path / "o.pkt"), WeightLayer(np.ones((2, 3), np.float32),
                                                       np.ones(3), False)
    with pytest.raises(InvariantViolation, match=r"\['fc.mask'\] were never written"):
        with _staged((path, "container")) as (file,), _Writer(file, _LAYOUT) as out:
            out.add("fc", layer.weights)
            out.add("fc.bias", layer.bias)
    with pytest.raises(InvariantViolation, match="'fc.bias': .* no place left"):
        with _staged((path, "container")) as (file,), _Writer(file, _LAYOUT) as out:
            out.add_layer("fc", layer, np.ones((2, 3), bool))
            out.add("fc.bias", np.ones(3))
    assert os.listdir(tmp_path) == []


def test_a_closed_container_fails_as_an_io_failure(tmp_path):
    path = str(tmp_path / "c.pkt")
    save_container(make_layer_container(np.ones((2, 3))), path)
    with open_container(path) as c:
        assert c.get("layer0").tolist() == np.ones((2, 3)).tolist()
    with pytest.raises(IoFailure, match="the container was closed") as info:
        c.get("layer0")
    assert f"from {path!r}:" in str(info.value)


def test_duplicate_name_in_file_rejected(tmp_path):
    manifest = json.dumps({"tensors": [
        {"name": "t", "shape": [1], "dtype": "f32", "offset": 0},
        {"name": "t", "shape": [1], "dtype": "f32", "offset": 4},
    ]}).encode()
    path = tmp_path / "dup.pkt"
    path.write_bytes(MAGIC + struct.pack("<I", len(manifest)) + manifest + b"\x00" * 8)
    with pytest.raises(InvariantViolation, match="duplicate"):
        load_container(str(path))


def test_bad_shape_in_manifest(tmp_path):
    manifest = json.dumps({"tensors": [
        {"name": "t", "shape": [-1, 2], "dtype": "f32", "offset": 0},
    ]}).encode()
    path = tmp_path / "bad.pkt"
    path.write_bytes(MAGIC + struct.pack("<I", len(manifest)) + manifest + b"\x00" * 8)
    with pytest.raises(ShapeMismatch, match="t"):
        load_container(str(path))


@pytest.mark.parametrize("manifest", [
    [{"name": "t", "shape": [1], "dtype": "f32", "offset": 0}],
    {"tensors": [7]},
    {"tensors": [{"name": "l", "shape": [1], "dtype": "f32", "offset": 0,
                  "centered": "false", "has_bias": False}]},
    {"tensors": [{"name": "l", "shape": [1], "dtype": "f32", "offset": 0,
                  "centered": False, "has_bias": 0}]},
], ids=["list-manifest", "int-entry", "string-centered", "int-has-bias"])
def test_malformed_manifest_is_invariant_violation(tmp_path, manifest):
    blob = json.dumps(manifest).encode()
    path = tmp_path / "bad.pkt"
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + b"\x00" * 4)
    with pytest.raises(InvariantViolation):
        load_container(str(path))


def test_missing_bias_entry(tmp_path):
    path = tmp_path / "m.pkt"
    path.write_bytes(_file([_layer("l", (2, 2), has_bias=True)], _ONE * 4))
    with pytest.raises(InvariantViolation, match="'l': has_bias is True in the manifest"):
        load_container(str(path))


def test_bias_length_mismatch():
    c = TensorContainer()
    c.add("l", np.ones((2, 3)), centered=False)
    with pytest.raises(ShapeMismatch, match="'l.bias' shape"):
        c.add("l.bias", np.ones(2))
    assert [e.name for e in c.entries()] == ["l"]


def test_bias_presence_is_has_bias():
    c = TensorContainer()
    c.add("l", np.ones((2, 3)), centered=True)
    assert c.get_layer("l").bias is None
    c.add("l.bias", np.ones(3))
    assert np.array_equal(c.get_layer("l").bias, np.ones(3))


# The storage type follows the array: bool and uint8 are u8, floats are f32.
@pytest.mark.parametrize("first, second", [
    (("l", np.ones((2, 3)), False), ("l.bias", np.ones(2), None)),
    (("l.bias", np.ones(2), None), ("l", np.ones((2, 3)), False)),
    (("l.mask", np.ones((3, 2), dtype=bool), None), ("l", np.ones((2, 3)), False)),
    (("l", np.ones((2, 3)), False), ("l.mask", np.ones((2, 3)), None)),
    (("l", np.ones((2, 3)), False), ("l.bias", np.ones((2, 3)), False)),
    (("l.bias", np.ones((1, 3)), False), ("l", np.ones((1, 3)), False)),
    ((), ("l", np.ones(3), False)),
    ((), ("l", np.ones((2, 3), dtype=np.uint8), False)),
], ids=["short-bias", "short-bias-first", "transposed-mask-first", "f32-mask",
        "layer-as-bias", "layer-as-bias-first", "1-d-layer", "u8-layer"])
def test_rejected_layer_part_leaves_container_unchanged(first, second):
    c = TensorContainer()
    if first:
        name, array, centered = first
        c.add(name, array, centered=centered)
    before = [e.name for e in c.entries()]
    name, array, centered = second
    with pytest.raises(PruneKitError, match="layer 'l'"):
        c.add(name, array, centered=centered)
    assert [e.name for e in c.entries()] == before


# Each file is what the writer before the layer rule produced for a
# container whose layer "fc" (2x4) disagrees with its bias or mask.
@pytest.mark.parametrize("blob, error", [
    (_file([_layer("fc", (2, 4)), _entry("fc.bias", (4,), 32)], _ONE * 12),
     InvariantViolation),
    (_file([_layer("fc", (2, 4), has_bias=True)], _ONE * 8), InvariantViolation),
    (_file([_layer("fc", (2, 4), has_bias=True), _entry("fc.bias", (3,), 32)],
           _ONE * 11), ShapeMismatch),
    (_file([_layer("fc", (2, 4), dtype="u8")], _U8 * 8), InvariantViolation),
    (_file([_layer("fc", (2, 4), has_bias=True),
            {**_entry("fc.bias", (4,), 32), "dtype": "u8"}], _ONE * 8 + _U8 * 4),
     InvariantViolation),
    (_file([_layer("fc", (2, 4)), _entry("fc.mask", (2, 4), 32)], _ONE * 16),
     InvariantViolation),
], ids=["stray-bias", "missing-bias", "short-bias", "u8-layer", "u8-bias", "f32-mask"])
def test_layer_rule_fails_at_load(tmp_path, blob, error):
    path = tmp_path / "m.pkt"
    path.write_bytes(blob)
    with pytest.raises(error, match=f"{str(path)!r}.*'fc'"):
        load_container(str(path))


def test_mask_round_trip(tmp_path):
    c = make_layer_container(np.ones((4, 2)))
    mask = np.array([[1, 0], [0, 1], [1, 1], [0, 0]], dtype=bool)
    c.add_mask("layer0", mask)
    path = tmp_path / "m.pkt"
    save_container(c, str(path))
    loaded = load_container(str(path))
    assert loaded.entry("layer0.mask").dtype == "u8"
    assert np.array_equal(loaded.get("layer0.mask"), mask)


def test_mask_values_validated():
    c = TensorContainer()
    with pytest.raises(InvariantViolation, match="mask"):
        c.add("l.mask", np.array([0, 1, 7], dtype=np.uint8))


def test_any_u8_value_other_than_0_1_rejected():
    c = TensorContainer()
    with pytest.raises(InvariantViolation, match="'flags'"):
        c.add("flags", np.array([0, 2], dtype=np.uint8))
    assert "flags" not in c


def test_storage_type_follows_the_array():
    c = TensorContainer()
    c.add("b", np.array([True, False]))
    c.add("u", np.array([1, 0], dtype=np.uint8))
    c.add("f", np.array([1, 0], dtype=np.float32))
    c.add("d", np.array([1, 0], dtype=np.float64))
    c.add("i", np.array([1, 0], dtype=np.int64))
    names = ("b", "u", "f", "d", "i")
    assert [c.entry(name).dtype for name in names] == ["u8", "u8", "f32", "f32", "f32"]
    assert [c.get(name).dtype for name in names] == [bool, bool, np.float32, np.float64,
                                                     np.float64]


def test_add_mask_stores_the_bool_cast_of_any_mask():
    mask = np.array([[0.7, 1.0], [0.0, 1.0]])
    c = make_layer_container(np.ones((2, 2)))
    c.add_mask("layer0", mask)
    assert np.array_equal(c.get("layer0.mask"), np.asarray(mask, dtype=bool))
    assert c.get("layer0.mask").dtype == bool


def test_loaded_mask_byte_other_than_0_1_fails(tmp_path):
    c = make_layer_container(np.ones((2, 2)))
    c.add_mask("layer0", np.eye(2, dtype=bool))
    path = tmp_path / "m.pkt"
    save_container(c, str(path))
    blob = bytearray(path.read_bytes())
    blob[-1] = 7  # the mask is the last buffer
    path.write_bytes(bytes(blob))
    with pytest.raises(InvariantViolation, match="layer0.mask"):
        load_container(str(path))


def test_stored_tensors_are_read_only(tmp_path):
    w = np.ones((2, 3))
    c = make_layer_container(w, bias=[1.0, 2.0, 3.0])
    c.add_mask("layer0", np.zeros((2, 3), dtype=bool))
    # float64 input is stored without a copy; the caller's array stays writable.
    assert np.shares_memory(c.get("layer0"), w) and w.flags.writeable
    path = tmp_path / "m.pkt"
    save_container(c, str(path))
    for container in (c, load_container(str(path))):
        for entry in container.entries():
            with pytest.raises(ValueError, match="read-only"):
                entry.array[0] = 0


def test_loaded_tensors_own_their_memory(tmp_path):
    c = make_layer_container(np.ones((64, 64)), bias=np.zeros(64))
    c.add_mask("layer0", np.eye(64, dtype=bool))
    path = tmp_path / "m.pkt"
    save_container(c, str(path))
    loaded = load_container(str(path))
    for name in ("layer0.mask", "layer0", "layer0.bias"):
        array = root = loaded.get(name)
        while getattr(root, "base", None) is not None:
            root = root.base
        # Not the file's bytes, which are larger than any one tensor.
        assert memoryview(root).nbytes <= array.nbytes, name


@pytest.mark.parametrize("value", [1e39, -1e39, 2.0**128 - 2.0**103, np.nan])
def test_value_with_no_finite_float32_rejected_without_warning(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match="float32"):
            TensorContainer().add("t", np.array([0.0, value]))


def test_value_rounding_to_float32_max_round_trips(tmp_path):
    c = TensorContainer()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c.add("t", np.array([3.4028235e38, -3.4028235e38]))
    path = tmp_path / "m.pkt"
    save_container(c, str(path))
    fmax = float(np.finfo(np.float32).max)
    assert np.array_equal(load_container(str(path)).get("t"), [fmax, -fmax])


def _manifest(path):
    blob = path.read_bytes()
    (mlen,) = struct.unpack_from("<I", blob, len(MAGIC))
    return json.loads(blob[len(MAGIC) + 4 : len(MAGIC) + 4 + mlen])["tensors"]


def test_non_layer_entry_has_no_flags(tmp_path):
    c = make_layer_container(np.ones((2, 2)), bias=[1.0, 2.0])
    path = tmp_path / "m.pkt"
    save_container(c, str(path))
    by_name = {e["name"]: e for e in _manifest(path)}
    assert "centered" in by_name["layer0"] and "has_bias" in by_name["layer0"]
    assert "centered" not in by_name["layer0.bias"]


@pytest.mark.parametrize("blob, error", [
    (_file(b'{"tensors":' + b"[" * 100_000, b""), InvariantViolation),
    (_file([_entry(shape=[True, 2])], _ONE * 2), ShapeMismatch),
    (_file([_entry(offset=False)], _ONE), TruncatedPayload),
    (_file([_entry(shape=[2**62, 8])], _ONE), TruncatedPayload),
    (_file([_entry("a"), _entry("b")], _ONE * 2), InvariantViolation),
    (_file([_entry("a", offset=4), _entry("b", offset=0)], _ONE * 2), InvariantViolation),
    (_file([_entry()], _ONE * 2), InvariantViolation),
    (_file([_entry()], np.float32(np.nan).tobytes()), InvariantViolation),
    (_file([_entry()], np.float32(-np.inf).tobytes()), InvariantViolation),
    (_file([{**_entry(), "dtype": "u8"}], b"\x07"), InvariantViolation),
    (_file([_entry(shape=[0, 2**63])], b""), ShapeMismatch),
    (_file([_entry(shape=[0, 2**62, 2**62])], b""), ShapeMismatch),
    (_file([_entry(shape=[1] * 65)], _ONE), ShapeMismatch),
    (MAGIC + b"\x00\x00\x00", TruncatedPayload),
    (_file([{"shape": [1], "dtype": "f32", "offset": 0}], _ONE), InvariantViolation),
    (_file([{**_entry(), "dtype": "f64"}], _ONE * 2), InvariantViolation),
], ids=["deep-nesting", "bool-dim", "bool-offset", "huge-shape", "overlapping-offsets",
        "out-of-order-offsets", "trailing-bytes", "nan", "inf", "u8-byte-7",
        "empty-dim-past-intp", "empty-bytes-past-intp", "65-dims", "short-length-field",
        "nameless-entry", "f64-dtype"])
def test_hostile_file_is_typed_error(tmp_path, blob, error):
    path = tmp_path / "bad.pkt"
    path.write_bytes(blob)
    with pytest.raises(error):
        load_container(str(path))


def test_non_regular_file_is_io_failure():
    # Its size says nothing about its bytes, and the payload length comes from it.
    with pytest.raises(IoFailure, match="not a regular file"):
        load_container(os.devnull)


def test_zero_width_layer_round_trips(tmp_path):
    c = make_layer_container(np.zeros((3, 0)))
    c.add("after", np.ones(2))
    path = tmp_path / "m.pkt"
    save_container(c, str(path))
    loaded = load_container(str(path))
    assert loaded.get_layer("layer0").weights.shape == (3, 0)
    assert np.array_equal(loaded.get("after"), [1.0, 1.0])


@pytest.fixture(scope="module")
def valid_blob(tmp_path_factory):
    c = make_layer_container(np.arange(12.0).reshape(3, 4) / 7, bias=[1.0, -2.0, 0.5, 0.0])
    c.add_mask("layer0", np.eye(3, 4, dtype=bool))
    c.add("layer0.calib", np.linspace(-3.0, 3.0, 15).reshape(5, 3))
    path = tmp_path_factory.mktemp("valid") / "m.pkt"
    save_container(c, str(path))
    return path.read_bytes()


# (position, bytes removed there, bytes inserted there); negative positions
# count from the end, positions past either end clamp to it.
_SPLICES = st.tuples(st.integers(-600, 600), st.integers(0, 8), st.binary(max_size=8))


@settings(max_examples=300, deadline=None)
@given(splices=st.lists(_SPLICES, min_size=1, max_size=4))
@example(splices=[(10**6, 0, b"\x00")])  # one trailing payload byte
@example(splices=[(-2, 2, b"\x80\x7f")])  # the last float becomes NaN/Inf
def test_mutated_file_is_typed_error_or_exact(tmp_path_factory, valid_blob, splices):
    blob = valid_blob
    for pos, cut, insert in splices:
        pos = min(pos, len(blob)) if pos >= 0 else max(len(blob) + pos, 0)
        blob = blob[:pos] + insert + blob[pos + cut:]
    path = tmp_path_factory.mktemp("fuzz") / "m.pkt"
    path.write_bytes(blob)
    try:
        loaded = load_container(str(path))
    except PruneKitError:
        return
    # Whatever loads is exactly its buffers: finite, contiguous, no slack.
    (mlen,) = struct.unpack_from("<I", blob, len(MAGIC))
    payload = b"".join(e.array.astype({"f32": "<f4", "u8": "u1"}[e.dtype]).tobytes()
                       for e in loaded.entries())
    assert payload == blob[len(MAGIC) + 4 + mlen:]
    assert all(np.isfinite(e.array).all() for e in loaded.entries())


float32_values = st.floats(min_value=-1e6, max_value=1e6, width=32,
                           allow_nan=False, allow_infinity=False)


@st.composite
def containers(draw):
    c = TensorContainer()
    for i in range(draw(st.integers(0, 3))):
        m = draw(st.integers(1, 6))
        h = draw(st.integers(1, 6))
        flat = draw(st.lists(float32_values, min_size=m * h, max_size=m * h))
        weights = np.array(flat, dtype=np.float64).reshape(m, h)
        bias = None
        if draw(st.booleans()):
            bias = np.array(draw(st.lists(float32_values, min_size=h, max_size=h)))
        c.add_layer(f"layer{i}", WeightLayer(weights, bias, draw(st.booleans())))
        if draw(st.booleans()):
            mask = np.array(draw(st.lists(st.booleans(), min_size=m * h,
                                          max_size=m * h))).reshape(m, h)
            c.add_mask(f"layer{i}", mask)
    return c


@settings(max_examples=40, deadline=None)
@given(containers())
def test_round_trip_preserves_every_buffer(tmp_path_factory, c):
    path = tmp_path_factory.mktemp("rt") / "c.pkt"
    save_container(c, str(path))
    loaded = load_container(str(path))
    assert [e.name for e in loaded.entries()] == [e.name for e in c.entries()]
    for entry in c.entries():
        got = loaded.entry(entry.name)
        assert got.dtype == entry.dtype
        assert np.array_equal(got.array, entry.array)
        assert got.centered == entry.centered
    for record in _manifest(path):
        assert record.get("has_bias") == (f"{record['name']}.bias" in c
                                          if c.entry(record["name"]).is_layer else None)
    again = tmp_path_factory.mktemp("rt") / "c2.pkt"
    save_container(loaded, str(again))
    assert path.read_bytes() == again.read_bytes()
