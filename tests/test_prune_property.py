"""End to end over the fragile regimes: ``prunekit prune`` on small saved
pairs exits 0 or 1 and never raises, and a success is finite and valid."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from prunekit import (
    CRITERION_TAGS,
    SparsitySpec,
    TensorContainer,
    WeightLayer,
    load_container,
    mask_violation,
    save_container,
)
from prunekit import cli

FLT_MAX = float(np.finfo(np.float32).max)
VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, -2.5, FLT_MAX, -FLT_MAX,
                     float(np.nextafter(np.float32(FLT_MAX), np.float32(0)))]),
    st.floats(-1e3, 1e3, width=32))


def f32_arrays(shape):
    """float32 arrays of ``shape``: drawn values, or one value everywhere."""
    return st.one_of(hnp.arrays(np.float32, shape, elements=VALUES),
                     VALUES.map(lambda v: np.full(shape, v, dtype=np.float32)))


@st.composite
def prune_cases(draw):
    """A one-layer model, its calibration rows and prune's setting flags."""
    m, h, n = draw(st.integers(0, 8)), draw(st.integers(0, 8)), draw(st.integers(0, 10))
    layer = WeightLayer(draw(f32_arrays((m, h))), draw(st.none() | f32_arrays((h,))),
                        centered=draw(st.booleans()))
    flags = {
        "criterion": draw(st.sampled_from(CRITERION_TAGS)),
        "sparsity": draw(st.sampled_from(["0", "0.5", "1", "1:2", "2:4"])),
        "holdout": draw(st.sampled_from(["0", "0.2", "0.5"])),
        "bias-update": draw(st.sampled_from(["on", "off", "auto"])),
        "damping": draw(st.none() | st.sampled_from(["auto", "0", "1e-3", "1e30"])),
    }
    return layer, draw(f32_arrays((n, m))), flags


@settings(derandomize=True, deadline=None, max_examples=200)
@given(prune_cases())
def test_prune_exits_0_or_1_and_a_success_is_finite_and_valid(case):
    layer, rows, flags = case
    model, calib = TensorContainer(), TensorContainer()
    model.add_layer("fc", layer)
    calib.add("fc.calib", rows)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp, name)) for name in ("model", "calib", "out", "report")}
        save_container(model, paths["model"])
        save_container(calib, paths["calib"])
        argv = ["prune", *(f"--{name}={value}" for name, value in
                           [*paths.items(), *flags.items()] if value is not None)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        assert code in (0, 1)
        if code == 1:
            return
        report = json.loads(Path(paths["report"]).read_text())
        summary = json.loads(stdout.getvalue().splitlines()[-1])
        numbers = [value for record in [summary, *report["layers"]]
                   for value in record.values()
                   if isinstance(value, (int, float)) and not isinstance(value, bool)]
        assert all(math.isfinite(value) for value in numbers), (summary, report)
        pruned = load_container(paths["out"])
        spec = SparsitySpec.parse(flags["sparsity"])
        for name in pruned.layer_names():
            assert mask_violation(pruned.get(f"{name}.mask"), spec) is None
