import argparse
import errno
import itertools
import json
import os
import struct
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from prunekit import (
    Criterion,
    SparsitySpec,
    TensorContainer,
    WeightLayer,
    load_container,
    mask_violation,
    prune_container,
    save_container,
)
from prunekit import cli, oracle, pruner
from prunekit.cli import build_parser
from prunekit.criteria import CRITERION_TAGS
from prunekit.container import MAGIC, _staged, open_container
from prunekit.errors import InvariantViolation
from test_container import test_hostile_file_is_typed_error as _load_rejects

_HOSTILE = next(mark for mark in _load_rejects.pytestmark if mark.name == "parametrize")


def run_cli(*args, cwd=None, env=None):
    return subprocess.run([sys.executable, "-m", "prunekit", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def last_json_line(stdout):
    lines = [line for line in stdout.strip().splitlines() if line]
    return json.loads(lines[-1])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    proc = run_cli("gen", "--seed", "3", "--dims", "8,16,4",
                   "--norm", "layernorm-like", "--samples", "128",
                   "--out", str(root / "model.pkt"),
                   "--calib-out", str(root / "calib.pkt"))
    assert proc.returncode == 0, proc.stderr
    return root


def test_gen_summary_line(workspace):
    proc = run_cli("gen", "--seed", "3", "--dims", "4,8,2", "--samples", "64",
                   "--out", str(workspace / "m2.pkt"),
                   "--calib-out", str(workspace / "c2.pkt"))
    assert proc.returncode == 0
    summary = last_json_line(proc.stdout)
    assert summary["command"] == "gen"
    assert summary["layers"] == ["fc1", "fc2"]


@pytest.fixture(scope="module")
def deep(tmp_path_factory):
    """A five-layer model, biases on every other layer and the last without
    one, and its calibration rows: 600 per layer, so the 480 statistics rows
    span two of the statistics' row blocks."""
    root = tmp_path_factory.mktemp("deep")
    rng = np.random.default_rng(11)
    widths = (16, 32, 24, 40, 48, 8)
    model, calib = TensorContainer(), TensorContainer()
    for i, (m, h) in enumerate(zip(widths, widths[1:])):
        bias = rng.standard_normal(h).astype(np.float32) if i % 2 else None
        model.add_layer(f"fc{i}", WeightLayer(rng.standard_normal((m, h)).astype(np.float32),
                                              bias, centered=i % 3 == 0))
        calib.add(f"fc{i}.calib", (rng.standard_normal((600, m)) + 2 * (i % 2))
                  .astype(np.float32))
    save_container(model, str(root / "model.pkt"))
    save_container(calib, str(root / "calib.pkt"))
    return root


def _prune_argv(model, calib, out, *extra, criterion="stade-w"):
    return ["prune", "--model", str(model), "--calib", str(calib), "--criterion", criterion,
            "--sparsity", "0.5", "--out", str(out), *extra]


def test_prune_artifacts_do_not_depend_on_threads(deep):
    # Five layers, so at two and three threads a worker reads its layer
    # while another layer is being pruned; sparsegpt-score widens its
    # statistics rows as it reads them.
    for criterion in ("stade-w", "sparsegpt-score"):
        outs = []
        for threads in ("1", "2", "3"):
            pruned, report = (deep / f"{criterion}-{threads}.{ext}" for ext in ("pkt", "json"))
            proc = run_cli(*_prune_argv(deep / "model.pkt", deep / "calib.pkt", pruned,
                                        "--threads", threads, "--report", str(report),
                                        criterion=criterion))
            assert proc.returncode == 0, proc.stderr
            outs.append((pruned.read_bytes(), report.read_bytes()))
        assert outs[0] == outs[1] == outs[2], criterion


@pytest.mark.parametrize("holdout", ["0.2", "0"])
@pytest.mark.parametrize("criterion", CRITERION_TAGS)
def test_prune_of_files_writes_what_prune_container_writes_in_memory(deep, tmp_path, capsys,
                                                                     criterion, holdout):
    # prune reads an open file's rows in ranges, and a Gram criterion widens
    # its statistics rows block by block; in memory the rows are whole.
    files = {name: tmp_path / f"files.{name}" for name in ("pkt", "json")}
    assert cli.main(_prune_argv(deep / "model.pkt", deep / "calib.pkt", files["pkt"],
                                "--holdout", holdout, "--report", str(files["json"]),
                                criterion=criterion)) == 0
    pruned, report = prune_container(load_container(str(deep / "model.pkt")),
                                     load_container(str(deep / "calib.pkt")),
                                     Criterion(criterion), SparsitySpec(ratio=0.5),
                                     holdout_fraction=float(holdout))
    memory = {name: tmp_path / f"memory.{name}" for name in ("pkt", "json")}
    save_container(pruned, str(memory["pkt"]))
    with _staged((str(memory["json"]), "report")) as (file,):
        cli._write_report(file, asdict(report))
    for name in ("pkt", "json"):
        assert files[name].read_bytes() == memory[name].read_bytes(), name


def test_stade_w_with_the_bias_frozen_prunes_uncentered_layers_as_stade_star(tmp_path,
                                                                            capsys):
    # With --norm none neither layer's input is centered, and stade is
    # optimal only with the bias refit.
    model, calib = tmp_path / "model.pkt", tmp_path / "calib.pkt"
    assert cli.main(["gen", "--seed", "1", "--dims", "16,32,8", "--samples", "512",
                     "--out", str(model), "--calib-out", str(calib)]) == 0
    masks, reports = {}, {}
    for criterion in ("stade-w", "stade-star", "stade"):
        out, report = tmp_path / f"{criterion}.pkt", tmp_path / f"{criterion}.json"
        assert cli.main(_prune_argv(model, calib, out, "--bias-update", "off",
                                    "--report", str(report), criterion=criterion)) == 0
        pruned = load_container(str(out))
        masks[criterion] = [pruned.get(f"{name}.mask") for name in ("fc1", "fc2")]
        reports[criterion] = json.loads(report.read_text())["layers"]
    assert [r["criterion"] for r in reports["stade-w"]] == ["stade-star"] * 2
    for w, star, stade in zip(masks["stade-w"], masks["stade-star"], masks["stade"]):
        assert np.array_equal(w, star) and not np.array_equal(w, stade)
    assert reports["stade-w"] == reports["stade-star"]


def test_a_bias_less_layer_that_takes_the_update_gains_a_bias_of_zeros(tmp_path, capsys):
    # Magnitude prunes feature 0's small weights, and feature 0's rows are
    # +1, -1, ..., so every pruned feature's mean is exactly 0: the update
    # moves nothing, and the layer still leaves with a bias.
    model, calib = TensorContainer(), TensorContainer()
    model.add_layer("fc", WeightLayer(np.array([[0.5, 0.25, 1.0], [4.0, 8.0, 2.0]],
                                               np.float32), None, centered=False))
    rows = np.ones((100, 2), np.float32)
    rows[1::2, 0] = -1.0
    rows[:, 1] += np.random.default_rng(13).standard_normal(100).astype(np.float32)
    calib.add("fc.calib", rows)
    paths = {name: str(tmp_path / f"{name}.pkt") for name in ("model", "calib", "out")}
    save_container(model, paths["model"])
    save_container(calib, paths["calib"])
    report = tmp_path / "report.json"
    assert cli.main(_prune_argv(paths["model"], paths["calib"], paths["out"],
                                "--bias-update", "on", "--report", str(report),
                                criterion="magnitude")) == 0
    blob = (tmp_path / "out.pkt").read_bytes()
    (length,) = struct.unpack_from("<I", blob, len(MAGIC))
    manifest = json.loads(blob[len(MAGIC) + 4: len(MAGIC) + 4 + length])
    assert [r.get("has_bias") for r in manifest["tensors"]] == [True, None, None]
    assert load_container(paths["out"]).get("fc.bias").tolist() == [0.0, 0.0, 0.0]
    layer = json.loads(report.read_text())["layers"][0]
    assert layer["bias_added"] and layer["bias_delta_norm"] == 0.0
    pruned, _ = prune_container(model, calib, Criterion("magnitude"),
                                SparsitySpec(ratio=0.5), bias_update_enabled=True)
    save_container(pruned, str(tmp_path / "memory.pkt"))
    assert blob == (tmp_path / "memory.pkt").read_bytes()


@pytest.mark.parametrize("target", ["model", "calib"])
def test_prune_may_write_over_either_input(deep, tmp_path, capsys, target):
    # Every read ends before the save opens its output.
    assert cli.main(_prune_argv(deep / "model.pkt", deep / "calib.pkt",
                                tmp_path / "elsewhere.pkt")) == 0
    inputs = {name: tmp_path / f"{name}.pkt" for name in ("model", "calib")}
    for name, path in inputs.items():
        path.write_bytes((deep / f"{name}.pkt").read_bytes())
    assert cli.main(_prune_argv(inputs["model"], inputs["calib"], inputs[target])) == 0
    assert inputs[target].read_bytes() == (tmp_path / "elsewhere.pkt").read_bytes()


def test_prune_artifacts_do_not_depend_on_the_eval_chunk(tmp_path, monkeypatch):
    # Layers wide enough that the error report splits its 200 held-out rows
    # at 48 and 96 rows, and not at the default.
    model, calib = tmp_path / "model.pkt", tmp_path / "calib.pkt"
    assert cli.main(["gen", "--seed", "4", "--dims", "256,256,200", "--samples", "1000",
                     "--out", str(model), "--calib-out", str(calib)]) == 0
    outs = set()
    for rows in (pruner._EVAL_ROWS, 48, 96):
        monkeypatch.setattr(pruner, "_EVAL_ROWS", rows)
        for threads in ("1", "2", "auto"):
            pruned, report = tmp_path / "pruned.pkt", tmp_path / "report.json"
            assert cli.main(["prune", "--model", str(model), "--calib", str(calib),
                             "--criterion", "stade-w", "--sparsity", "0.5",
                             "--threads", threads, "--out", str(pruned),
                             "--report", str(report)]) == 0
            outs.add((pruned.read_bytes(), report.read_bytes()))
    assert len(outs) == 1


def test_prune_reports_the_error_that_two_outputs_round_away(tmp_path, capsys):
    # 2**53 + 1 rounds to 2**53, so on rows of ones the dense and pruned
    # outputs are the same float64; the pruned weight's product is exactly 1.
    model, calib = TensorContainer(), TensorContainer()
    model.add_layer("fc", WeightLayer(np.array([[2.0**53], [1.0]], np.float32), None,
                                      centered=False))
    calib.add("fc.calib", np.ones((10, 2), np.float32))
    save_container(model, str(tmp_path / "m.pkt"))
    save_container(calib, str(tmp_path / "c.pkt"))
    report = tmp_path / "r.json"
    assert cli.main(["prune", "--model", str(tmp_path / "m.pkt"),
                     "--calib", str(tmp_path / "c.pkt"), "--criterion", "magnitude",
                     "--sparsity", "0.5", "--out", str(tmp_path / "o.pkt"),
                     "--report", str(report)]) == 0
    assert "mse=1.000000e+00" in capsys.readouterr().out
    assert json.loads(report.read_text())["layers"][0]["reconstruction_mse"] == 1.0


def test_prune_produces_valid_artifacts(workspace):
    out = workspace / "pruned.pkt"
    report = workspace / "report.json"
    proc = run_cli("prune", "--model", str(workspace / "model.pkt"),
                   "--calib", str(workspace / "calib.pkt"),
                   "--criterion", "stade-w", "--sparsity", "2:4",
                   "--out", str(out), "--report", str(report))
    assert proc.returncode == 0, proc.stderr
    summary = last_json_line(proc.stdout)
    assert summary["command"] == "prune" and summary["layers"] == 2
    pruned = load_container(str(out))
    spec = SparsitySpec.parse("2:4")
    for name in pruned.layer_names():
        assert mask_violation(pruned.get(f"{name}.mask"), spec) is None
    payload = json.loads(report.read_text())
    assert [rec["criterion"] for rec in payload["layers"]] == ["wanda", "stade"]


def test_prune_missing_model_is_usage_error():
    proc = run_cli("prune", "--calib", "c.pkt", "--criterion", "wanda",
                   "--sparsity", "0.5", "--out", "x.pkt")
    assert proc.returncode == 2
    assert "--model" in proc.stderr


def test_prune_unreadable_model_fails_cleanly(workspace):
    proc = run_cli("prune", "--model", str(workspace / "nope.pkt"),
                   "--calib", str(workspace / "calib.pkt"),
                   "--criterion", "wanda", "--sparsity", "0.5",
                   "--out", str(workspace / "x.pkt"))
    assert proc.returncode == 1
    assert "error" in proc.stderr.lower()


def test_only_sparsegpt_score_imports_scipy(workspace):
    # In a fresh interpreter: this one has imported scipy for other tests.
    def prune_argv(criterion):
        return ["prune", "--model", str(workspace / "model.pkt"),
                "--calib", str(workspace / "calib.pkt"), "--criterion", criterion,
                "--sparsity", "0.5", "--out", str(workspace / f"{criterion}.pkt")]

    script = (
        "import json, sys\n"
        "import prunekit.cli\n"
        "from prunekit import *\n"
        "print('scipy' in sys.modules)\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert prunekit.cli.main(argv) == 0\n"
        "    print('scipy' in sys.modules)\n")
    argvs = [prune_argv("stade-w"), prune_argv("sparsegpt-score")]
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    imported = [line for line in proc.stdout.splitlines() if line in ("True", "False")]
    assert imported == ["False", "False", "True"]


def test_importing_the_cli_does_not_load_numpy_random():
    # numpy loads numpy.random on first use; only a verify check uses it.
    script = ("import sys\n"
              "import prunekit.cli\n"
              "from prunekit import *\n"
              "print('numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_verify_pass_and_fail_exit_codes():
    ok = run_cli("verify", "--criterion", "stade", "--trials", "100", "--seed", "1")
    assert ok.returncode == 0, ok.stderr
    summary = last_json_line(ok.stdout)
    assert summary["mismatches"] == 0 and summary["trials"] == 100

    bad = run_cli("verify", "--criterion", "wanda", "--data", "offset",
                  "--trials", "60", "--seed", "1")
    assert bad.returncode == 1
    summary = last_json_line(bad.stdout)
    assert summary["mismatches"] > 0
    assert summary["first_counterexample"] is not None


def test_verify_threads_invariant():
    a = run_cli("verify", "--criterion", "stade-star", "--trials", "50",
                "--seed", "5", "--threads", "1")
    b = run_cli("verify", "--criterion", "stade-star", "--trials", "50",
                "--seed", "5", "--threads", "4")
    assert last_json_line(a.stdout) == last_json_line(b.stdout)


@pytest.mark.parametrize("trials", ["3000000000000000000000", "9223372036854775807"],
                         ids=["beyond-ssize_t", "int64-max"])
def test_verify_trials_beyond_the_ceiling_fail_before_any_trial(trials, tmp_path, capsys,
                                                                monkeypatch):
    # Windowing this many trials overflows ssize_t or exhausts memory.
    def no_trial(*args):
        raise AssertionError("a window was checked")

    monkeypatch.setattr(oracle, "_check_window", no_trial)
    report = tmp_path / "verify.json"
    code = cli.main(["verify", "--criterion", "stade", "--trials", trials,
                     "--report", str(report)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not report.exists()
    assert captured.err.startswith("error:") and f"[1, {oracle.MAX_TRIALS}]" in captured.err


@pytest.mark.parametrize("command", ["prune", "verify"])
def test_unwritable_output_fails_cleanly(workspace, command, capsys, monkeypatch):
    target = str(workspace / "no-such-dir" / "out.json")
    proc = run_cli(*_removed_flag_argv(workspace, command), "--report", target)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    if command == "prune":
        # No file can be made beside an --out in a missing directory, and
        # that fails before any layer is pruned.
        def never(*args):
            raise AssertionError("a layer was pruned")

        monkeypatch.setattr(pruner, "prune_layer", never)
        out = str(workspace / "no-such-dir" / "o.pkt")
        assert cli.main([*_removed_flag_argv(workspace, command), "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write container to {out!r}"), err
        assert "Traceback" not in err


@pytest.mark.parametrize("existing", [False, True])
def test_a_failed_write_leaves_out_as_it_was(deep, tmp_path, capsys, monkeypatch, existing):
    # The second positional write fails as on a full disk. The first write
    # is the header, made when the output opens, before any layer is
    # pruned; the second is fc0's weights, written once fc0 is pruned.
    out = tmp_path / "o.pkt"
    if existing:
        out.write_bytes(b"an earlier run's output")
    listing = sorted(os.listdir(tmp_path))
    pwrite, calls = os.pwrite, []

    def second_fails(fd, data, at):
        calls.append(at)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return pwrite(fd, data, at)

    monkeypatch.setattr(os, "pwrite", second_fails)
    code = cli.main(_prune_argv(deep / "model.pkt", deep / "calib.pkt", out))
    err = capsys.readouterr().err
    assert code == 1 and err.startswith(f"error: cannot write container to {str(out)!r}"), err
    assert "Traceback" not in err and len(calls) == 2
    assert sorted(os.listdir(tmp_path)) == listing
    assert not existing or out.read_bytes() == b"an earlier run's output"


def _never(*args):
    raise AssertionError("the command's work started")


@pytest.mark.parametrize("existing", [False, True])
def test_gen_with_an_unwritable_calib_out_leaves_out_as_it_was(tmp_path, capsys, monkeypatch,
                                                               existing):
    # Both temporary files are made before the model is generated.
    monkeypatch.setattr(cli, "gen_toy_mlp", _never)
    out = tmp_path / "m.pkt"
    if existing:
        out.write_bytes(b"an earlier run's output")
    listing = sorted(os.listdir(tmp_path))
    code = cli.main(["gen", "--seed", "0", "--out", str(out),
                     "--calib-out", str(tmp_path / "nodir" / "c.pkt")])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: cannot write container to "), err
    assert "Traceback" not in err and sorted(os.listdir(tmp_path)) == listing
    assert not existing or out.read_bytes() == b"an earlier run's output"


@pytest.mark.parametrize("existing", [False, True])
def test_prune_with_an_unwritable_report_leaves_out_as_it_was(deep, tmp_path, capsys,
                                                              monkeypatch, existing):
    # The report's temporary file is made before any layer is pruned.
    monkeypatch.setattr(pruner, "prune_layer", _never)
    out, report = tmp_path / "o.pkt", tmp_path / "nodir" / "r.json"
    if existing:
        out.write_bytes(b"an earlier run's output")
    listing = sorted(os.listdir(tmp_path))
    code = cli.main(_prune_argv(deep / "model.pkt", deep / "calib.pkt", out,
                                "--report", str(report)))
    err = capsys.readouterr().err
    assert code == 1 and err.startswith(f"error: cannot write report to {str(report)!r}"), err
    assert "Traceback" not in err and sorted(os.listdir(tmp_path)) == listing
    assert not existing or out.read_bytes() == b"an earlier run's output"


@pytest.mark.parametrize("existing", [False, True])
def test_gen_refuses_two_outputs_that_name_one_file(tmp_path, capsys, monkeypatch, existing):
    # Refused before any temporary file is made or the model is generated.
    monkeypatch.setattr(cli, "gen_toy_mlp", _never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    if existing:
        (tmp_path / "x.pkt").write_bytes(b"an earlier run's output")
    listing = sorted(os.listdir(tmp_path))
    code = cli.main(["gen", "--out", "x.pkt", "--calib-out", "sub/../x.pkt"])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
    assert "name one file" in err and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == listing and os.listdir(tmp_path / "sub") == []
    assert not existing or (tmp_path / "x.pkt").read_bytes() == b"an earlier run's output"


@pytest.mark.parametrize("existing", [False, True])
def test_prune_refuses_a_report_on_its_out(deep, tmp_path, capsys, monkeypatch, existing):
    monkeypatch.setattr(pruner, "prune_layer", _never)
    monkeypatch.chdir(tmp_path)
    if existing:
        (tmp_path / "o.pkt").write_bytes(b"an earlier run's output")
    listing = sorted(os.listdir(tmp_path))
    code = cli.main(_prune_argv(deep / "model.pkt", deep / "calib.pkt", "o.pkt",
                                "--report", "./o.pkt"))
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
    assert "name one file" in err and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == listing
    assert not existing or (tmp_path / "o.pkt").read_bytes() == b"an earlier run's output"


def test_an_output_may_be_a_symlink_to_another(tmp_path, capsys):
    # Paths are told apart by directory and final name: the link is
    # replaced by its own output, not written through.
    out, link = tmp_path / "x.pkt", tmp_path / "link.pkt"
    link.symlink_to(out)
    assert cli.main(["gen", "--out", str(out), "--calib-out", str(link)]) == 0
    assert not link.is_symlink()
    assert load_container(str(out)).layer_names() == ["fc1", "fc2"]
    assert load_container(str(link)).layer_names() == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_a_new_out_gets_the_mode_the_umask_leaves(deep, tmp_path, capsys, umask):
    out = tmp_path / "o.pkt"
    old = os.umask(umask)
    try:
        assert cli.main(_prune_argv(deep / "model.pkt", deep / "calib.pkt", out)) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask
    assert os.listdir(tmp_path) == ["o.pkt"]


def test_prune_error_names_the_layer(workspace):
    model, calib = workspace / "m6.pkt", workspace / "c6.pkt"
    proc = run_cli("gen", "--dims", "4,6,2", "--samples", "32",
                   "--out", str(model), "--calib-out", str(calib))
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("prune", "--model", str(model), "--calib", str(calib),
                   "--criterion", "wanda", "--sparsity", "2:4",
                   "--out", str(workspace / "o6.pkt"))
    assert proc.returncode == 1
    assert proc.stderr == ("error: layer 'fc2': input dimension 6 not divisible "
                           "by group size 4\n")


def test_prune_rejects_a_bias_the_manifest_denies(workspace):
    # A layer whose manifest says has_bias false, followed by its bias.
    manifest = json.dumps({"tensors": [
        {"name": "fc1", "shape": [8, 16], "dtype": "f32", "offset": 0,
         "centered": False, "has_bias": False},
        {"name": "fc1.bias", "shape": [16], "dtype": "f32", "offset": 512},
    ]}).encode()
    model, out = workspace / "stray.pkt", workspace / "stray-out.pkt"
    model.write_bytes(MAGIC + struct.pack("<I", len(manifest)) + manifest
                      + np.ones(8 * 16 + 16, dtype="<f4").tobytes())
    proc = run_cli("prune", "--model", str(model), "--calib", str(workspace / "calib.pkt"),
                   "--criterion", "wanda", "--sparsity", "0.5", "--out", str(out))
    assert proc.returncode == 1
    assert "'fc1'" in proc.stderr and "has_bias" in proc.stderr
    assert not out.exists()


def test_reprune_a_pruned_container(workspace):
    args = ("--calib", str(workspace / "calib.pkt"), "--criterion", "stade")
    first, second = workspace / "re1.pkt", workspace / "re2.pkt"
    proc = run_cli("prune", "--model", str(workspace / "model.pkt"), *args,
                   "--sparsity", "0.5", "--out", str(first))
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("prune", "--model", str(first), *args,
                   "--sparsity", "0.75", "--out", str(second))
    assert proc.returncode == 0, proc.stderr
    pruned = load_container(str(second))
    for name in pruned.layer_names():
        assert mask_violation(pruned.get(f"{name}.mask"),
                              SparsitySpec(ratio=0.75)) is None


def _removed_flag_argv(workspace, command):
    ws = str(workspace)
    return {
        "gen": ("gen", "--out", f"{ws}/g.pkt", "--calib-out", f"{ws}/gc.pkt"),
        "prune": ("prune", "--model", f"{ws}/model.pkt", "--calib", f"{ws}/calib.pkt",
                  "--criterion", "wanda", "--sparsity", "0.5", "--out", f"{ws}/r.pkt"),
        "verify": ("verify", "--criterion", "stade", "--trials", "5"),
    }[command]


@pytest.mark.parametrize("command, flag", [
    ("prune", "--seed"), ("gen", "--threads"), ("gen", "--report"), ("verify", "--out"),
])
def test_removed_flags_are_usage_errors(workspace, command, flag):
    argv = _removed_flag_argv(workspace, command)
    assert run_cli(*argv).returncode == 0
    proc = run_cli(*argv, flag, "1")
    assert proc.returncode == 2
    assert flag in proc.stderr


def test_threads_environment_variable_is_ignored():
    env = {**os.environ, "PRUNEKIT_THREADS": "not-a-count"}
    proc = run_cli("verify", "--criterion", "stade", "--trials", "5", env=env)
    assert proc.returncode == 0, proc.stderr


def test_damping_with_another_criterion_fails(workspace):
    proc = run_cli("prune", "--model", str(workspace / "model.pkt"),
                   "--calib", str(workspace / "calib.pkt"), "--criterion", "wanda",
                   "--damping", "0.1", "--sparsity", "0.5",
                   "--out", str(workspace / "d.pkt"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "damping" in proc.stderr


@pytest.mark.parametrize("manifest", [
    b'{"tensors":' + b"[" * 100_000,
    b'{"tensors":[{"name":"fc1","shape":[true,2],"dtype":"f32","offset":0,'
    b'"centered":false,"has_bias":false}]}',
], ids=["deep-nesting", "bool-dim"])
def test_hostile_container_fails_cleanly(workspace, manifest):
    path = workspace / "hostile.pkt"
    path.write_bytes(MAGIC + struct.pack("<I", len(manifest)) + manifest + b"\x00" * 8)
    proc = run_cli("prune", "--model", str(path), "--calib", str(workspace / "calib.pkt"),
                   "--criterion", "wanda", "--sparsity", "0.5",
                   "--out", str(workspace / "h.pkt"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def _fails_before_writing(argv, capsys, path):
    out = argv[argv.index("--out") + 1]
    listing = sorted(os.listdir(os.path.dirname(out)))
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error:") and repr(str(path)) in err, err
    assert "Traceback" not in err and not os.path.exists(out)
    assert sorted(os.listdir(os.path.dirname(out))) == listing  # no temporary file left


@pytest.mark.parametrize("role", ["model", "calib"])
@pytest.mark.parametrize("blob", [blob for blob, _ in _HOSTILE.args[1]],
                         ids=_HOSTILE.kwargs["ids"])
def test_every_file_the_loader_rejects_fails_prune(deep, tmp_path, capsys, role, blob):
    inputs = {name: deep / f"{name}.pkt" for name in ("model", "calib")}
    inputs[role] = tmp_path / "bad.pkt"
    inputs[role].write_bytes(blob)
    _fails_before_writing(_prune_argv(inputs["model"], inputs["calib"], tmp_path / "o.pkt"),
                          capsys, inputs[role])


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_bad_value_read_after_other_layers_still_fails_prune(deep, tmp_path, capsys,
                                                              threads):
    # A NaN in the last layer's weights, which end the model file, and a 7 in
    # a u8 calibration tensor that no layer reads.
    model, calib = tmp_path / "model.pkt", tmp_path / "calib.pkt"
    model.write_bytes((deep / "model.pkt").read_bytes()[:-4] + np.float32(np.nan).tobytes())
    rows = load_container(str(deep / "calib.pkt"))
    rows.add("flags", np.array([1, 0, 1], dtype=np.uint8))
    save_container(rows, str(calib))
    calib.write_bytes(calib.read_bytes()[:-1] + b"\x07")
    for bad in (model, calib):
        with pytest.raises(InvariantViolation, match=repr(str(bad))):
            load_container(str(bad))
    good = {"model": deep / "model.pkt", "calib": deep / "calib.pkt"}
    _fails_before_writing(_prune_argv(model, good["calib"], tmp_path / "o.pkt",
                                      "--threads", threads), capsys, model)
    _fails_before_writing(_prune_argv(good["model"], calib, tmp_path / "o.pkt",
                                      "--threads", threads), capsys, calib)


def _poke(path, tensor, row, value):
    """Write float32 ``value`` over the first value of row ``row`` of the
    2-D f32 tensor ``tensor`` in the container file at ``path``."""
    with open_container(str(path)) as container:
        entry = container.entry(tensor)
        at = entry.start + row * entry.shape[1] * 4
    blob = bytearray(path.read_bytes())
    blob[at : at + 4] = np.float32(value).tobytes()
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("criterion", ["stade-w", "sparsegpt-score"])
@pytest.mark.parametrize("target", ["elsewhere", "model", "calib"])
@pytest.mark.parametrize("fault", ["inf-in-held-out-rows", "nan-in-statistics-rows",
                                   "truncated-in-held-out-rows"])
def test_a_fault_in_either_calibration_row_range_fails_prune(deep, tmp_path, capsys,
                                                             monkeypatch, fault, target,
                                                             criterion):
    # Of deep's 600 rows per layer, 0-479 feed the statistics and 480-599 are
    # held out; each range is read at its own stage.
    inputs = {name: tmp_path / f"{name}.pkt" for name in ("model", "calib")}
    for name, path in inputs.items():
        path.write_bytes((deep / f"{name}.pkt").read_bytes())
    bad = inputs["calib"]
    if fault == "truncated-in-held-out-rows":
        # The last 8 bytes lie in fc4.calib's last row. The size fstat reports
        # is the old one, so the manifest checks pass and the read comes short.
        bad.write_bytes(bad.read_bytes()[:-8])
        real_fstat, inode = os.fstat, bad.stat().st_ino

        def stale_fstat(fd):
            info = real_fstat(fd)
            if info.st_ino != inode:
                return info
            return os.stat_result((*info[:6], info.st_size + 8, *info[7:10]))

        monkeypatch.setattr(os, "fstat", stale_fstat)
        words = "file ends inside"
    else:
        row, value = (550, np.inf) if fault == "inf-in-held-out-rows" else (300, np.nan)
        _poke(bad, "fc2.calib", row, value)
        words = "value not finite as float32"
    before = {name: path.read_bytes() for name, path in inputs.items()}
    out = tmp_path / "o.pkt" if target == "elsewhere" else inputs[target]
    code = cli.main(_prune_argv(inputs["model"], bad, out, criterion=criterion))
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error:") and "Traceback" not in err, err
    assert words in err and repr(str(bad)) in err, err
    assert {name: path.read_bytes() for name, path in inputs.items()} == before
    assert target != "elsewhere" or not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_model_file_changed_between_a_layers_two_reads_fails_prune(deep, tmp_path, capsys,
                                                                     monkeypatch, threads):
    # A layer's weights are read when its score starts and again after its
    # error report; the model file grows in between.
    model, out = tmp_path / "model.pkt", tmp_path / "o.pkt"
    model.write_bytes((deep / "model.pkt").read_bytes())
    build_mask = pruner.build_mask

    def build_then_grow(scores, spec):
        with open(model, "ab") as fh:  # the same file, open in prune, 4 bytes longer
            fh.write(bytes(4))
        return build_mask(scores, spec)

    monkeypatch.setattr(pruner, "build_mask", build_then_grow)
    code = cli.main(_prune_argv(model, deep / "calib.pkt", out, "--threads", threads))
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error:") and "Traceback" not in err, err
    assert "changed since it was opened" in err and repr(str(model)) in err, err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_layer_reports_bad_statistics_rows_before_bad_weights(deep, tmp_path, capsys,
                                                                threads):
    # A layer's weights are read after its statistics, so a NaN in both
    # reports the calibration rows; a NaN in the weights alone, the model.
    inputs = {name: tmp_path / f"{name}.pkt" for name in ("model", "calib")}
    for name, path in inputs.items():
        path.write_bytes((deep / f"{name}.pkt").read_bytes())
    _poke(inputs["model"], "fc2", 5, np.nan)
    _fails_before_writing(_prune_argv(inputs["model"], inputs["calib"], tmp_path / "o.pkt",
                                      "--threads", threads), capsys, inputs["model"])
    _poke(inputs["calib"], "fc2.calib", 300, np.nan)
    _fails_before_writing(_prune_argv(inputs["model"], inputs["calib"], tmp_path / "o.pkt",
                                      "--threads", threads), capsys, inputs["calib"])


def test_unknown_subcommand_is_usage_error(workspace):
    # ``stats`` was a subcommand; it was removed because nothing read its output.
    # ``bench`` was a second front end over ``run_comparison``, which
    # scripts/compare_criteria.py drives.
    for command in ("shrink", "stats", "bench"):
        proc = run_cli(command, "--calib", str(workspace / "calib.pkt"),
                       "--out", str(workspace / "s.pkt"))
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr and "Traceback" not in proc.stderr


def test_every_success_ends_with_json(workspace):
    proc = run_cli("prune", "--model", str(workspace / "model.pkt"),
                   "--calib", str(workspace / "calib.pkt"),
                   "--criterion", "magnitude", "--sparsity", "0.25",
                   "--out", str(workspace / "p2.pkt"))
    assert proc.returncode == 0
    assert isinstance(last_json_line(proc.stdout), dict)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("layers", [["fc"], []], ids=["zero-width-layer", "no-layers"])
def test_empty_outputs_give_strict_json(tmp_path, layers):
    model, calib = TensorContainer(), TensorContainer()
    for name in layers:
        model.add_layer(name, WeightLayer(np.zeros((4, 0)), None, centered=False))
        calib.add(f"{name}.calib", np.random.default_rng(0).standard_normal((10, 4)))
    save_container(model, str(tmp_path / "m.pkt"))
    save_container(calib, str(tmp_path / "c.pkt"))
    report = tmp_path / "r.json"
    proc = run_cli("prune", "--model", str(tmp_path / "m.pkt"),
                   "--calib", str(tmp_path / "c.pkt"), "--criterion", "stade",
                   "--sparsity", "0.5", "--out", str(tmp_path / "o.pkt"),
                   "--report", str(report))
    assert proc.returncode == 0 and "Warning" not in proc.stderr, proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    assert json.loads(last, parse_constant=_reject_constant)["mean_mse"] == 0.0
    payload = json.loads(report.read_text(), parse_constant=_reject_constant)
    assert [rec["reconstruction_mse"] for rec in payload["layers"]] == [0.0] * len(layers)


@pytest.mark.parametrize("value", ["abc", "1:0", "2:x", "1.5"])
@pytest.mark.parametrize("command", ["prune"])
def test_bad_sparsity_is_usage_error(workspace, command, value):
    argv = list(_removed_flag_argv(workspace, command))
    argv[argv.index("--sparsity") + 1] = value
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "--sparsity" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, missing, extra", [
    ("prune", None, ("--damping", "abc")),
    ("prune", None, ("--threads", "abc")),
    ("prune", None, ("--threads", "-3")),
    ("verify", None, ("--threads", "0")),
    ("prune", None, ("--threads", "1.5")),
    ("gen", "--out", ()),
    ("prune", "--out", ()),
], ids=["damping-abc", "threads-abc", "threads-negative", "threads-zero",
        "threads-float", "gen-no-out", "prune-no-out"])
def test_flag_syntax_errors_are_usage_errors(workspace, command, missing, extra):
    argv = list(_removed_flag_argv(workspace, command))
    if missing:
        at = argv.index(missing)
        del argv[at : at + 2]
    proc = run_cli(*argv, *extra)
    assert proc.returncode == 2
    assert (missing or extra[0]) in proc.stderr and "Traceback" not in proc.stderr


def _readme_cli_table():
    """The README's ``| subcommand | flags |`` table as {subcommand: {flags}}."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = text[text.index("| subcommand | flags |"):].splitlines()[2:]
    table = {}
    for line in itertools.takewhile(lambda row: row.startswith("|"), lines):
        command, flags = (cell.strip() for cell in line.strip("|").split("|"))
        table[command.strip("`")] = {f.strip().strip("`") for f in flags.split(",")}
    return table


def test_readme_cli_table_matches_parser():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    parsed = {command: {opt for action in sub._actions for opt in action.option_strings
                        if opt not in ("-h", "--help")}
              for command, sub in subparsers.choices.items()}
    assert _readme_cli_table() == parsed
    assert sum(len(flags) for flags in parsed.values()) == 22


@pytest.mark.parametrize("dims, code", [("a,b,c", 2), ("0,4,2", 1), ("4,2", 1)],
                         ids=["not-integers", "zero-size", "two-sizes"])
def test_gen_dims_parse_is_usage_error_and_range_is_validation(tmp_path, dims, code):
    # --dims only parses integers; ToyMlpConfig owns the count and sign rule.
    proc = run_cli("gen", "--dims", dims, "--out", str(tmp_path / "m.pkt"),
                   "--calib-out", str(tmp_path / "c.pkt"))
    assert proc.returncode == code and "Traceback" not in proc.stderr
    expected = "--dims" if code == 2 else "dims must be three positive sizes"
    assert expected in proc.stderr
    assert not (tmp_path / "m.pkt").exists()


@pytest.mark.parametrize("flag, value", [("--dims", "1,1,5000000000000000000"),
                                         ("--samples", "5000000000000000000")],
                         ids=["dims", "samples"])
def test_gen_sizes_numpy_cannot_build_are_validation_errors(tmp_path, flag, value):
    # Sizes numpy can index but memory cannot hold still end in MemoryError.
    proc = run_cli("gen", flag, value, "--out", str(tmp_path / "m.pkt"),
                   "--calib-out", str(tmp_path / "c.pkt"))
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert "numpy cannot build" in proc.stderr
