import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from prunekit import (
    SparsitySpec,
    TensorContainer,
    WeightLayer,
    load_container,
    save_container,
    validate_mask,
)
from prunekit.container import MAGIC


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


def test_stats_runs_are_byte_identical(workspace):
    outs = []
    for i in range(2):
        path = workspace / f"stats{i}.pkt"
        proc = run_cli("stats", "--calib", str(workspace / "calib.pkt"),
                       "--out", str(path))
        assert proc.returncode == 0, proc.stderr
        assert last_json_line(proc.stdout)["command"] == "stats"
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


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
        assert validate_mask(pruned.get_mask(name), spec)
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


def test_bench_table_and_json(workspace):
    out = workspace / "table.json"
    proc = run_cli("bench", "--criteria", "wanda,stade", "--sparsity", "0.5",
                   "--seeds", "2", "--dims", "8,16,4", "--samples", "96",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("criterion")
    summary = json.loads(lines[-1])
    assert summary["command"] == "bench"
    table = json.loads(out.read_text())
    assert set(table["layer_mse"]) == {"wanda", "stade"}


def test_bench_rejects_single_criterion():
    proc = run_cli("bench", "--criteria", "wanda", "--sparsity", "0.5",
                   "--seeds", "2")
    assert proc.returncode == 1
    assert "two criteria" in proc.stderr


@pytest.mark.parametrize("command", ["prune", "bench"])
def test_unwritable_output_fails_cleanly(workspace, command):
    target = str(workspace / "no-such-dir" / "out.json")
    if command == "prune":
        args = ("prune", "--model", str(workspace / "model.pkt"),
                "--calib", str(workspace / "calib.pkt"), "--criterion", "wanda",
                "--sparsity", "0.5", "--out", str(workspace / "p3.pkt"),
                "--report", target)
    else:
        args = ("bench", "--criteria", "wanda,stade", "--sparsity", "0.5",
                "--seeds", "1", "--dims", "4,8,2", "--samples", "32", "--out", target)
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


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
        assert validate_mask(pruned.get_mask(name), SparsitySpec.unstructured(0.75))


def _removed_flag_argv(workspace, command):
    ws = str(workspace)
    return {
        "gen": ("gen", "--out", f"{ws}/g.pkt", "--calib-out", f"{ws}/gc.pkt"),
        "stats": ("stats", "--calib", f"{ws}/calib.pkt", "--out", f"{ws}/s.pkt"),
        "prune": ("prune", "--model", f"{ws}/model.pkt", "--calib", f"{ws}/calib.pkt",
                  "--criterion", "wanda", "--sparsity", "0.5", "--out", f"{ws}/r.pkt"),
        "verify": ("verify", "--criterion", "stade", "--trials", "5"),
        "bench": ("bench", "--criteria", "wanda,stade", "--sparsity", "0.5",
                  "--seeds", "1", "--dims", "4,8,2", "--samples", "32"),
    }[command]


@pytest.mark.parametrize("command, flag", [
    ("prune", "--seed"), ("stats", "--seed"), ("stats", "--threads"),
    ("gen", "--threads"), ("verify", "--out"), ("bench", "--report"),
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


def test_unknown_subcommand_is_usage_error():
    proc = run_cli("shrink")
    assert proc.returncode == 2


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
@pytest.mark.parametrize("command", ["prune", "bench"])
def test_bad_sparsity_is_usage_error(workspace, command, value):
    argv = list(_removed_flag_argv(workspace, command))
    argv[argv.index("--sparsity") + 1] = value
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "--sparsity" in proc.stderr and "Traceback" not in proc.stderr
