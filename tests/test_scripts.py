import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from prunekit import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_compare_criteria_smoke(tmp_path):
    out = tmp_path / "results.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "compare_criteria.py"), "--seeds", "1",
         "--samples", "32", "--trials", "20", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "stade-w resolved per layer: ['wanda', 'stade']" in proc.stdout
    results = json.loads(out.read_text())
    assert set(results) == {"ordering", "centered", "misranking"}
    assert set(results["ordering"]) == {"0.5", "2:4"}
    assert results["misranking"]["stade"] == 0.0


def test_perfbench_trace_targets_resolve():
    # perfbench/run.py --trace 1 wraps these attributes by name; a rename in
    # prunekit must fail here, not in the benchmark.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing._targets()
    assert targets
    for owner, attr, count in targets:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
        assert count is None or callable(count)


def test_perfbench_commands_parse():
    # perfbench/run.py times these CLI calls; a flag they pass that the
    # parser no longer takes must fail here, not in the benchmark.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses resolve their module by name
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    parser = cli.build_parser()
    argvs = [command.argv for workload in workloads.WORKLOADS.values()
             for command in workload.commands("work", seed=0)]
    assert argvs
    for argv in argvs:
        assert parser.parse_args(argv).func in (cli._cmd_prune, cli._cmd_verify), argv


def _stub_tree(root, report_hash, correct="true", code=0):
    """A tree whose perfbench/run.py prints canned benchmark lines."""
    bench = root / "perfbench"
    bench.mkdir(parents=True)
    lines = ["== verify-oracle", "machine {}", f"sha256 verify.json {'a' * 64}",
             "== prune-unstructured", f"sha256 report.json {report_hash}",
             f'{{"correct": {correct}}}']
    stdout = "\n".join(lines)
    (bench / "run.py").write_text(f"import sys\nprint({stdout!r})\nsys.exit({code})\n")
    return str(root)


@pytest.mark.parametrize("change, expected", [
    (dict(report_hash="b" * 64), 0),
    (dict(report_hash="c" * 64), 1),
    (dict(report_hash="b" * 64, correct="false"), 1),
    (dict(report_hash="b" * 64, code=1), 1),
], ids=["same", "changed-hash", "incorrect", "nonzero-exit"])
def test_same_outputs_compares_hashes(tmp_path, change, expected):
    parent = _stub_tree(tmp_path / "parent", "b" * 64)
    tree = _stub_tree(tmp_path / "change", **change)
    for seeds in (["3", "4"], ["3", "--seed", "4"]):  # either form checks both seeds
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "same_outputs.py"), parent, tree, "--seed", *seeds],
            capture_output=True, text=True)
        assert proc.returncode == expected, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 4  # two outputs at each of two seeds
        assert lines[0] == f"seed 3 verify-oracle verify.json same {'a' * 64}"
        assert lines[2].startswith("seed 4 ")
        assert (lines[1].split()[4] == "DIFFERENT") == (change["report_hash"] != "b" * 64)


def _loc_rows(*paths):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "loc.py"), *map(str, paths)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return [line.split() for line in proc.stdout.splitlines()[1:]]


def test_loc_counts_add_up_to_each_file_length(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text('"""One.\n\nTwo."""\n\n# a comment\nx = 1  # code\n')
    assert _loc_rows(sample)[0][:5] == ["1", "3", "1", "1", "6"]
    package = Path(cli.__file__).parent
    rows = _loc_rows(package)
    files = {Path(row[5]).name: [int(n) for n in row[:5]] for row in rows[:-1]}
    assert set(files) == {path.name for path in package.glob("*.py")}
    for name, (code, doc, comment, blank, total) in files.items():
        lines = len((package / name).read_text("utf-8").splitlines())
        assert code + doc + comment + blank == total == lines, name
    assert [int(n) for n in rows[-1][:5]] == [sum(col) for col in zip(*files.values())]


def test_rss_peak_smoke(tmp_path):
    model, calib = tmp_path / "model.pkt", tmp_path / "calib.pkt"
    code = cli.main(["gen", "--seed", "2", "--dims", "256,1024,256", "--samples", "1024",
                     "--out", str(model), "--calib-out", str(calib)])
    assert code == 0
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "rss_peak.py"), "--model", str(model),
         "--calib", str(calib), "--criterion", "stade-w", "--sparsity", "0.5",
         "--threads", "2", "--out", str(tmp_path / "out.pkt")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("sampled peak: ") and lines[1].startswith("ru_maxrss: ")
    for line in lines[:2]:
        assert float(line.split()[-2]) > 0, line
    assert lines[2] == "innermost prunekit frame of each thread at the highest sample:"
    modules = {path.stem for path in Path(cli.__file__).parent.glob("*.py")}
    frames = lines[3:]
    assert frames and all(line.split(": ", 1)[1].split(".")[0] in modules
                          for line in frames), frames
    assert (tmp_path / "out.pkt").exists()


def test_a_traced_gen_counts_the_bytes_it_saves(tmp_path, monkeypatch, capsys):
    # The tracer counts cli.save_container's bytes from the file its second
    # argument names, which gen's outputs hold until both are written.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attr, _ in tracing._targets():
        monkeypatch.setattr(owner, attr, getattr(owner, attr))  # restored after the test
    tracer = tracing.Tracer()
    tracer.install()
    outs = [tmp_path / "m.pkt", tmp_path / "c.pkt"]
    assert cli.main(["gen", "--out", str(outs[0]), "--calib-out", str(outs[1])]) == 0
    saved = [span[6] for span in tracer.spans if span[1] == "cli.save_container"]
    assert saved == [out.stat().st_size for out in outs]
