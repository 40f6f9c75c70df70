import json
import subprocess
import sys
from pathlib import Path

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
