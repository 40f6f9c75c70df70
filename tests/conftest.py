"""Put the checkout's ``src`` on PYTHONPATH, so the CLI and script tests'
subprocesses import the same prunekit as the in-process tests."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))
