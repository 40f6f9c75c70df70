#!/usr/bin/env python3
"""Sample the resident set of an in-process ``prunekit prune`` every 2 ms.

Runs ``prunekit.cli.main(["prune", *ARGS])`` in this process while a thread
reads ``/proc/self/statm`` every 2 ms. At each new high it records, for each
other thread, the innermost frame of prunekit's own code. When the prune
ends it prints the highest sample, ``ru_maxrss`` (the process's high-water
mark, which also counts the imports and any peak between two samples), and
the frames recorded at the highest sample. Megabytes are 1e6 bytes, as in
perfbench's ``peak_rss_mb``. The prune's own stdout is discarded; its exit
code is this script's.

Linux only: it reads ``/proc/self/statm``, and ``ru_maxrss`` is in KiB
there. It imports only the standard library and prunekit. Set
``OPENBLAS_NUM_THREADS=1`` to measure as perfbench does.

Usage: PYTHONPATH=src python3 scripts/rss_peak.py --model M --calib C
       --criterion T --sparsity S --out O [--threads N] [other prune flags]
"""

import contextlib
import io
import os
import resource
import sys
import threading
from pathlib import Path

INTERVAL_S = 0.002
STATM = "/proc/self/statm"
MB = 1e6


def resident_bytes() -> int:
    with open(STATM, "rb") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def innermost_frames(package: str, skip: int) -> dict[str, str]:
    """For each thread but ``skip``, its innermost frame in a file under
    ``package``, as ``module.function line N``; threads with none are left out."""
    names = {t.ident: t.name for t in threading.enumerate()}
    found = {}
    for ident, frame in sys._current_frames().items():
        if ident == skip:
            continue
        while frame is not None and not frame.f_code.co_filename.startswith(package):
            frame = frame.f_back
        if frame is not None:
            code = frame.f_code
            found[names.get(ident, str(ident))] = (
                f"{Path(code.co_filename).stem}.{code.co_name} line {frame.f_lineno}")
    return found


class Sampler(threading.Thread):
    """Reads the resident set every ``INTERVAL_S`` until ``done`` is set and
    keeps the highest sample with the frames seen at it."""

    def __init__(self, package: str) -> None:
        super().__init__(name="rss-sampler", daemon=True)
        self.package = package
        self.done = threading.Event()
        self.peak = 0
        self.frames: dict[str, str] = {}

    def run(self) -> None:
        while True:
            rss = resident_bytes()
            if rss > self.peak:
                self.peak = rss
                self.frames = innermost_frames(self.package, threading.get_ident())
            if self.done.wait(INTERVAL_S):
                return


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not os.path.exists(STATM):
        print(f"rss_peak.py: {STATM} not found; this script runs on Linux only",
              file=sys.stderr)
        return 2
    from prunekit import cli

    sampler = Sampler(str(Path(cli.__file__).parent) + os.sep)
    sampler.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["prune", *args])
    finally:
        sampler.done.set()
        sampler.join()
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    print(f"sampled peak: {sampler.peak / MB:.1f} MB")
    print(f"ru_maxrss: {maxrss / MB:.1f} MB")
    print("innermost prunekit frame of each thread at the highest sample:")
    for thread, where in sampler.frames.items():
        print(f"  {thread}: {where}")
    return code


if __name__ == "__main__":
    sys.exit(main())
