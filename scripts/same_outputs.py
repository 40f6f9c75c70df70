#!/usr/bin/env python3
"""Check that two source trees write byte-identical benchmark outputs.

Runs ``python3 perfbench/run.py --workload W --seed S --seconds 1`` with
each tree as its working directory, once per seed, reads the ``== <workload>``
and ``sha256 <file> <hex>`` lines of its stdout and prints one line per
output: seed, workload, file, then ``same <hex>`` or ``DIFFERENT <hex> <hex>``
(PARENT's first). Exits 1 when a hash differs or an output is missing from
one run, when a run prints ``"correct": false`` or when a run exits non-zero;
else 0.

Usage: python3 scripts/same_outputs.py PARENT CHANGE [--workload all]
       [--seed N ...]
"""

import argparse
import subprocess
import sys


def run_outputs(tree, workload, seed):
    """(outputs, ok) of one benchmark run in ``tree``: outputs maps
    (workload, file) to its sha256; ok is False when the run failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1"],
        cwd=tree, capture_output=True, text=True)
    outputs, current = {}, None
    for line in proc.stdout.splitlines():
        if line.startswith("== "):
            current = line[3:]
        elif line.startswith("sha256 "):
            name, digest = line[len("sha256 "):].rsplit(" ", 1)
            outputs[(current, name)] = digest
    ok = proc.returncode == 0 and '"correct": false' not in proc.stdout
    if not ok:
        print(f"{tree}: seed {seed}: run failed (exit {proc.returncode})\n"
              f"{proc.stderr.strip()}", file=sys.stderr)
    return outputs, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", default="all")
    # extend, so "--seed 1 --seed 2" checks both seeds as "--seed 1 2" does;
    # no default list, which extend would keep in front of the given seeds
    parser.add_argument("--seed", type=int, nargs="+", action="extend")
    args = parser.parse_args(argv)
    same = True
    for seed in args.seed or [0]:
        before, ok_before = run_outputs(args.parent, args.workload, seed)
        after, ok_after = run_outputs(args.change, args.workload, seed)
        same = same and ok_before and ok_after
        for key in {**before, **after}:
            old, new = before.get(key, "missing"), after.get(key, "missing")
            same = same and old == new
            verdict = f"same {old}" if old == new else f"DIFFERENT {old} {new}"
            print(f"seed {seed} {key[0]} {key[1]} {verdict}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
