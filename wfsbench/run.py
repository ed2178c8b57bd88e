#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 wfsbench/run.py --workload cell-dense --seed 1 --seconds 10 --trace 0

The binary is built with dune into _build/ under the current directory
(dune's shared cache disabled, so nothing is written outside it), then run
with the given arguments plus a build stamp.  Build output goes to standard
error; standard output is the benchmark's own, ending in one JSON line.
Exits 2 without a result when the tree cannot be built.
"""

import os
import subprocess
import sys

PROFILE = "dev"
TARGET = "./wfsbench/wfsbench.exe"
BINARY = os.path.join("_build", "default", "wfsbench", "wfsbench.exe")


def probe(cmd):
    """First line of a command's output, or 'unknown' if it cannot run."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    line = out.stdout.strip().splitlines()
    return line[0] if out.returncode == 0 and line else "unknown"


def main():
    if not (os.path.isfile("dune-project") and os.path.isfile("wfsbench/dune")):
        print("wfsbench: run from the root of a source tree", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", PROFILE, TARGET],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("wfsbench: build failed", file=sys.stderr)
        return 2
    stamp = [
        "--stamp-profile", PROFILE,
        "--stamp-flambda", probe(["ocamlfind", "ocamlopt", "-config-var", "flambda"]),
        "--stamp-rev", probe(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else "none",
    ]
    return subprocess.run([BINARY] + sys.argv[1:] + stamp).returncode


if __name__ == "__main__":
    sys.exit(main())
