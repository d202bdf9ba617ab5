#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs one workload.

    python3 pipebench/run.py --workload corpus-batch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Both builds go to $CARGO_TARGET_DIR
(default `.bench_build`), offline. The benchmark binary's last stdout
line is the JSON result; this script passes it through unchanged and
exits with the binary's code. Build output goes to stderr.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "pipebench")


def build(args):
    # Build output goes to stderr so that stdout carries only the result.
    return subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        stdout=sys.stderr,
        check=False,
    ).returncode == 0


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.stderr.write("pipebench: run from the root of a webssari checkout\n")
        return 2
    if not build(["--bin", "webssari"]):
        sys.stderr.write("pipebench: building webssari failed\n")
        return 2
    if not build(["--manifest-path", os.path.join(BENCH, "Cargo.toml")]):
        sys.stderr.write("pipebench: building the benchmark failed\n")
        return 2
    binary = os.path.join(target, "release", "pipebench")
    webssari = os.path.join(target, "release", "webssari")
    work = os.path.join(ROOT, ".bench_work")
    cmd = [binary, *sys.argv[1:], "--webssari", webssari, "--work-dir", work]
    return subprocess.run(cmd, cwd=ROOT, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
