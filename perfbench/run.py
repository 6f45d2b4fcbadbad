#!/usr/bin/env python3
"""Builds the benchmark and the `crsat` daemon from source, then runs one
benchmark workload.

    python3 perfbench/run.py --workload verify-corpus --seed 1 --seconds 10 --trace 0

Run it from the repository root. Build output goes to standard error; the
benchmark's report (ending in one JSON line) goes to standard output. The
build lands in $CARGO_TARGET_DIR (default: perfbench/target), and run
state (recorded work counters, spans, scratch directories) beneath it.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        print(f"perfbench: {ROOT} is not a cr-reason checkout (no Cargo.toml or crates/)",
              file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", BENCH_DIR / "target"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH_DIR / "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "Cargo.toml"), "-p", "cr-cli", "--bin", "crsat"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    cmd = [
        str(target / "release" / "perfbench"),
        *sys.argv[1:],
        "--root", str(ROOT),
        "--expected-dir", str(BENCH_DIR / "expected"),
        "--state-dir", str(target / "perfbench-state"),
        "--crsat", str(target / "release" / "crsat"),
    ]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
