#!/usr/bin/env python3
"""Build the benchmark from source and run one workload in its own process.

Run from the repository root:

    python3 perfbench/run.py --workload <cnn-jwins|mlp-jwins|swarm-full> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark package (perfbench/Cargo.toml, a workspace of its own with
path dependencies on crates/) is built in release mode into
$CARGO_TARGET_DIR, or `.bench_build` under the current directory when that
is unset. Cargo's output goes to standard error, so standard output carries
only the benchmark's lines, the last of which is the JSON result. Traced
runs (`--trace 1`) write their spans to
<target dir>/perfbench-spans/<workload>-seed<n>.jsonl.

Exits non-zero without a result when the build fails, for example outside
a full checkout of the repository.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    package = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(package / "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = target / "release" / "perfbench"
    spans_dir = target / "perfbench-spans"
    run = subprocess.run(
        [str(binary), *sys.argv[1:], "--spans-dir", str(spans_dir)],
        env=env,
        check=False,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
