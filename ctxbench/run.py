#!/usr/bin/env python3
"""Builds the ctxres benchmark from source and runs one workload.

Usage (from the repository root):

    python3 ctxbench/run.py --workload <city-batch|city-stream|paper-apps> \
        --seed <n> --seconds <s> --trace <0|1>

`--trace 0` prints the end-to-end metrics; `--trace 1` the per-layer
metrics (and writes a span file under `.bench_out/`). The benchmark
runs pinned to one CPU. The binary's last stdout line is the JSON result; its exit status is
passed through (1 on a verdict mismatch). Build artefacts go to
`$CARGO_TARGET_DIR`, or `.bench_build/` when that is unset.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("ctxbench: build failed", file=sys.stderr)
        return build.returncode or 1
    # One CPU for the benchmark and every thread the engine starts: the
    # shard and speculation threads then take turns instead of racing
    # other tenants for the host's few cores, and the engine sizes its
    # speculation pool to one worker (see README "How a plain run
    # measures").
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = subprocess.run([os.path.join(target, "release", "ctxbench")] + argv)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
