#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim_single --seed 1 --seconds 30 --trace 0

Workloads: sim_single, figures, serve_warm. Build output goes to
$CARGO_TARGET_DIR (default .bench_build); each workload's scratch files
go to <target>/perfbench-work/<workload>. Build logs go to stderr; the
last line of stdout is the benchmark's JSON result.
"""

import os
import subprocess
import sys

# Release binaries of the program the workloads drive.
PROGRAM_BINS = [
    ("ramp-bench", "all_experiments"),
    ("ramp-serve", "ramp-served"),
    ("ramp-serve", "ramp-router"),
]


def main():
    root = os.getcwd()
    for need in ("Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(root, need)):
            sys.exit(f"perfbench: {need} not found; run from the root of a checkout")
    args = sys.argv[1:]
    if "--workload" not in args:
        sys.exit("perfbench: usage: run.py --workload W --seed N --seconds S --trace 0|1")
    workload = args[args.index("--workload") + 1] if args.index("--workload") + 1 < len(args) else ""
    if workload not in ("sim_single", "figures", "serve_warm"):
        sys.exit(f"perfbench: unknown workload {workload!r}")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    program = ["cargo", "build", "--release", "--offline", "--quiet"]
    for package, binary in PROGRAM_BINS:
        program += ["-p", package, "--bin", binary]
    bench = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    for cmd in (program, bench):
        built = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")

    bin_dir = os.path.join(target, "release")
    work_dir = os.path.join(target, "perfbench-work", workload)
    run = subprocess.run(
        [os.path.join(bin_dir, "perfbench"), *args, "--bin-dir", bin_dir, "--work-dir", work_dir],
        env=env,
    )
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
