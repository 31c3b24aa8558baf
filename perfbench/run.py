#!/usr/bin/env python3
"""Build and run the dmsim benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a dmsim checkout. The first run configures and builds
the dmsim library plus the perfbench binary (Release) under the build
directory: $CARGO_TARGET_DIR when set, else .bench_build. Later runs only
re-check the build. Build output goes to stderr; stdout carries the binary's
report, whose last line is the JSON result. The output digests pinned in
manifest.json are passed to the binary, which fails the run on a mismatch.
Temporary files (snapshots) live in a per-run directory under the build
directory and are removed on exit; a traced run's spans are kept in
<build>/traces/.

Exit status: 0 when a result was printed, non-zero otherwise (bad
arguments, no dmsim sources next to this directory, build failure, benchmark
failure or timeout).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exa_week_dynamic", "cirne_grid_static", "whatif_serve")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_manifest():
    with open(HERE / "manifest.json", encoding="utf-8") as f:
        return json.load(f)


def pinned_args(manifest, workload):
    """--pinned SEED=HEX for each pinned seed, the default seed first."""
    pins = manifest["pinned_digests"][workload]
    default = str(manifest["seeds"]["default"])
    seeds = sorted(pins, key=lambda s: (s != default, int(s)))
    return [arg for s in seeds for arg in ("--pinned", f"{s}={pins[s]}")]


def build(build_dir):
    """Configure once, then (re)build the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no dmsim sources at {ROOT / 'src'}", 2)
    cmake_dir = build_dir / "perfbench"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    binary = cmake_dir / "perfbench"
    if not binary.is_file():
        fail(f"perfbench binary missing after build: {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    manifest = load_manifest()
    binary = build(build_dir)
    seed = args.seed if args.seed is not None else int(manifest["seeds"]["default"])

    work_dir = build_dir / f"work-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)] + pinned_args(manifest, args.workload)
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0:
        fail(f"perfbench exited with status {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail("perfbench printed no result line")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
