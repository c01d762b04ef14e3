#!/usr/bin/env python3
"""Build and run the MC^3 end-to-end benchmark.

Run from the root of a checkout:

    python3 mc3bench/run.py --workload mc3-real20 --seed 1 --seconds 20 --trace 0

The first run configures and builds the library and the benchmark binary
under $CARGO_TARGET_DIR (default .bench_build) with CMake; later runs only
re-check the build. The binary's stdout is passed through; its last line is
the JSON result. A copy of the result, stamped with the host, compiler, git
SHA, seed and data shape, goes to <build>/mc3bench/results/, and with
--trace 1 the span trace goes next to it.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"mc3bench: {msg}", file=sys.stderr)
    sys.exit(code)


def git_sha():
    # Only ask git when the checkout itself is a repository: without .git,
    # git would search the parent directories.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "mc3bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "mc3bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    # The benchmark builds the library from the surrounding checkout.
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"{need} not found under {ROOT}: mc3bench must run inside "
                 "a checkout of the library")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "mc3bench")
    binary = build(build_dir)

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--data-dir", os.path.join(HERE, "data"),
           "--out", stem + ".json", "--git-sha", git_sha()]
    if args.trace == "1":
        cmd += ["--spans", stem + ".spans.json"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode}", proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line", 1)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
