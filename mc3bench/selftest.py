#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 mc3bench/selftest.py [workload ...]

For each workload (default: all three):
  * non-perturbation: in a --trace 1 run, the traced lane (backend wrapped in
    TimingBackend) prints the same cold-chain lnL trajectory hash as the
    untraced lane, and the run reports correct;
  * span accounting: the self times of the traced lane's spans add up to its
    wall time within 2%, and the backend spans add up to the seconds the
    backend tally counted (the run also checks that every span lies within
    its parent and reports incorrect otherwise);
  * determinism: two --trace 0 runs on one seed print the same trajectory
    hash, equal to the untraced lane's hash of the traced run.
Then it checks that run.py fails without printing a result when only
BENCHMARK.json and mc3bench/ are present. Takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mc3-real20", "mc3-fixedtopo20", "mc3-sample8"]
SEED = 7


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    lines = proc.stdout.strip().split("\n")
    stamp = next(json.loads(l)["stamp"] for l in lines
                 if l.startswith('{"stamp"'))
    return stamp, json.loads(lines[-1])


def check(cond, msg, failures):
    print(("ok   " if cond else "FAIL ") + msg)
    if not cond:
        failures.append(msg)


def test_workload(w, failures):
    stamp, result = run(w, 1)
    lanes = stamp["lanes"]
    check(result["correct"] and result["failed"] == 0,
          f"{w}: traced run correct, 0 of {result['attempted']} failed",
          failures)
    check(lanes["traced"]["hash"] == lanes["untraced"]["hash"],
          f"{w}: traced hash {lanes['traced']['hash']} == untraced "
          f"{lanes['untraced']['hash']}", failures)
    cov = result["metrics"]["trace.span_coverage"]["value"]
    check(abs(cov - 1.0) <= 0.02, f"{w}: span self times / wall = {cov:.4f}",
          failures)
    span_s, tally_s = stamp["backend_span_s"], stamp["backend_tally_s"]
    check(tally_s > 0 and abs(span_s - tally_s) <= 1e-6 * tally_s,
          f"{w}: backend spans {span_s:.6f} s == tally {tally_s:.6f} s",
          failures)
    hashes = [run(w, 0)[0]["trajectory_hash"] for _ in range(2)]
    check(hashes[0] == hashes[1] == lanes["untraced"]["hash"],
          f"{w}: trajectory hash repeats across runs ({hashes})", failures)


def test_bare_directory(failures):
    # Only the benchmark's own files: run.py must refuse, not print a result.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "mc3bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "mc3bench/run.py", "--workload", "mc3-sample8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and proc.stdout == "",
          f"bare directory: exit {proc.returncode}, no result printed",
          failures)


def main():
    failures = []
    for w in sys.argv[1:] or WORKLOADS:
        test_workload(w, failures)
    test_bare_directory(failures)
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
