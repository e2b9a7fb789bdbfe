#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first form builds the engine and the benchmark from source (release
profile, into $CARGO_TARGET_DIR or .bench_build), runs one workload, and
passes the benchmark's stdout through: notes for people, then one JSON
result line. The second runs the benchmark's own unit tests and checks
that the metrics it reports are exactly those BENCHMARK.json names.
See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_rev():
    """The git commit, or 'unknown' outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def build(env):
    """Build the benchmark and the isolated designs' worker binary."""
    if not (
        os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
        and os.path.isdir(os.path.join(ROOT, "crates"))
    ):
        fail("the engine's sources (Cargo.toml, crates/) are not here; nothing to build")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "jaguar-udf", "--bin", "jaguar-worker"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        # Build output goes to stderr so stdout ends with the result line.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 3)


def environment():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env["CARGO_TARGET_DIR"] = target
    env["JAGUAR_WORKER_BIN"] = os.path.join(target, "release", "jaguar-worker")
    return env, os.path.join(target, "release", "jaguar-perfbench")


def check_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the last line of the benchmark's output is not JSON", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}", 1)


def run(args):
    env, binary = environment()
    build(env)
    env["PERFBENCH_REV"] = source_rev()
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed % 2**64),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", os.path.join(ROOT, ".bench_out"),
    ]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stderr or "")
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(done.stderr)
    sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"the benchmark exited with code {done.returncode}", 1)
    check_result(lines[-1])


def self_test():
    env, binary = environment()
    build(env)
    tests = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        cwd=ROOT,
        env=env,
    )
    if tests.returncode != 0:
        fail("the benchmark's unit tests failed", 1)
    listed = json.loads(
        subprocess.run([binary, "--list-metrics"], env=env, capture_output=True, text=True,
                       check=True).stdout
    )
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for key in ("end_to_end", "per_layer"):
        want = [[m["name"], m["unit"]] for m in spec[key]]
        if listed[key] != want:
            fail(f"BENCHMARK.json {key} differs from what the benchmark reports:\n"
                 f"  BENCHMARK.json: {want}\n  benchmark:      {listed[key]}", 1)
    print("self-test passed: unit tests, and every metric named with its unit")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    elif None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    else:
        run(args)


if __name__ == "__main__":
    main()
