#!/usr/bin/env python3
"""Repository benchmark: builds the harness and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <cover-rr100k|growth-rr1m|serve-zipf> \
        --seed N --seconds S --trace <0|1> [--tiny]

The harness is the Rust package in perfbench/harness, built from the repository's own
crates into $CARGO_TARGET_DIR (default .bench_build). --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer ones; --tiny shrinks every instance (self-test only).
The last line of standard output is the JSON result. The exit code is non-zero when the
build fails, a correctness check fails or a metric named in BENCHMARK.json is missing.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join("perfbench", "harness", "Cargo.toml")
WORKLOADS = ("cover-rr100k", "growth-rr1m", "serve-zipf")
# Every run must end within 180 s; leave room for start-up and the result line.
DEADLINE_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def build(target_dir):
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the repository's crates/ are missing; run from the root of a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", MANIFEST],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if result.returncode != 0:
        fail(f"building the harness failed (exit {result.returncode})")
    return os.path.join(target_dir, "release", "perfbench-harness")


def main():
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    trace = args.trace == "1"

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    binary = build(target_dir)
    spans = os.path.join(target_dir, "perfbench", f"spans-{args.workload}-{args.seed}.ndjson")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--spans", spans]
    if args.tiny:
        command.append("--tiny")
    # Two glibc malloc arenas: with one per thread, which arenas freed memory happens to stay
    # in moves peak RSS by a third from run to run; with two it tracks live memory.
    env = dict(os.environ, MALLOC_ARENA_MAX="2")
    # The build may take long on a fresh checkout; the run itself gets a fixed allowance.
    try:
        result = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                                timeout=DEADLINE_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {DEADLINE_S} s")
    lines = result.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if result.returncode != 0:
        fail(f"{args.workload} exited with {result.returncode}: {lines[-1] if lines else ''}")
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"no JSON result line: {lines[-1]!r}")
    expected = expected_metrics(trace)
    for name, unit in expected.items():
        metric = out["metrics"].get(name)
        if metric is None or metric["unit"] != unit or not isinstance(metric["value"], (int, float)):
            fail(f"metric {name} [{unit}] missing or not a number: {metric}")
    out["metrics"] = {name: out["metrics"][name] for name in expected}
    if not out["correct"]:
        fail("a correctness check failed")
    print(f"perfbench: {args.workload} took {time.monotonic() - started:.1f} s", file=sys.stderr)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
