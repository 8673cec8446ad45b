#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Runs every workload of BENCHMARK.json at tiny sizes, untraced and traced, and asserts that
each run exits 0, that every correctness check passed, and that every metric named in
BENCHMARK.json is printed with its unit. Then checks that the benchmark refuses to run
from a directory holding only BENCHMARK.json and perfbench/. Run from the checkout root:

    python3 perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, cwd=ROOT):
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if result.returncode != 0:
                failures.append(f"{label}: exit {result.returncode}\n{result.stderr[-2000:]}")
                continue
            out = json.loads(result.stdout.strip().split("\n")[-1])
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(out)}")
            if out["correct"] is not True or out["attempted"] < 1:
                failures.append(f"{label}: correct={out['correct']} attempted={out['attempted']}")
            for metric in bench[section]:
                got = out["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    failures.append(f"{label}: metric {metric['name']} [{metric['unit']}]: {got}")
            checks = [line for line in result.stdout.split("\n") if line.startswith("check ok")]
            print(f"ok   {label}: {len(out['metrics'])} metrics, {len(checks)} checks passed")

    # Without the repository's sources the benchmark must fail without a result.
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".selftest-") as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        result = run(bench["workloads"][0]["name"], 0, cwd=bare)
        if result.returncode == 0 or '"metrics"' in result.stdout:
            failures.append("a directory with only the benchmark's files produced a result")
        else:
            print(f"ok   bare directory: exit {result.returncode}, no result line")

    for failure in failures:
        print(f"FAIL {failure}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
