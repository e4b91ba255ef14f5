#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 cfsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

On first use this configures and builds cfsbench/ (which compiles the
repository's src/ as a subproject) under .bench_build/, or under
$CARGO_TARGET_DIR when set. Every run then executes the helper self-test
and the workload binary, relays the binary's output, and checks that the
result line carries exactly the metrics BENCHMARK.json names for the mode.
The last line of standard output is the result JSON. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    print(f"cfsbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_to_stderr(command):
    """Run a build step, keeping stdout free for the result line."""
    done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"{' '.join(command)} exited with {done.returncode}")


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("src/ is missing: run from a full checkout of the repository")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (build_dir / "CMakeCache.txt").is_file():
        run_to_stderr(["cmake", "-S", str(HERE), "-B", str(build_dir),
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run_to_stderr(["cmake", "--build", str(build_dir), "-j", jobs,
                   "--target", "cfsbench", "cfsbench_stats_test"])
    run_to_stderr([str(build_dir / "cfsbench_stats_test")])


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the benchmark printed no result line", 5)
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail(f"malformed result line: {line}", 5)
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != expected_metrics(trace):
        fail("printed metrics differ from BENCHMARK.json", 5)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    build_dir = base / "cmake"
    build(build_dir)

    command = [str(build_dir / "cfsbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(base / "run")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s", 6)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"workload exited with {done.returncode}", done.returncode)
    check_result(lines[-1], args.trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
