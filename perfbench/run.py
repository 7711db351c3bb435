#!/usr/bin/env python3
"""Builds the SENS-Join benchmark from this checkout and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). The last line of standard output is the
benchmark's JSON result; the exit code is non-zero when the build fails, an
operation fails its output check, or the run cannot complete. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-mix", "field-sparse", "service-shared", "field-lossy")
BUILD_JOBS = 4
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"),
        "perfbench")


def build():
    """Configures and builds the benchmark; returns the binary path."""
    out = build_dir()
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(BUILD_JOBS),
                    "--target", "perfbench"], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def run_binary(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    """The JSON result on the last line, or None."""
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def digest_of(lines):
    for line in lines:
        m = re.match(r"sim digest ([0-9a-f]+)", line)
        if m:
            return m.group(1)
    return None


def self_test(binary):
    """Checks that the benchmark's gates cannot pass vacuously."""
    problems = []
    declared = {}
    manifest = os.path.join(HERE, "..", "BENCHMARK.json")
    if os.path.exists(manifest):
        with open(manifest) as f:
            spec = json.load(f)
        declared = {"0": {m["name"] for m in spec["end_to_end"]},
                    "1": {m["name"] for m in spec["per_layer"]}}

    for workload in WORKLOADS:
        digests = {}
        for trace in ("0", "1"):
            code, lines = run_binary(binary, [
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace])
            result = result_of(lines)
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{workload} trace {trace}: exit {code}")
                continue
            digests[trace] = digest_of(lines)
            names = set(result["metrics"])
            if declared and names != declared[trace]:
                problems.append(f"{workload} trace {trace}: metrics differ from "
                                f"BENCHMARK.json: {names ^ declared[trace]}")
        if len(digests) == 2 and digests["0"] != digests["1"]:
            problems.append(f"{workload}: simulated metrics differ between "
                            f"the traced and untraced runs")

    for workload in WORKLOADS:
        # A wrong reference row must be caught and fail the run.
        code, lines = run_binary(binary, [
            "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", "0", "--max-ops", "3", "--corrupt-reference"])
        result = result_of(lines)
        if code == 0 or result is None or result["failed"] == 0 or \
                result["metrics"]["ok_op_share"]["value"] >= 1.0:
            problems.append(f"{workload}: a wrong reference row went unnoticed")

    # A run that completes no operation must fail rather than report.
    code, lines = run_binary(binary, [
        "--workload", "paper-mix", "--seed", "7", "--seconds", "1",
        "--trace", "0", "--max-ops", "0"])
    if code == 0 or result_of(lines) is not None:
        problems.append("a run with zero operations reported a result")

    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(binary)

    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans-out", os.path.join(
            build_dir(), f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        code, lines = run_binary(binary, cmd)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
