#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload <paper-suite|serve-open|serve-reuse>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The benchmark binary is configured and
built with CMake into $CARGO_TARGET_DIR (default .bench_build) on first use;
build output goes to stderr, so the last line of stdout is the JSON result.

BENCHMARK.json is the one list of metrics: the binary prints the metrics it
sets, and this script checks their names and units against it and emits the
result line with exactly the declared metrics of the run's kind (end_to_end
for --trace 0, per_layer for --trace 1). A per-layer metric a workload does
not exercise reads 0. The exit status is the binary's (0 = every output
passed the correctness gate); a metric BENCHMARK.json does not declare, a
unit that differs from it, or a missing end-to-end metric exits 2 without a
result line.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-suite", "serve-open", "serve-reuse")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return path


def build(out_dir):
    """Configures (once) and builds the binary; returns its path."""
    cmake_dir = os.path.join(out_dir, "perfbench")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "bigk_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(cmake_dir, "bigk_perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared_result(result, spec, trace):
    """Checks the binary's result against BENCHMARK.json; returns the result
    with exactly the declared metrics of the run's kind, in declared order."""
    units = {m["name"]: m["unit"]
             for key in ("end_to_end", "per_layer") for m in spec[key]}
    for name, metric in result["metrics"].items():
        if name not in units:
            raise ValueError(f"metric {name} is not declared in "
                             "BENCHMARK.json")
        if metric["unit"] != units[name]:
            raise ValueError(f"metric {name} is in {metric['unit']}, "
                             f"BENCHMARK.json says {units[name]}")
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = result["metrics"].get(m["name"])
        if value is None:
            if not trace:
                raise ValueError(f"end-to-end metric {m['name']} missing")
            value = {"value": 0, "unit": m["unit"]}
        metrics[m["name"]] = value
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"error: build failed: {error}", file=sys.stderr)
        return 2
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.splitlines()
    result_line = lines.pop() if lines and lines[-1].startswith("{") else None
    for line in lines:
        print(line)
    if result_line is None:
        return proc.returncode or 2
    try:
        result = declared_result(json.loads(result_line), load_spec(),
                                 args.trace)
    except (OSError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
