#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The program and the benchmark binary are
built with CMake into $CARGO_TARGET_DIR (default .bench_build) on first use.
The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". With --trace 0 the metrics
are the end_to_end metrics of BENCHMARK.json; with --trace 1 they are its
per_layer metrics: the workload is run untraced and then traced with the
same seed, and each overhead.<metric> is the traced minus the untraced
value of an end-to-end metric. A metric of a layer the workload does not
call reads 0.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_row", "serve_hot", "serve_refresh", "ingest")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def run_binary(binary, args, trace):
    """Runs one workload; returns (summary lines, result dict)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--out", os.path.join(ROOT, ".bench_out")]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        log(done.stderr[-4000:])
        raise RuntimeError("perfbench exited with %d" % done.returncode)
    lines = done.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def select(result, names):
    metrics = result["metrics"]
    return {name: {"value": metrics[name]["value"] if name in metrics else 0.0,
                   "unit": unit}
            for name, unit in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]

    binary = build()
    if binary is None:
        return 1
    summary, plain = run_binary(binary, args, trace=False)
    missing = [n for n, _ in end_to_end if n not in plain["metrics"]]
    if missing:
        log("perfbench: missing end-to-end metrics: " + ", ".join(missing))
        return 1
    result = plain
    if args.trace:
        summary, traced = run_binary(binary, args, trace=True)
        known = {n for n, _ in end_to_end + per_layer}
        extra = [n for n in traced["metrics"] if n not in known]
        if extra:
            log("perfbench: metrics not in BENCHMARK.json: " + ", ".join(extra))
            return 1
        for name, _ in end_to_end:
            traced["metrics"]["overhead." + name] = {
                "value": traced["metrics"][name]["value"]
                - plain["metrics"][name]["value"]}
        traced["correct"] = traced["correct"] and plain["correct"]
        result = traced
    metrics = select(result, per_layer if args.trace else end_to_end)
    for line in summary:
        print(line)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
