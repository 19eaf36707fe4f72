#!/usr/bin/env python3
"""Steadiness check: runs every workload in two separate sets of runs.

    python3 perfbench/steady.py [--runs N] [--workloads a,b] [--seconds S]

Set A uses seeds 1..N and set B seeds 101..100+N. For every pairing of
end-to-end metric and workload it prints each set's median and quartiles,
the spread (interquartile distance over the median), the spread over all
2N runs, and whether the two sets agree: each spread stays within the
metric's bound, set B's median is not worse than set A's
by more than the bound, and the share of failed operations is the same in
both sets. Raw results go to .bench_out/steady.json. Exits 1 if any
pairing disagrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        raise RuntimeError("%s seed %d exited with %d" %
                           (workload, seed, done.returncode))
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    sets = {}
    for label, first in (("A", 1), ("B", 101)):
        for w in workloads:
            sets[label, w] = [run(w, first + i, args.seconds)
                              for i in range(args.runs)]
            print("set %s %-14s done" % (label, w), file=sys.stderr,
                  flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steady.json"), "w") as f:
        json.dump({"%s/%s" % k: v for k, v in sets.items()}, f, indent=1)

    all_ok = True
    print("%-14s %-17s %5s  %-38s %-38s %-6s %s" %
          ("workload", "metric", "bound", "set A median [q1, q3] spread",
           "set B median [q1, q3] spread", "all", "agree"))
    for w in workloads:
        a_runs, b_runs = sets["A", w], sets["B", w]
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = summary([r["metrics"][name]["value"] for r in a_runs])
            b = summary([r["metrics"][name]["value"] for r in b_runs])
            both = summary([r["metrics"][name]["value"]
                            for r in a_runs + b_runs])
            worse = (b[0] - a[0]) / a[0]
            if m["better"] == "higher":
                worse = -worse
            ok = worse <= bound and max(a[3], b[3], both[3]) <= bound
            all_ok = all_ok and ok
            fmt = "%.5g [%.5g, %.5g] %.3f"
            print("%-14s %-17s %5.2f  %-38s %-38s %-6.3f %s" %
                  (w, name, bound, fmt % a, fmt % b, both[3],
                   "yes" if ok else "NO"))
        share = [sum(r["failed"] for r in runs) / sum(r["attempted"]
                                                       for r in runs)
                 for runs in (a_runs, b_runs)]
        correct = all(r["correct"] for r in a_runs + b_runs)
        ok = share[0] == share[1] and correct
        all_ok = all_ok and ok
        print("%-14s %-17s %5s  failed share %.6f / %.6f, all correct: %s  %s"
              % (w, "failed", "", share[0], share[1], correct,
                 "yes" if ok else "NO"))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
