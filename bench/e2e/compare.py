#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results.

    bench/e2e/compare.py A B

A and B are each a bench/e2e/out/results.json file, a single-workload
bench/e2e/out/<workload>.json file, or a directory of such files (for
example ten runs with different seeds). For every (workload, metric)
present on both sides it prints each side's median and quartiles, then the
move of B's median against A's. With several runs on a side the statistics
are over the runs' reported values; with one run they are over its samples
(one per timed rep, or per set-up batch), and the median is the reported
value itself. End-to-end metrics are judged against the bound in
BENCHMARK.json:

  REGRESSION  B is worse than A by more than the bound
  improved    B is better than A by more than the bound
  unresolved  either side's quartile spread exceeds the bound
  ok          the move stays inside the bound

Per-layer metrics have no bound. For every seed run on both sides, a
per-layer count that differs is marked "changed" and a differing outcome
fingerprint is reported: simulated results must not move when only host
code changes. The exit status is 1 on any regression or fingerprint
difference, else 0.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load(path):
    """Returns {workload: [run, ...]} from a file or a directory of files."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    runs = {}
    for name in files:
        with open(name) as handle:
            data = json.load(handle)
        for run in data["workloads"] if "workloads" in data else [data]:
            runs.setdefault(run["workload"], []).append(run)
    return runs


def describe(runs, name):
    """Returns (median, q1, q3) of one metric on one side."""
    metrics = [run["metrics"][name] for run in runs]
    if len(metrics) == 1:
        values = metrics[0]["samples"]
        median = metrics[0]["value"]
    else:
        values = [metric["value"] for metric in metrics]
        median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def by_seed(runs, name):
    return {run["seed"]: run["metrics"][name]["value"] for run in runs}


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(BENCHMARK) as handle:
        bounds = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    side_a, side_b = load(argv[1]), load(argv[2])

    failed = False
    row = "%-16s %-34s %-36s %-36s %8s  %s"
    print(row % ("workload", "metric", "A median [q1, q3]",
                 "B median [q1, q3]", "move", "status"))
    for workload, runs_a in side_a.items():
        runs_b = side_b.get(workload)
        if runs_b is None:
            continue
        prints_a = {run["seed"]: run["fingerprint"] for run in runs_a}
        for run in runs_b:
            pinned = prints_a.get(run["seed"])
            if pinned is not None and pinned != run["fingerprint"]:
                print("%s: fingerprint differs\n  A %s\n  B %s" % (
                    workload, pinned, run["fingerprint"]))
                failed = True
        names = [name for name in runs_a[0]["metrics"]
                 if all(name in run["metrics"] for run in runs_a + runs_b)]
        for name in names:
            med_a, q1_a, q3_a = describe(runs_a, name)
            med_b, q1_b, q3_b = describe(runs_b, name)
            move = (med_b - med_a) / abs(med_a) if med_a else 0.0
            status = ""
            bound = bounds.get(name)
            if bound is not None:
                limit = bound["bound"]
                worse = move if bound["better"] == "lower" else -move
                spread = max((q3_a - q1_a) / abs(med_a) if med_a else 0.0,
                             (q3_b - q1_b) / abs(med_b) if med_b else 0.0)
                if spread > limit:
                    status = "unresolved"
                elif worse > limit:
                    status = "REGRESSION"
                    failed = True
                elif -worse > limit:
                    status = "improved"
                else:
                    status = "ok"
            elif runs_a[0]["metrics"][name]["unit"] == "count":
                values_a = by_seed(runs_a, name)
                values_b = by_seed(runs_b, name)
                if any(values_a[seed] != values_b[seed]
                       for seed in values_a.keys() & values_b.keys()):
                    status = "changed"
            unit = runs_a[0]["metrics"][name]["unit"]
            print(row % (workload, name,
                         "%.6g [%.6g, %.6g] %s" % (med_a, q1_a, q3_a, unit),
                         "%.6g [%.6g, %.6g] %s" % (med_b, q1_b, q3_b, unit),
                         "%+.2f%%" % (move * 100), status))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
