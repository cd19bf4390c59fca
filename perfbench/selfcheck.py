#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selfcheck.py [--seconds S] [--seed N]

Run it from the repository root. It checks that the per-layer table of
perfbench/config.json names the per-layer metrics of BENCHMARK.json.
Then it runs a short traced run of every workload twice with one seed
and asserts that both runs are correct, ran the same op sequence,
produced the same output digests, and read the same value for every
count the table marks exact. Exits 1 on any difference.
"""

import argparse
import json
import subprocess
import sys


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, check=True,
    ).stdout.decode().splitlines()
    return json.loads(out[-2])["raw"], json.loads(out[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=int, default=4)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    problems = []

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open("perfbench/config.json") as f:
        recorded = json.load(f)
    table = [m["name"] for m in recorded["per_layer"]]
    if table != [m["name"] for m in bench["per_layer"]]:
        problems.append("config.json per_layer names differ from BENCHMARK.json")
    exact = [m["name"] for m in recorded["per_layer"] if m["exact"]]

    for w in bench["workloads"]:
        name = w["name"]
        (raw1, res1), (raw2, res2) = (run(name, args.seed, args.seconds)
                                      for _ in range(2))
        for i, res in ((1, res1), (2, res2)):
            if not res["correct"] or res["failed"]:
                problems.append("%s run %d: %d of %d ops failed"
                                % (name, i, res["failed"], res["attempted"]))
        for key in ("sequence", "outputs"):
            if not raw1[key] or raw1[key] != raw2[key]:
                problems.append("%s: %s digest differs between runs" % (name, key))
        for m in exact:
            a, b = res1["metrics"][m]["value"], res2["metrics"][m]["value"]
            if a != b:
                problems.append("%s: exact count %s reads %r then %r" % (name, m, a, b))
        print("%s: %d exact counts compared" % (name, len(exact)), file=sys.stderr)

    for p in problems:
        print("selfcheck: " + p, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
