#!/usr/bin/env python3
"""Price the parallel engine against the compiled one at a fixed machine size.

For each Figure 6 program and each simulation mode (trace, perf), this
runs `simulate` with `--engine compiled` and with `--engine par
--domains DOMAINS` at NODES nodes on the same freshly seeded copy of
the program, RUNS times per engine with a new SEED each time, and
prints one markdown row per program and mode: the best process CPU
time (user+sys) and the best wall time of each engine, and the
par/compiled ratios. Both engines must print byte-identical reports; a
difference fails the script.

    python3 scripts/engine_routing.py

Run it from the repository root after `dune build`. The seeded sources
come from cachierd's `parse` op, so they are exactly what the service
would simulate for a `bench` request carrying that seed.
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
import time

PROGRAMS = ["matmul", "barnes", "tomcatv", "ocean", "mp3d"]
BUILD = "_build/default/bin"
FIRST_SEED = 101
NODES = 16
DOMAINS = 2
RUNS = 5


def seeded_sources(seeds):
    """{(program, seed): source text}, fetched in one cachierd session."""
    reqs = []
    for prog in PROGRAMS:
        for seed in seeds:
            reqs.append({"id": len(reqs), "op": "parse", "bench": prog,
                         "nodes": NODES, "seed": seed})
    reqs.append({"id": len(reqs), "op": "shutdown"})
    out = subprocess.run(
        [os.path.join(BUILD, "cachierd.exe"), "--workers", "1"],
        input="".join(json.dumps(r) + "\n" for r in reqs),
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    by_id = {r["id"]: r for r in map(json.loads, out.splitlines())}
    return {(r["bench"], r["seed"]): by_id[r["id"]]["payload"]
            for r in reqs[:-1]}


def timed(argv):
    """(stdout, cpu_ms, wall_ms) of one child process."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    out = subprocess.run(argv, stdout=subprocess.PIPE, check=True).stdout
    wall = time.monotonic() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return out, cpu * 1e3, wall * 1e3


def main():
    seeds = list(range(FIRST_SEED, FIRST_SEED + RUNS))
    sources = seeded_sources(seeds)
    engines = {
        "compiled": ["--engine", "compiled"],
        "par": ["--engine", "par", "--domains", str(DOMAINS)],
    }
    print(f"nodes {NODES}, par domains {DOMAINS}, best of {RUNS} runs "
          f"(seeds {seeds[0]}-{seeds[-1]}), nproc {os.cpu_count()}")
    print()
    print("| program | mode | compiled CPU ms | par CPU ms | CPU par/comp "
          "| compiled wall ms | par wall ms | wall par/comp |")
    print("|---|---|---:|---:|---:|---:|---:|---:|")
    with tempfile.TemporaryDirectory() as tmp:
        for prog in PROGRAMS:
            for mode, flags in [("trace", ["-t"]), ("perf", [])]:
                best = {e: [float("inf"), float("inf")] for e in engines}
                for i, seed in enumerate(seeds):
                    path = os.path.join(tmp, f"{prog}_{seed}.sm")
                    with open(path, "w") as f:
                        f.write(sources[(prog, seed)])
                    outs = {}
                    # alternate which engine goes first
                    order = list(engines) if i % 2 == 0 else list(engines)[::-1]
                    for e in order:
                        argv = [os.path.join(BUILD, "simulate.exe"), path,
                                "-n", str(NODES)] + flags + engines[e]
                        outs[e], cpu, wall = timed(argv)
                        best[e][0] = min(best[e][0], cpu)
                        best[e][1] = min(best[e][1], wall)
                    if outs["compiled"] != outs["par"]:
                        sys.exit(f"engine_routing: {prog} {mode} seed {seed}: "
                                 "par and compiled reports differ")
                (cc, cw), (pc, pw) = best["compiled"], best["par"]
                print(f"| {prog} | {mode} | {cc:.1f} | {pc:.1f} | "
                      f"{pc / cc:.2f} | {cw:.1f} | {pw:.1f} | {pw / cw:.2f} |")


if __name__ == "__main__":
    main()
