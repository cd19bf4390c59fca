#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/pb.exe and
bin/cachierd.exe with dune, runs the workload, and prints the result as
the last line of stdout: one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With --trace 0 the metrics are the end-to-end
metrics of BENCHMARK.json; with --trace 1 they are its per-layer metrics,
where the metrics of layers the workload does not exercise read 0. The
line before it holds the raw (not host-normalised) values.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

# The whole command must end within 180 s once built.
RUN_TIMEOUT_S = 160


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    dune = shutil.which("dune")
    if not dune:
        fail("dune not found on PATH")
    result = subprocess.run(
        [dune, "build", "--root", ".", "--cache=disabled",
         "./perfbench/pb.exe", "./bin/cachierd.exe"],
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        fail("build failed")


def run_workload(argv):
    """Run pb.exe in its own process group, so a timeout also stops the
    cachierd child it may have started. PERFBENCH_SPAWN_NS tells it when
    it was spawned (CLOCK_MONOTONIC), the origin of its set-up time."""
    env = dict(os.environ, PERFBENCH_SPAWN_NS=str(time.monotonic_ns()))
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, start_new_session=True,
                            env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("workload exited with code %d" % proc.returncode)
    return out.decode().splitlines()


def complete(result, spec, trace):
    """Check the metric names and units against BENCHMARK.json; in a
    traced run, fill in the layers this workload does not exercise."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    unknown = sorted(set(got) - set(units))
    if unknown:
        fail("metrics not in BENCHMARK.json: " + ", ".join(unknown))
    for name, m in got.items():
        if m["unit"] != units[name]:
            fail("metric %s has unit %s, not %s" % (name, m["unit"], units[name]))
    missing = [n for n in units if n not in got]
    if missing and not trace:
        fail("end-to-end metrics missing: " + ", ".join(missing))
    result["metrics"] = {
        n: got.get(n, {"value": 0.0, "unit": units[n]}) for n in units
    }
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    for path in ("BENCHMARK.json", "dune-project", "lib", "bin/cachierd.ml"):
        if not os.path.exists(path):
            fail("run from the repository root (%s is missing)" % path)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    build()
    lines = run_workload(
        [
            os.path.join("_build", "default", "perfbench", "pb.exe"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
    )
    if not lines:
        fail("workload printed no result")
    result = complete(json.loads(lines[-1]), spec, args.trace == 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")))


if __name__ == "__main__":
    main()
