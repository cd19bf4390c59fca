#!/usr/bin/env python3
"""Smoke-test the cachierd service, over stdio and over its socket mode.

Stdio: starts the server, issues the same simulate request twice, and
checks that the second answer is a cache hit with a byte-identical
payload and at least 10x lower latency, that the artifact cache warms
the annotate path too (on a 4-node and on a 16-node machine), and that
a shutdown request terminates the server gracefully.

Socket: starts the server with two event-loop listener shards on a
Unix-domain socket, replays the same checks over a connection whose
writes are split at awkward byte boundaries (exercising the incremental
framing), then sends SIGTERM and requires a graceful exit (code 0, the
socket file removed).

Usage: cachierd_smoke.py [SERVER_BINARY...] [--stdio-only | --socket-only]
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

REQUESTS = [
    {"id": 1, "op": "simulate", "bench": "matmul", "nodes": 4},
    {"id": 2, "op": "simulate", "bench": "matmul", "nodes": 4},
    {"id": 3, "op": "annotate", "bench": "matmul", "nodes": 4},
    {"id": 4, "op": "annotate", "bench": "matmul", "nodes": 4},
    {"id": 5, "op": "stats"},
    {"id": 6, "op": "shutdown"},
]

# The stdio run also repeats an annotate at 16 simulated nodes, so the
# large-machine path is driven through the real binary.
LARGE = [
    {"id": 7, "op": "annotate", "bench": "matmul", "nodes": 16},
    {"id": 8, "op": "annotate", "bench": "matmul", "nodes": 16},
]

PAIRS = [(1, 2, "simulate"), (3, 4, "annotate")]
LARGE_PAIRS = [(7, 8, "annotate n16")]


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_responses(by_id, requests, mode, pairs):
    for req in requests:
        if req["id"] not in by_id:
            fail(f"{mode}: no response for id {req['id']}")
    for rid, resp in by_id.items():
        if "error" in resp:
            fail(f"{mode}: id {rid}: {resp['error']}: {resp.get('message')}")

    for cold_id, warm_id, op in pairs:
        cold, warm = by_id[cold_id], by_id[warm_id]
        if cold["cached"]:
            fail(f"{mode}: {op}: first request was already cached")
        if not warm["cached"]:
            fail(f"{mode}: {op}: repeated request missed the cache")
        if warm["payload"] != cold["payload"]:
            fail(f"{mode}: {op}: warm payload differs from cold")
        if warm["elapsed_us"] * 10 > cold["elapsed_us"]:
            fail(
                f"{mode}: {op}: warm not >=10x faster "
                f"(cold {cold['elapsed_us']}us, warm {warm['elapsed_us']}us)"
            )
        print(
            f"ok [{mode}]: {op} cold {cold['elapsed_us']}us, "
            f"warm hit {warm['elapsed_us']}us, payloads identical"
        )

    stats = by_id[5]["stats"]
    if "requests" not in stats or "hits" not in stats:
        fail(f"{mode}: malformed stats response: {stats}")
    print(f"ok [{mode}]: stats well-formed (requests={stats['requests']})")


def smoke_stdio(server):
    # One worker: all requests arrive in one burst, and a single worker
    # drains them FIFO, so the repeated request deterministically finds
    # the artifact its predecessor cached.
    requests = REQUESTS[:4] + LARGE + REQUESTS[4:]
    proc = subprocess.run(
        server + ["--workers", "1"],
        input="".join(json.dumps(r) + "\n" for r in requests),
        capture_output=True,
        text=True,
        timeout=300,
    )
    if proc.returncode != 0:
        fail(f"stdio: server exited {proc.returncode}: {proc.stderr}")

    by_id = {}
    for line in proc.stdout.splitlines():
        if line.strip():
            resp = json.loads(line)
            by_id[resp["id"]] = resp
    check_responses(by_id, requests, "stdio", PAIRS + LARGE_PAIRS)
    print("ok [stdio]: graceful shutdown (exit 0)")


def smoke_socket(server):
    path = os.path.join(
        tempfile.gettempdir(), f"cachierd_smoke_{os.getpid()}.sock"
    )
    proc = subprocess.Popen(
        server + ["--socket", path, "--listeners", "2", "--workers", "1"],
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.time() + 30
        while not os.path.exists(path):
            if time.time() > deadline:
                fail("socket: server never bound its socket")
            if proc.poll() is not None:
                fail(f"socket: server exited early: {proc.stderr.read()}")
            time.sleep(0.05)

        # the cold requests (1, 3) go first and are awaited, so the
        # repeats (2, 4) are genuine artifact-cache hits rather than
        # single-flight followers of a still-running leader; every write
        # is split at awkward byte boundaries so a correct response can
        # only come from the server's incremental framing
        by_id = {}
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(path)
            sock.settimeout(120)

            def send_chunked(reqs):
                wire = "".join(json.dumps(r) + "\n" for r in reqs).encode()
                for i in range(0, len(wire), 7):
                    sock.sendall(wire[i : i + 7])
                    if i < 35:
                        time.sleep(0.01)

            buf = b""

            def read_until(count):
                nonlocal buf
                while len(by_id) < count:
                    chunk = sock.recv(65536)
                    if not chunk:
                        fail("socket: server closed the connection early")
                    buf += chunk
                    while b"\n" in buf:
                        line, buf = buf.split(b"\n", 1)
                        if line.strip():
                            resp = json.loads(line)
                            by_id[resp["id"]] = resp

            send_chunked([REQUESTS[0], REQUESTS[2]])
            read_until(2)
            send_chunked([REQUESTS[1], REQUESTS[3], REQUESTS[4]])
            read_until(5)
        check_responses(by_id, REQUESTS[:-1], "socket", PAIRS)

        # graceful SIGTERM: drain, remove the socket file, exit 0
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            fail("socket: server did not exit within 60s of SIGTERM")
        if code != 0:
            fail(f"socket: server exited {code} on SIGTERM")
        if os.path.exists(path):
            fail("socket: socket file left behind after shutdown")
        print("ok [socket]: SIGTERM drained and exited 0, socket removed")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if os.path.exists(path):
            os.unlink(path)


def main():
    args = sys.argv[1:]
    stdio_only = "--stdio-only" in args
    socket_only = "--socket-only" in args
    server = [a for a in args if a not in ("--stdio-only", "--socket-only")]
    server = server or ["_build/default/bin/cachierd.exe"]

    if not socket_only:
        smoke_stdio(server)
    if not stdio_only:
        smoke_socket(server)


if __name__ == "__main__":
    main()
