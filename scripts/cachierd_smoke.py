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

Delta, in both modes: an examples/programs file is annotated as inline
text, which makes it a delta base whose artifact id is the MD5 hex of
the text. The edit CI's Delta smoke makes (appending a comment) then
goes twice as annotate_delta: the first must report plan-reuse, the
second must be a cache hit with an identical payload. Appending after
the last item takes the splicer's full-parse path, so two more edits
take the paths an editor's edits take: the first int literal inside
the program's procedure that the server answers plan-reuse gets a
one-digit-longer value (an incremental splice), and the same literal
is edited again against that edit's artifact, a chained base. Both
must be plan-reuse, and each payload and report must be byte-identical
to cachier_cli --nodes 4 run cold on the edited text.

Errors, in both modes: with --queue-capacity 0 every work request is
refused. A malformed line must get bad_request with id 0, a simulate
request overloaded, and a following stats request must count one
request and one error of each kind. Over the socket the requests go
lock-step, so stats cannot be answered before the earlier bookings.

Usage: cachierd_smoke.py [SERVER_BINARY...] [--stdio-only | --socket-only]
The cold reference is the cachier_cli.exe next to SERVER_BINARY.
"""

import hashlib
import json
import os
import re
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

# The delta base; the examples are written for a 4-node grid.
DELTA_PROGRAM = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..",
    "examples",
    "programs",
    "jacobi.sm",
)
DELTA_EDIT = "\n// delta-smoke edit\n"
DELTA_ID = 9
CHAIN_ID = 100


def delta_requests():
    """The base annotate, then the same appended-comment edit twice."""
    with open(DELTA_PROGRAM, "rb") as f:
        raw = f.read()
    edit = {
        "op": "annotate_delta",
        "base": hashlib.md5(raw).hexdigest(),
        "start": len(raw),
        "len": 0,
        "text": DELTA_EDIT,
        "nodes": 4,
    }
    return [
        {"id": DELTA_ID, "op": "annotate", "source": raw.decode(), "nodes": 4},
        dict(edit, id=DELTA_ID + 1),
        dict(edit, id=DELTA_ID + 2),
    ]


# The mini-language's comments, numbers, identifiers and other
# characters, as its lexer splits them.
TOKEN = re.compile(
    r"//[^\n]*|/\*.*?\*/|\d+(?:\.(?!\.)\d*)?(?:[eE][-+]?\d+)?"
    r"|[A-Za-z_][A-Za-z0-9_]*|.",
    re.S,
)


def proc_int_literals(text):
    """(offset, literal) of each int literal inside a procedure body."""
    found, depth, in_proc = [], 0, False
    for m in TOKEN.finditer(text):
        tok = m.group()
        if tok == "proc" and depth == 0:
            in_proc = True
        elif tok == "{":
            depth += 1
        elif tok == "}":
            depth -= 1
            in_proc = in_proc and depth > 0
        elif in_proc and depth > 0 and tok.isdigit():
            found.append((m.start(), tok))
    return found


def cold_annotate(cli, text):
    """cachier_cli's stdout and stderr for a cold 4-node annotate."""
    with tempfile.NamedTemporaryFile("w", suffix=".sm", delete=False) as f:
        f.write(text)
    try:
        proc = subprocess.run(
            [cli, "--nodes", "4", "-f", f.name],
            capture_output=True, text=True, timeout=300,
        )
    finally:
        os.unlink(f.name)
    if proc.returncode != 0:
        fail(f"cachier_cli exited {proc.returncode}: {proc.stderr}")
    return proc.stdout, proc.stderr


def check_delta_chain(call, cli, mode, next_id):
    """The plan-reuse literal edit and the edit of that edit, against the
    base check_delta left annotated; [call] sends one request and returns
    its response."""
    with open(DELTA_PROGRAM, "rb") as f:
        text = f.read().decode()

    def edit(base, start, old, new):
        nonlocal next_id
        next_id += 1
        resp = call({
            "id": next_id, "op": "annotate_delta",
            "base": hashlib.md5(base.encode()).hexdigest(),
            "start": start, "len": len(old), "text": new, "nodes": 4,
        })
        if "error" in resp:
            fail(f"{mode}: delta id {next_id}: {resp['error']}: "
                 f"{resp.get('message')}")
        return resp, base[:start] + new + base[start + len(old):]

    for start, lit in proc_int_literals(text):
        first_text = str(int(lit) * 10 + 7)
        first, edited = edit(text, start, lit, first_text)
        if first.get("reuse") == "plan-reuse":
            break
    else:
        fail(f"{mode}: no int literal of {os.path.basename(DELTA_PROGRAM)} "
             "is answered plan-reuse")
    second, chained = edit(edited, start, first_text, str(int(lit) + 1))
    for name, resp, src in (("literal edit", first, edited),
                            ("edit of the edit", second, chained)):
        if resp.get("reuse") != "plan-reuse":
            fail(f"{mode}: {name}: reuse {resp.get('reuse')!r}, "
                 "expected 'plan-reuse'")
        if resp.get("artifact") != hashlib.md5(src.encode()).hexdigest():
            fail(f"{mode}: {name}: artifact is not the MD5 hex of the "
                 "edited text")
        payload, report = cold_annotate(cli, src)
        if resp["payload"] != payload:
            fail(f"{mode}: {name}: payload differs from cachier_cli")
        if resp["report"] != report:
            fail(f"{mode}: {name}: report differs from cachier_cli")
    print(f"ok [{mode}]: literal edit at byte {start} and its chained edit "
          "plan-reuse, payloads and reports = cachier_cli")


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


def check_delta(by_id, requests, mode):
    base, first, repeat = (by_id[r["id"]] for r in requests)
    for resp in (base, first, repeat):
        if "error" in resp:
            fail(f"{mode}: delta id {resp['id']}: {resp['error']}: "
                 f"{resp.get('message')}")
    if base.get("artifact") != requests[1]["base"]:
        fail(f"{mode}: annotate artifact {base.get('artifact')!r} is not "
             f"the MD5 hex of the text ({requests[1]['base']})")
    if first.get("reuse") != "plan-reuse":
        fail(f"{mode}: annotate_delta reuse {first.get('reuse')!r}, "
             "expected 'plan-reuse'")
    if first["cached"]:
        fail(f"{mode}: first annotate_delta was already cached")
    if not repeat["cached"]:
        fail(f"{mode}: repeated annotate_delta missed the cache")
    if repeat["payload"] != first["payload"]:
        fail(f"{mode}: repeated annotate_delta payload differs")
    print(f"ok [{mode}]: annotate_delta plan-reuse, repeat cached and "
          "identical")


def smoke_stdio(server, cli):
    # One worker: all requests but the shutdown arrive in one burst, and
    # a single worker drains them FIFO, so the repeated request
    # deterministically finds the artifact its predecessor cached. The
    # literal edits then go lock-step, and the shutdown last.
    delta = delta_requests()
    requests = REQUESTS[:4] + LARGE + delta + REQUESTS[4:]
    proc = subprocess.Popen(
        server + ["--workers", "1"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    by_id = {}

    def call(req):
        proc.stdin.write(json.dumps(req) + "\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            fail(f"stdio: server closed stdout: {proc.stderr.read()}")
        resp = json.loads(line)
        by_id[resp["id"]] = resp
        return resp

    try:
        proc.stdin.write("".join(json.dumps(r) + "\n" for r in requests[:-1]))
        proc.stdin.flush()
        for _ in requests[:-1]:
            line = proc.stdout.readline()
            if not line:
                fail(f"stdio: server closed stdout: {proc.stderr.read()}")
            resp = json.loads(line)
            by_id[resp["id"]] = resp
        check_delta(by_id, delta, "stdio")
        check_delta_chain(call, cli, "stdio", CHAIN_ID)
        call(requests[-1])
        _, err = proc.communicate(timeout=300)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        fail(f"stdio: server exited {proc.returncode}: {err}")
    check_responses(by_id, requests, "stdio", PAIRS + LARGE_PAIRS)
    print("ok [stdio]: graceful shutdown (exit 0)")


def smoke_socket(server, cli):
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
            # the delta requests go lock-step: each needs the artifact
            # the one before it cached
            delta = delta_requests()
            for i, req in enumerate(delta):
                send_chunked([req])
                read_until(6 + i)
            check_delta(by_id, delta, "socket")

            def call(req):
                send_chunked([req])
                read_until(len(by_id) + 1)
                return by_id[req["id"]]

            check_delta_chain(call, cli, "socket", CHAIN_ID)
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


ERROR_LINES = [
    "this is not json",
    json.dumps({"id": 1, "op": "simulate", "bench": "matmul", "nodes": 4}),
    json.dumps({"id": 2, "op": "stats"}),
    json.dumps({"id": 3, "op": "shutdown"}),
]


def check_error_booking(by_id, mode):
    for rid, kind in ((0, "bad_request"), (1, "overloaded")):
        if by_id.get(rid, {}).get("error") != kind:
            fail(f"{mode}: expected {kind} with id {rid}, got {by_id.get(rid)}")
    stats = by_id[2]["stats"]
    errors = {"bad_request": 1, "overloaded": 1}
    if stats["requests"] != 1 or stats["errors"] != errors:
        fail(
            f"{mode}: errors booked as requests={stats['requests']}, "
            f"errors={stats['errors']}; expected requests=1, errors={errors}"
        )
    print(f"ok [{mode}]: bad line and overload booked (requests=1, {errors})")


def smoke_errors_stdio(server):
    proc = subprocess.run(
        server + ["--queue-capacity", "0"],
        input="".join(line + "\n" for line in ERROR_LINES),
        capture_output=True,
        text=True,
        timeout=60,
    )
    if proc.returncode != 0:
        fail(f"stdio errors: server exited {proc.returncode}: {proc.stderr}")
    by_id = {}
    for line in proc.stdout.splitlines():
        if line.strip():
            resp = json.loads(line)
            by_id[resp["id"]] = resp
    check_error_booking(by_id, "stdio errors")


def smoke_errors_socket(server):
    path = os.path.join(
        tempfile.gettempdir(), f"cachierd_smoke_err_{os.getpid()}.sock"
    )
    proc = subprocess.Popen(
        server + ["--socket", path, "--queue-capacity", "0"],
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.time() + 30
        while not os.path.exists(path):
            if time.time() > deadline:
                fail("socket errors: server never bound its socket")
            if proc.poll() is not None:
                fail(f"socket errors: server exited early: {proc.stderr.read()}")
            time.sleep(0.05)
        by_id = {}
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(path)
            sock.settimeout(60)
            reader = sock.makefile("rb")
            for line in ERROR_LINES:
                sock.sendall((line + "\n").encode())
                reply = reader.readline()
                if not reply:
                    fail("socket errors: server closed the connection early")
                resp = json.loads(reply)
                by_id[resp["id"]] = resp
        check_error_booking(by_id, "socket errors")
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            fail("socket errors: server did not exit after shutdown")
        if code != 0:
            fail(f"socket errors: server exited {code} on shutdown")
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
    # the cold reference for the literal edits: the CLI built beside it
    cli = os.path.join(os.path.dirname(server[0]), "cachier_cli.exe")
    if not os.path.exists(cli):
        fail(f"{cli} not found: build bin/cachier_cli.exe too")

    if not socket_only:
        smoke_stdio(server, cli)
        smoke_errors_stdio(server)
    if not stdio_only:
        smoke_socket(server, cli)
        smoke_errors_socket(server)


if __name__ == "__main__":
    main()
