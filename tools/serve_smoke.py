#!/usr/bin/env python3
"""CI smoke for wydb_serve: drive a live server end to end.

Legs:
1. certify a deadlocking workload (full search, refuted, witness);
2. resubmit it with sites/entities/transactions renamed and reordered —
   must be an exact cache hit, observable in the stats counters, with
   the witness remapped onto the resubmission's own names;
3. certify a certified base, then the base plus one transaction
   (delta-gated incremental search) and a subset of a larger cached
   system (monotone removal) — incremental counters must move;
4. a malformed request (duplicate transaction name) mid-stream — the
   server must answer an error with the offending line echoed and keep
   serving;
5. every certify verdict is cross-checked against `wydb_analyze
   --exact` on the same workload (exit 0 = certified, 1 = refuted);
6. a TCP leg: `--port` serves the same protocol over a socket;
7. a concurrent fault-injection leg: 4 clients at once — one trickling
   bytes at 1 byte/100 ms, one disconnecting mid-request, two normal —
   the normal clients' verdicts must match `wydb_analyze --exact`,
   arrive within a bounded latency, and the server must survive and
   then drain cleanly on SIGTERM (exit 0);
8. a malformed-flood leg: a burst of garbage requests over one session,
   each answered with an isolated error, the server still serving after;
9. a backpressure leg: with --sessions 1, a third simultaneous
   connection is shed with an `at capacity` error while the occupied
   session keeps its slot;
10. an idle-drain leg, 20 times: with idle connections open, SIGTERM
   must end the server with exit 0 within 2 s and no further connect —
   the signal must reach the thread blocked in accept, not a session;
11. a served-latency leg: 200 sequential certifies of
   tools/certified_workload.wydb over one TCP connection, the client
   with default socket options (no TCP_NODELAY), must take under 5 ms
   at p50. A reply written in several pieces waits out the client's
   delayed ACK, about 40 ms a request.

Usage: tools/serve_smoke.py path/to/wydb_serve path/to/wydb_analyze
Exits nonzero with a named complaint on any mismatch.
"""

import random
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

DEADLOCK = (
    "site s1: x\n"
    "site s2: y\n"
    "txn T1: Lx Ly Ux Uy\n"
    "txn T2: Ly Lx Uy Ux\n"
)

# DEADLOCK with everything renamed and the transactions reordered:
# isomorphic, so it must hit the cache.
DEADLOCK_PERMUTED = (
    "site a2: beta\n"
    "site a1: alpha\n"
    "txn B: Lbeta Lalpha Ubeta Ualpha\n"
    "txn A: Lalpha Lbeta Ualpha Ubeta\n"
)

CERTIFIED_BASE = (
    "site s1: x\n"
    "site s2: y\n"
    "txn T1: Lx Ly Ux Uy\n"
    "txn T2: Lx Ly Ux Uy\n"
)

CERTIFIED_PLUS_ONE = CERTIFIED_BASE + "txn T3: Lx Ux\n"

DUPLICATE = "site s1: x\ntxn T: Lx Ux\ntxn T: Lx Ux\n"

ERRORS: list[str] = []


def complain(msg: str) -> None:
    ERRORS.append(msg)
    print(f"serve_smoke: {msg}", file=sys.stderr)


def analyze_verdict(analyze: Path, workload: str) -> bool:
    """True iff `wydb_analyze --exact` certifies the workload."""
    with tempfile.NamedTemporaryFile(
        "w", suffix=".wydb", delete=False
    ) as tmp:
        tmp.write(workload)
        path = tmp.name
    proc = subprocess.run(
        [str(analyze), path, "--exact"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode not in (0, 1):
        complain(
            f"wydb_analyze --exact exited {proc.returncode} on\n{workload}"
        )
    return proc.returncode == 0


def split_responses(output: str) -> list[list[str]]:
    """Splits a server transcript into '.'-terminated responses."""
    responses, current = [], []
    for line in output.splitlines():
        if line == ".":
            responses.append(current)
            current = []
        else:
            current.append(line)
    if current:
        complain(f"trailing unterminated output: {current}")
    return responses


def response_field(response: list[str], prefix: str) -> str:
    for line in response:
        if line.startswith(prefix):
            return line
    return ""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        complain(msg)


def run_pipe_session(serve: Path, analyze: Path) -> None:
    certifies = [DEADLOCK, DEADLOCK_PERMUTED, CERTIFIED_BASE,
                 CERTIFIED_PLUS_ONE]
    session = (
        f"certify\n{DEADLOCK}end\n"
        f"certify\n{DEADLOCK_PERMUTED}end\n"
        "stats\n"
        f"certify\n{CERTIFIED_BASE}end\n"
        f"certify\n{CERTIFIED_PLUS_ONE}end\n"
        f"certify\n{DUPLICATE}end\n"
        # A fresh server would full-search this; here the larger cached
        # system answers it by monotone removal.
        "stats\n"
        "quit\n"
    )
    # The removal leg needs the base absent from the cache while the
    # larger system is present, so run it on a second server below.
    proc = subprocess.run(
        [str(serve)],
        input=session,
        capture_output=True,
        text=True,
        timeout=300,
    )
    expect(proc.returncode == 0, f"server exited {proc.returncode}")
    responses = split_responses(proc.stdout)
    expect(len(responses) == 8, f"expected 8 responses, got {len(responses)}")
    if len(responses) != 8:
        return
    (full, cached, stats1, base, plus_one, malformed, stats2,
     bye) = responses

    verdict = response_field(full, "verdict: ")
    expect("certified=no source=full" in verdict,
           f"leg 1: want full refutation, got '{verdict}'")
    expect(bool(response_field(full, "witness: ")), "leg 1: no witness")
    expect(bool(response_field(full, "cycle: ")), "leg 1: no cycle")

    verdict = response_field(cached, "verdict: ")
    expect("certified=no source=cache" in verdict,
           f"leg 2: want cache hit, got '{verdict}'")
    witness = response_field(cached, "witness: ")
    expect("A." in witness and "B." in witness,
           f"leg 2: witness not remapped onto request names: '{witness}'")
    stats_line = response_field(stats1, "stats: ")
    expect("cache_hits=1" in stats_line,
           f"leg 2: cache_hits not bumped: '{stats_line}'")

    verdict = response_field(plus_one, "verdict: ")
    expect("source=incremental" in verdict,
           f"leg 3: +1 txn not incremental: '{verdict}'")

    error = response_field(malformed, "error: ")
    expect("duplicate transaction 'T'" in error,
           f"leg 4: want duplicate-name error, got '{error}'")
    expect(response_field(malformed, "echo: ") == "echo: txn T: Lx Ux",
           "leg 4: offending line not echoed")

    stats_line = response_field(stats2, "stats: ")
    expect("errors=1" in stats_line,
           f"leg 4: errors counter: '{stats_line}'")
    expect("delta_searches=1" in stats_line,
           f"leg 3: delta_searches counter: '{stats_line}'")
    expect(bye == ["bye"], f"quit: got {bye}")

    # Leg 5: server verdicts must agree with wydb_analyze --exact.
    served = [full, cached, base, plus_one]
    for workload, response in zip(certifies, served):
        v = response_field(response, "verdict: ")
        server_says = "certified=yes" in v
        analyzer_says = analyze_verdict(analyze, workload)
        expect(
            server_says == analyzer_says,
            f"verdict mismatch (server {v!r} vs --exact "
            f"{'certified' if analyzer_says else 'refuted'}) on\n{workload}",
        )

    # Monotone-removal leg on a fresh server: cache the 3-txn system,
    # then certify its 2-txn subset.
    session = (
        f"certify\n{CERTIFIED_PLUS_ONE}end\n"
        f"certify\n{CERTIFIED_BASE}end\n"
        "stats\nquit\n"
    )
    proc = subprocess.run(
        [str(serve)], input=session, capture_output=True, text=True,
        timeout=300,
    )
    responses = split_responses(proc.stdout)
    expect(len(responses) == 4, "removal leg: expected 4 responses")
    if len(responses) == 4:
        verdict = response_field(responses[1], "verdict: ")
        expect("certified=yes source=incremental states=0" in verdict,
               f"removal leg: want monotone shortcut, got '{verdict}'")
        stats_line = response_field(responses[2], "stats: ")
        expect("monotone=1" in stats_line,
               f"removal leg: monotone counter: '{stats_line}'")


def run_tcp_session(serve: Path) -> None:
    for _ in range(5):
        port = random.randint(20000, 60000)
        proc = subprocess.Popen(
            [str(serve), "--port", str(port)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.time() + 10
            sock = None
            while time.time() < deadline and proc.poll() is None:
                try:
                    sock = socket.create_connection(
                        ("127.0.0.1", port), timeout=2
                    )
                    break
                except OSError:
                    time.sleep(0.1)
            if sock is None:
                continue  # Port taken or server died; retry another.
            with sock:
                sock.sendall(
                    f"certify\n{DEADLOCK}end\nstats\nquit\n".encode()
                )
                sock.settimeout(30)
                data = b""
                while b"bye" not in data:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    data += chunk
            text = data.decode()
            expect("certified=no source=full" in text,
                   f"tcp leg: verdict missing in {text!r}")
            expect("stats: requests=" in text,
                   f"tcp leg: stats missing in {text!r}")
            expect("bye" in text, f"tcp leg: bye missing in {text!r}")
            return
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
    complain("tcp leg: could not establish a connection on any port")


def start_server(serve: Path, extra_args: list[str]):
    """Starts wydb_serve on a random port; returns (proc, port) or None."""
    for _ in range(5):
        port = random.randint(20000, 60000)
        proc = subprocess.Popen(
            [str(serve), "--port", str(port), *extra_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        deadline = time.time() + 10
        while time.time() < deadline and proc.poll() is None:
            try:
                with socket.create_connection(("127.0.0.1", port),
                                              timeout=2):
                    pass
                return proc, port
            except OSError:
                time.sleep(0.1)
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
    return None


def recv_until_bye(sock: socket.socket, timeout: float = 60.0) -> str:
    sock.settimeout(timeout)
    data = b""
    try:
        while b"bye" not in data:
            chunk = sock.recv(4096)
            if not chunk:
                break
            data += chunk
    except OSError as e:
        complain(f"recv failed: {e}")
    return data.decode(errors="replace")


def run_concurrent_faults_session(serve: Path, analyze: Path) -> None:
    """Leg 7: 4 concurrent clients — slow, disconnecting, two normal."""
    started = start_server(serve, ["--sessions", "4"])
    if started is None:
        complain("concurrent leg: could not start the server")
        return
    proc, port = started
    results: dict[str, str] = {}
    latencies: dict[str, float] = {}

    def normal_client(name: str, workload: str) -> None:
        t0 = time.time()
        try:
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10) as sock:
                sock.sendall(
                    f"certify\n{workload}end\nstats\nquit\n".encode()
                )
                results[name] = recv_until_bye(sock)
        except OSError as e:
            complain(f"concurrent leg: {name} failed: {e}")
        latencies[name] = time.time() - t0

    def slow_client() -> None:
        # One byte every 100 ms: a request that takes ~1.2 s to arrive
        # must not stall anyone else's session.
        try:
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10) as sock:
                for byte in b"stats\nquit\n":
                    sock.sendall(bytes([byte]))
                    time.sleep(0.1)
                results["slow"] = recv_until_bye(sock)
        except OSError as e:
            complain(f"concurrent leg: slow client failed: {e}")

    def disconnecting_client() -> None:
        # Half a certify request, then a hard close mid-request: the
        # server must treat it as that session's EOF and nothing more.
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=10)
            sock.sendall(b"certify\nsite s1: x\ntxn T1:")
            time.sleep(0.2)
            sock.close()
        except OSError as e:
            complain(f"concurrent leg: disconnector failed: {e}")

    threads = [
        threading.Thread(target=slow_client),
        threading.Thread(target=disconnecting_client),
        threading.Thread(target=normal_client, args=("n1", DEADLOCK)),
        threading.Thread(target=normal_client, args=("n2", CERTIFIED_BASE)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)

    for name, workload, want in (("n1", DEADLOCK, False),
                                 ("n2", CERTIFIED_BASE, True)):
        text = results.get(name, "")
        served = "certified=yes" in text
        expect(("verdict: " in text) and not ("error: " in text),
               f"concurrent leg: {name} got no clean verdict: {text!r}")
        expect(served == want,
               f"concurrent leg: {name} verdict flipped: {text!r}")
        expect(served == analyze_verdict(analyze, workload),
               f"concurrent leg: {name} disagrees with --exact")
        # Bounded latency despite the 1.2 s slow-trickle neighbor: these
        # tiny systems certify in milliseconds, so anything near the
        # slow client's timescale means sessions serialized.
        expect(latencies.get(name, 999) < 30,
               f"concurrent leg: {name} took {latencies.get(name):.1f}s")
    expect("stats: requests=" in results.get("slow", ""),
           f"concurrent leg: slow client starved: {results.get('slow')!r}")
    expect(proc.poll() is None,
           "concurrent leg: server died during the fault mix")

    # Graceful drain: SIGTERM must flush and exit 0, not be killed.
    proc.terminate()
    try:
        code = proc.wait(timeout=30)
        expect(code == 0, f"concurrent leg: drain exited {code}")
    except subprocess.TimeoutExpired:
        proc.kill()
        complain("concurrent leg: server hung on SIGTERM drain")


def run_malformed_flood_session(serve: Path) -> None:
    """Leg 8: a burst of garbage requests never kills the stream."""
    started = start_server(serve, [])
    if started is None:
        complain("flood leg: could not start the server")
        return
    proc, port = started
    try:
        flood = []
        for i in range(50):
            flood.append(f"frobnicate {i}\n")
            flood.append(f"certify\n{DUPLICATE}end\n")
        flood.append(f"certify\n{CERTIFIED_BASE}end\n")
        flood.append("stats\nquit\n")
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            s.sendall("".join(flood).encode())
            text = recv_until_bye(s)
        expect(text.count("error: ") == 100,
               f"flood leg: want 100 isolated errors, got "
               f"{text.count('error: ')}")
        expect("certified=yes" in text,
               "flood leg: good request after the flood not served")
        expect("errors=100" in text, "flood leg: errors counter")
        expect(proc.poll() is None, "flood leg: server died")
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()


def run_backpressure_session(serve: Path) -> None:
    """Leg 9: --sessions 1 sheds the connection past cap + queue."""
    started = start_server(serve, ["--sessions", "1"])
    if started is None:
        complain("backpressure leg: could not start the server")
        return
    proc, port = started
    try:
        # Let the start_server probe connection's session finish first,
        # or it would transiently hold the single slot.
        time.sleep(0.3)
        # Occupy the one session slot without finishing the request...
        holder = socket.create_connection(("127.0.0.1", port), timeout=10)
        holder.sendall(b"certify\n")  # Mid-request: the slot stays held.
        time.sleep(0.3)
        # ...fill the one queue slot...
        waiter = socket.create_connection(("127.0.0.1", port), timeout=10)
        time.sleep(0.3)
        # ...and the next connection must be shed, immediately.
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            s.settimeout(10)
            data = b""
            try:
                while b"\n" not in data:
                    chunk = s.recv(4096)
                    if not chunk:
                        break
                    data += chunk
            except OSError as e:
                complain(f"backpressure leg: shed read failed: {e}")
        expect(b"at capacity" in data,
               f"backpressure leg: want shed error, got {data!r}")
        # The held session is still alive: finish its request normally.
        holder.sendall(f"{CERTIFIED_BASE}end\nquit\n".encode())
        text = recv_until_bye(holder)
        expect("certified=yes" in text,
               f"backpressure leg: holder's request lost: {text!r}")
        holder.close()
        # The queued connection now gets the freed slot.
        waiter.sendall(b"stats\nquit\n")
        text = recv_until_bye(waiter)
        expect("stats: requests=" in text,
               f"backpressure leg: queued connection starved: {text!r}")
        waiter.close()
        expect(proc.poll() is None, "backpressure leg: server died")
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()


def run_idle_drain_session(serve: Path, rounds: int = 20) -> None:
    """Leg 10: SIGTERM with idle sessions open drains without a connect."""
    for attempt in range(rounds):
        started = start_server(serve, [])
        if started is None:
            complain("idle-drain leg: could not start the server")
            return
        proc, port = started
        idle = []
        try:
            for _ in range(3):
                idle.append(socket.create_connection(("127.0.0.1", port),
                                                     timeout=10))
            time.sleep(0.2)  # Let the sessions start and block in read.
            start = time.time()
            proc.terminate()
            try:
                code = proc.wait(timeout=2)
                expect(code == 0,
                       f"idle-drain leg (round {attempt}): exit {code}")
            except subprocess.TimeoutExpired:
                complain(f"idle-drain leg (round {attempt}): no exit "
                         f"within 2 s of SIGTERM")
            else:
                expect(time.time() - start < 2.0,
                       f"idle-drain leg (round {attempt}): slow drain")
        finally:
            for conn in idle:
                conn.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def run_latency_session(serve: Path, requests: int = 200) -> None:
    """Leg 11: sequential certifies answer in the server's time."""
    workload = Path(__file__).with_name("certified_workload.wydb")
    request = f"certify\n{workload.read_text()}end\n".encode()
    started = start_server(serve, [])
    if started is None:
        complain("latency leg: could not start the server")
        return
    proc, port = started
    latencies = []
    try:
        # Default client socket options, as a plain client connects.
        with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
            pending = b""
            for _ in range(requests):
                start = time.perf_counter()
                s.sendall(request)
                while b"\n.\n" not in pending:
                    chunk = s.recv(4096)
                    if not chunk:
                        break
                    pending += chunk
                latencies.append(time.perf_counter() - start)
                reply, _, pending = pending.partition(b"\n.\n")
                if b"certified=yes" not in reply:
                    complain(f"latency leg: want a certified verdict, got "
                             f"{reply!r}")
                    return
            s.sendall(b"quit\n")
    except OSError as e:
        complain(f"latency leg: {e}")
        return
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
    p50_ms = sorted(latencies)[len(latencies) // 2] * 1000
    print(f"serve_smoke: latency leg p50 {p50_ms:.2f} ms over {requests} "
          "sequential certifies")
    expect(p50_ms < 5.0,
           f"latency leg: p50 {p50_ms:.1f} ms, want under 5 ms")


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    serve, analyze = Path(sys.argv[1]), Path(sys.argv[2])
    run_pipe_session(serve, analyze)
    run_tcp_session(serve)
    run_concurrent_faults_session(serve, analyze)
    run_malformed_flood_session(serve)
    run_backpressure_session(serve)
    run_idle_drain_session(serve)
    run_latency_session(serve)
    if not ERRORS:
        print("serve_smoke: OK (pipe + tcp + concurrent-fault + flood + "
              "backpressure + idle-drain + served-latency sessions, "
              "verdicts cross-checked against wydb_analyze --exact)")
    return 1 if ERRORS else 0


if __name__ == "__main__":
    sys.exit(main())
