#!/usr/bin/env python
"""CI smoke for the query service: boot, canned queries, clean shutdown.

Runs the full serving path end to end on an ephemeral port:

1. boot ``repro.serve`` with the synthetic flights table + a never-
   converging "hard" table;
2. POST /query twice - the repeat must be a cache hit with byte-identical
   result JSON;
3. POST /stream - the SSE frames must be monotonically numbered updates
   ending in a single ``done`` event;
4. start a never-converging query and DELETE it - the submitter must get
   the structured 499 ``cancelled`` error;
5. POST /query twice with ``"shards": 2, "executor": "process"`` and
   different seeds - both must run on one cached pool of two workers
   (``GET /tables`` lists one fan-out, no third worker is spawned);
6. drain: flip the service into drain mode - ``/readyz`` goes 503 while
   ``/healthz`` stays 200, and new work is shed with 503 + ``Retry-After``;
7. shut down and assert no worker process, no worker pool directory and
   no thread the service started (SSE pumps, stream workers) is left (the
   leak oracles: an abandoned worker, payload file or pump fails CI here);
8. SIGTERM a real ``repro serve`` subprocess - it must announce the drain
   and exit 0 (the path a rolling restart takes in production).

Usage: python scripts/serve_smoke.py [--rows N]
"""

from __future__ import annotations

import argparse
import http.client
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import SourceSpec, connect  # noqa: E402
from repro.engines.payload import live_pool_dirs  # noqa: E402
from repro.serve import QueryService, serve_in_thread  # noqa: E402

FLIGHTS_SQL = "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier"
PROCESS_SPEC = {
    "table": "flights",
    "group_by": ["carrier"],
    "aggregates": [{"func": "AVG", "column": "arrival_delay"}],
    "engine": "memory",
    "shards": 2,
    "executor": "process",
}
SLOW_SPEC = {
    "table": "slow",
    "group_by": ["g"],
    "aggregates": [{"func": "AVG", "column": "value"}],
    "engine": "memory",
}


def request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(method, path, body=None if body is None else json.dumps(body))
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, json.loads(raw) if raw else {}
    finally:
        conn.close()


def stray_threads(baseline: set, grace: float = 10.0) -> list:
    """Threads started since ``baseline`` still alive after ``grace`` s."""
    until = time.monotonic() + grace
    for thread in set(threading.enumerate()) - baseline:
        thread.join(max(0.0, until - time.monotonic()))
    return [t.name for t in set(threading.enumerate()) - baseline if t.is_alive()]


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        raise SystemExit(1)
    print(f"ok: {message}")


def sigterm_drains_cleanly() -> bool:
    """SIGTERM a foreground ``repro serve`` and watch it drain to exit 0."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--flights",
         "--rows", "2000", "--port", "0", "--drain-timeout", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        line = proc.stdout.readline()
        if "listening" not in line:
            print(f"unexpected first line: {line!r}", file=sys.stderr)
            return False
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)
    if proc.returncode != 0:
        print(out, file=sys.stderr)
        return False
    return "draining" in out and "stopped" in out


def main() -> int:
    baseline = set(threading.enumerate())
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=20_000,
                        help="synthetic flights rows for the canned queries")
    args = parser.parse_args()

    session = connect(delta=0.1, seed=0)
    session.attach("flights", SourceSpec("flights", rows=args.rows, seed=0))
    session.attach(
        "slow",
        SourceSpec("synthetic", family="hard", k=4, gamma=0.01, group_size=5_000_000),
    )
    service = QueryService(session, sessions=2, default_seed=0)
    handle = serve_in_thread(service)
    print(f"serving on {handle.url}")
    try:
        status, body = request(handle.port, "GET", "/healthz")
        check(status == 200 and body["status"] == "ok", "healthz answers")

        status, first = request(handle.port, "POST", "/query", {"sql": FLIGHTS_SQL})
        check(status == 200 and first["cache"] == "miss", "first query executes")
        status, second = request(handle.port, "POST", "/query", {"sql": FLIGHTS_SQL})
        check(status == 200 and second["cache"] == "hit", "repeat query is a cache hit")
        check(
            json.dumps(first["result"], sort_keys=True)
            == json.dumps(second["result"], sort_keys=True),
            "cached result is byte-identical",
        )

        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=120)
        conn.request(
            "POST", "/stream", body=json.dumps({"sql": FLIGHTS_SQL, "seed": 1})
        )
        resp = conn.getresponse()
        frames = [f for f in resp.read().decode().split("\n\n") if f.strip()]
        conn.close()
        check(resp.status == 200 and len(frames) >= 2, "SSE stream answers")
        ids = [int(f.splitlines()[0].split(":")[1]) for f in frames]
        check(ids == list(range(1, len(frames) + 1)), "SSE ids are monotonic from 1")
        check("event: done" in frames[-1], "SSE stream ends with done")
        check(
            all("event: update" in f for f in frames[:-1]),
            "all non-final SSE frames are updates",
        )

        outcome = {}

        def run_slow():
            outcome["status"], outcome["body"] = request(
                handle.port,
                "POST",
                "/query",
                {"spec": SLOW_SPEC, "query_id": "smoke-slow"},
            )

        thread = threading.Thread(target=run_slow)
        thread.start()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            _s, stats = request(handle.port, "GET", "/stats")
            if stats["inflight"] >= 1:
                break
            time.sleep(0.05)
        status, body = request(handle.port, "DELETE", "/query/smoke-slow")
        check(status == 200 and body["cancelled"], "DELETE cancels the slow query")
        thread.join(timeout=120)
        check(
            outcome.get("status") == 499
            and outcome["body"]["error"]["code"] == "cancelled",
            "cancelled submitter gets the structured 499",
        )

        workers = set()
        for seed in (11, 12):
            status, body = request(
                handle.port, "POST", "/query", {"spec": PROCESS_SPEC, "seed": seed}
            )
            check(status == 200 and body["cache"] == "miss", f"process query seed={seed} runs")
            workers |= {p.pid for p in multiprocessing.active_children()}
        status, body = request(handle.port, "GET", "/tables")
        flights = next(t for t in body["tables"] if t["name"] == "flights")
        check(
            flights["cached_fanouts"] == [{"shards": 2, "executor": "process", "workers": 2}]
            and len(workers) == 2,
            "two process queries share one cached pool of two workers",
        )

        status, body = request(handle.port, "GET", "/readyz")
        check(status == 200 and body["ready"], "readyz is 200 before the drain")
        service.begin_drain()
        status, body = request(handle.port, "GET", "/readyz")
        check(
            status == 503 and body["draining"],
            "readyz flips to 503 while draining",
        )
        status, _body = request(handle.port, "GET", "/healthz")
        check(status == 200, "healthz stays 200 while draining (liveness)")
        status, body = request(handle.port, "POST", "/query", {"sql": FLIGHTS_SQL})
        check(
            status == 503 and body["error"]["code"] == "draining",
            "draining server sheds new work with 503",
        )
    finally:
        handle.stop()

    check(multiprocessing.active_children() == [], "shutdown leaves no worker process")
    stray = stray_threads(baseline)
    check(stray == [], f"shutdown leaves no service thread alive (stray: {stray})")
    check(live_pool_dirs() == [], "shutdown leaves no worker pool directory")
    check(sigterm_drains_cleanly(), "SIGTERM drains a real serve process to exit 0")
    print("serve smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
