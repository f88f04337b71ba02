#!/usr/bin/env python
"""CI smoke for continuous queries: subscribe, windows, late data, cancel.

Runs the streaming path end to end over HTTP on an ephemeral port:

1. boot ``repro.serve`` with a chunked event stream that includes a LATE
   chunk (rows for an already-closed window arriving after the watermark
   has passed);
2. GET /subscribe - the SSE frames must be monotonically numbered
   ``window`` events (at least 3 windows) ending in a single ``done``;
3. the late chunk must not corrupt the stream: under the default ``drop``
   policy the affected window is emitted exactly once and the late rows
   show up in the done-event stats;
4. open a second, unbounded subscription and DELETE it - the stream must
   end with a clean ``done`` carrying ``cancelled: true``;
5. shut down and assert no worker pool directory is left and no thread
   the service started (SSE pumps, ``continuous-query`` runners) is still
   alive.

Usage: python scripts/streaming_smoke.py
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro import connect  # noqa: E402
from repro.catalog import IteratorSource, Schema  # noqa: E402
from repro.engines.payload import live_pool_dirs  # noqa: E402
from repro.serve import QueryService, serve_in_thread  # noqa: E402

EVENTS_SQL = "SELECT g, AVG(v) FROM events GROUP BY g"

SCHEMA = Schema.from_arrays(
    {"g": np.array(["a"]), "v": np.array([1.0]), "ts": np.array([0.0])}
)


def block(lo: int, hi: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n = hi - lo
    return {
        "g": rng.choice(np.array(["a", "b", "c"]), n),
        "v": rng.random(n) * 50.0,
        "ts": np.arange(lo, hi, dtype=np.float64),
    }


def event_chunks():
    """ts 0..299 in order, then a LATE chunk (120..139), then 300..399.

    By the time 120..139 re-arrive the watermark sits at 299, so windows
    [100, 200) and [200, 300) are closed: the late rows must be dropped,
    not re-opened into a duplicate emission.
    """
    yield block(0, 100, seed=1)
    yield block(100, 200, seed=2)
    yield block(200, 300, seed=3)
    yield block(120, 140, seed=4)  # late for the closed [100, 200) window
    yield block(300, 400, seed=5)


class Endless:
    """An unbounded stream the DELETE-to-cancel check can hold open."""

    def __init__(self) -> None:
        self.gate = threading.Event()

    def chunks(self):
        base = 0
        while True:
            yield block(base, base + 100, seed=base)
            base += 100
            if self.gate.wait(10.0):
                return


def request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(method, path, body=None if body is None else json.dumps(body))
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, json.loads(raw) if raw else {}
    finally:
        conn.close()


def sse_frames(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(method, path, body=None if body is None else json.dumps(body))
        resp = conn.getresponse()
        frames = [f for f in resp.read().decode().split("\n\n") if f.strip()]
        return resp.status, frames
    finally:
        conn.close()


def frame_data(frame: str) -> dict:
    for line in frame.splitlines():
        if line.startswith("data: "):
            return json.loads(line[len("data: "):])
    raise SystemExit(f"frame without data line: {frame!r}")


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


def main() -> int:
    baseline = set(threading.enumerate())
    endless = Endless()
    session = connect(delta=0.1, seed=0, engine="memory")
    session.register("events", IteratorSource(event_chunks, schema=SCHEMA))
    session.register("endless", IteratorSource(endless.chunks, schema=SCHEMA))
    service = QueryService(session, sessions=2, default_seed=0)
    handle = serve_in_thread(service)
    print(f"serving on {handle.url}")
    try:
        status, body = request(handle.port, "GET", "/healthz")
        check(status == 200 and body["status"] == "ok", "healthz answers")

        status, frames = sse_frames(
            handle.port,
            "GET",
            "/subscribe?sql=SELECT+g,+AVG(v)+FROM+events+GROUP+BY+g"
            "&window_size=100&window_on=ts&updates=0",
        )
        check(status == 200 and len(frames) >= 4, "subscription streams SSE")
        ids = [int(f.splitlines()[0].split(":")[1]) for f in frames]
        check(ids == list(range(1, len(frames) + 1)), "SSE ids are monotonic from 1")
        check("event: done" in frames[-1], "stream ends with done")
        windows = [frame_data(f) for f in frames[:-1] if "event: window" in f]
        check(len(windows) >= 3, f"at least 3 windows emitted (got {len(windows)})")
        indices = [w["window"]["index"] for w in windows]
        check(indices == sorted(set(indices)), "window indices strictly increase")
        check(
            sum(1 for i in indices if i == 1) == 1,
            "late chunk does not re-emit the closed window",
        )
        done = frame_data(frames[-1])
        check(done["cancelled"] is False, "uninterrupted stream is not cancelled")
        check(
            done["stats"]["late_dropped"] == 20,
            "the 20 late rows were dropped and counted",
        )

        holder = {}

        def hold():
            holder["status"], holder["frames"] = sse_frames(
                handle.port,
                "POST",
                "/subscribe",
                {
                    "sql": "SELECT g, AVG(v) FROM endless GROUP BY g",
                    "window": {"size": 100.0, "on": "ts"},
                    "emit_updates": False,
                    "query_id": "smoke-sub",
                },
            )

        thread = threading.Thread(target=hold)
        thread.start()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            _s, stats = request(handle.port, "GET", "/stats")
            if stats["tenants"].get("public", {}).get("subscriptions", 0) >= 1:
                break
            time.sleep(0.05)
        status, body = request(handle.port, "DELETE", "/query/smoke-sub")
        check(status == 200 and body["cancelled"], "DELETE cancels the subscription")
        endless.gate.set()
        thread.join(timeout=120)
        check(holder.get("status") == 200, "cancelled subscriber still got 200 SSE")
        check("event: done" in holder["frames"][-1], "cancelled stream ends with done")
        check(
            frame_data(holder["frames"][-1])["cancelled"] is True,
            "done event reports cancelled: true",
        )
        _s, stats = request(handle.port, "GET", "/stats")
        counters = stats["tenants"]["public"]["counters"]
        check(counters["subscriptions_started"] == 2, "both subscriptions counted")
        check(
            stats["tenants"]["public"]["subscriptions"] == 0,
            "subscription gauge returns to zero",
        )
    finally:
        handle.stop()

    check(live_pool_dirs() == [], "shutdown leaves no worker pool directory")
    stray = stray_threads(baseline)
    check(stray == [], f"shutdown leaves no service thread alive (stray: {stray})")
    print("streaming smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
