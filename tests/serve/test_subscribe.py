"""HTTP subscription tests: SSE window events, slots, stats, cancel.

Acceptance criteria for the ``/subscribe`` surface:

* a subscription sees monotonically increasing SSE ids over ``window``
  events and ends with ``done``;
* per-tenant ``max_subscriptions`` slots shed excess subscriptions with a
  structured 429 (one-shot execution quotas are untouched);
* ``/stats`` reports subscriptions started, windows emitted, and the live
  open-subscription gauge per tenant;
* ``DELETE /query/{id}`` cancels a live subscription: the stream ends with
  a clean ``done`` (``cancelled: true``) and the slot frees;
* a source that fails mid-stream ends the subscription with exactly one
  terminal ``error`` frame (``code: internal``);
* idle subscriptions hold no thread of the event loop's shared executor,
  so any number of them leaves ``/stream`` and ``/subscribe`` answering.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time

import numpy as np
import pytest

from repro import connect
from repro.catalog import IteratorSource, Schema
from repro.serve import (
    QueryService,
    TenantConfig,
    TenantRegistry,
    serve_in_thread,
)

EVENTS_SQL = "SELECT g, AVG(v) FROM events GROUP BY g"

DEADLINE = 120  # socket timeout: generous, tests finish far faster

SCHEMA = Schema.from_arrays(
    {"g": np.array(["a"]), "v": np.array([1.0]), "ts": np.array([0.0])}
)


def finite_chunks():
    rng = np.random.default_rng(3)
    for base in range(0, 500, 100):
        yield {
            "g": np.tile(np.array(["a", "b"]), 50),
            "v": rng.random(100) * 10.0,
            "ts": np.arange(base, base + 100, dtype=np.float64),
        }


def broken_chunks():
    """One chunk of rows, then the source fails mid-stream."""
    yield next(finite_chunks())
    raise RuntimeError("source went away")


class PacedStream:
    """An endless chunk stream the test can pause and release."""

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.gate.set()

    def chunks(self):
        rng = np.random.default_rng(5)
        base = 0
        while True:
            yield {
                "g": np.tile(np.array(["a", "b"]), 50),
                "v": rng.random(100) * 10.0,
                "ts": np.arange(base, base + 100, dtype=np.float64),
            }
            base += 100
            if not self.gate.wait(10.0):
                return


PACED = PacedStream()


@pytest.fixture(scope="module")
def server():
    session = connect(delta=0.1, seed=0, engine="memory")
    session.register("events", IteratorSource(finite_chunks, schema=SCHEMA))
    session.register("endless", IteratorSource(PACED.chunks, schema=SCHEMA))
    session.register("broken", IteratorSource(broken_chunks, schema=SCHEMA))
    tenants = TenantRegistry(TenantConfig(max_subscriptions=4))
    tenants.configure(
        "solo", TenantConfig(max_concurrent=4, queue_limit=4, max_subscriptions=1)
    )
    service = QueryService(session, sessions=2, tenants=tenants, default_seed=0)
    handle = serve_in_thread(service)
    yield handle.port, service
    PACED.gate.set()
    handle.stop()


def request(port, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=DEADLINE)
    try:
        conn.request(
            method,
            path,
            body=None if body is None else json.dumps(body),
            headers=headers or {},
        )
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, json.loads(raw) if raw else {}, dict(resp.getheaders())
    finally:
        conn.close()


def subscribe_raw(port, target_or_body, headers=None):
    """GET (string target) or POST (dict body) /subscribe; full SSE text."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=DEADLINE)
    try:
        if isinstance(target_or_body, str):
            conn.request("GET", target_or_body, headers=headers or {})
        else:
            conn.request(
                "POST",
                "/subscribe",
                body=json.dumps(target_or_body),
                headers=headers or {},
            )
        resp = conn.getresponse()
        return resp.status, resp.read().decode("utf-8"), dict(resp.getheaders())
    finally:
        conn.close()


def parse_frames(text):
    """[(id, event, data-dict)] for each SSE frame."""
    frames = []
    for block in text.split("\n\n"):
        if not block.strip():
            continue
        fields = dict(
            line.split(": ", 1) for line in block.splitlines() if ": " in line
        )
        frames.append(
            (int(fields["id"]), fields["event"], json.loads(fields["data"]))
        )
    return frames


def tenant_entry(port, tenant):
    _status, stats, _ = request(port, "GET", "/stats")
    return stats["tenants"].get(tenant, {})


def poll(predicate, timeout=60, interval=0.02, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


class TestSubscribeStream:
    def test_get_subscribe_monotone_window_ids_then_done(self, server):
        port, _service = server
        status, text, headers = subscribe_raw(
            port,
            "/subscribe?sql=SELECT+g,+AVG(v)+FROM+events+GROUP+BY+g"
            "&window_size=100&window_on=ts&updates=0",
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/event-stream")
        frames = parse_frames(text)
        ids = [fid for fid, _, _ in frames]
        assert ids == list(range(1, len(frames) + 1))
        kinds = [event for _, event, _ in frames]
        assert kinds[:-1] == ["window"] * 5 and kinds[-1] == "done"
        indices = [data["window"]["index"] for _, event, data in frames
                   if event == "window"]
        assert indices == [0, 1, 2, 3, 4]
        done = frames[-1][2]
        assert done["windows"] == 5 and done["cancelled"] is False

    def test_post_subscribe_with_window_body(self, server):
        port, _service = server
        status, text, _ = subscribe_raw(
            port,
            {
                "sql": EVENTS_SQL,
                "window": {"size": 200.0, "on": "ts"},
                "max_windows": 2,
                "emit_updates": False,
                "seed": 7,
            },
        )
        assert status == 200
        frames = parse_frames(text)
        windows = [d for _, event, d in frames if event == "window"]
        assert len(windows) == 2
        assert [w["seed"] for w in windows] == [7, 8]

    def test_updates_interleave_when_enabled(self, server):
        port, _service = server
        _status, text, _ = subscribe_raw(
            port,
            {"sql": EVENTS_SQL, "window": {"size": 250.0, "on": "ts"},
             "max_windows": 1},
        )
        kinds = [event for _, event, _ in parse_frames(text)]
        assert "update" in kinds and "window" in kinds
        assert kinds[-1] == "done"

    def test_subscribe_requires_a_window(self, server):
        port, _service = server
        status, text, _ = subscribe_raw(port, {"sql": EVENTS_SQL})
        assert status == 400
        assert "window" in json.loads(
            text if text.startswith("{") else "{}"
        ).get("error", {}).get("message", text)

    def test_bad_window_param_rejected(self, server):
        port, _service = server
        status, _text, _ = subscribe_raw(
            port, "/subscribe?sql=x&window_size=abc"
        )
        assert status == 400
        status, _text, _ = subscribe_raw(
            port, {"sql": EVENTS_SQL, "window": {"size": 100.0, "stride": 2}}
        )
        assert status == 400

    def test_unknown_get_parameter_rejected(self, server):
        port, _service = server
        status, _text, _ = subscribe_raw(
            port, "/subscribe?sql=x&window_size=100&bogus=1"
        )
        assert status == 400

    def test_method_not_allowed(self, server):
        port, _service = server
        status, _body, _ = request(port, "PUT", "/subscribe")
        assert status == 405


    def test_source_failure_ends_with_one_internal_error_frame(self, server):
        port, _service = server
        before = tenant_entry(port, "fragile").get("counters", {}).get("errors", 0)
        status, text, _ = subscribe_raw(
            port,
            {"sql": "SELECT g, AVG(v) FROM broken GROUP BY g",
             "window": {"size": 50.0, "on": "ts"}, "emit_updates": False,
             "tenant": "fragile"},
        )
        assert status == 200
        frames = parse_frames(text)
        assert [fid for fid, _, _ in frames] == list(range(1, len(frames) + 1))
        kinds = [event for _, event, _ in frames]
        assert kinds.count("error") == 1 and kinds[-1] == "error"
        assert "done" not in kinds
        error = frames[-1][2]["error"]
        assert error["code"] == "internal"
        assert "source went away" in error["message"]
        entry = tenant_entry(port, "fragile")
        assert entry["counters"]["errors"] == before + 1
        assert entry["subscriptions"] == 0


class TestSlotsAndStats:
    def test_stats_counters_after_finite_subscription(self, server):
        port, _service = server
        before = tenant_entry(port, "counting").get("counters", {})
        status, text, _ = subscribe_raw(
            port,
            {"sql": EVENTS_SQL, "window": {"size": 100.0, "on": "ts"},
             "emit_updates": False, "tenant": "counting"},
        )
        assert status == 200
        windows = sum(1 for _, e, _ in parse_frames(text) if e == "window")
        entry = tenant_entry(port, "counting")
        counters = entry["counters"]
        assert counters["subscriptions_started"] == \
            before.get("subscriptions_started", 0) + 1
        assert counters["windows_emitted"] == \
            before.get("windows_emitted", 0) + windows
        assert entry["subscriptions"] == 0  # gauge back down after done
        assert entry["config"]["max_subscriptions"] == 4

    def test_max_subscriptions_sheds_with_429(self, server):
        port, _service = server
        holder = {}

        def hold():
            holder["result"] = subscribe_raw(
                port,
                {"sql": "SELECT g, AVG(v) FROM endless GROUP BY g",
                 "window": {"size": 100.0, "on": "ts"},
                 "emit_updates": False, "tenant": "solo",
                 "query_id": "held-sub"},
            )

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            poll(
                lambda: tenant_entry(port, "solo").get("subscriptions") == 1,
                message="subscription to open",
            )
            status, body, headers = request(
                port,
                "POST",
                "/subscribe",
                {"sql": "SELECT g, AVG(v) FROM endless GROUP BY g",
                 "window": {"size": 100.0, "on": "ts"}, "tenant": "solo"},
            )
            assert status == 429
            assert body["error"]["code"] == "shed"
            assert "Retry-After" in headers
            counters = tenant_entry(port, "solo")["counters"]
            assert counters["shed"] >= 1
            # One-shot queries still run: subscription slots are separate
            # from the execution admission queue.
            q_status, q_body, _ = request(
                port, "POST", "/query",
                {"sql": EVENTS_SQL, "tenant": "solo"},
            )
            assert q_status == 200 and "result" in q_body
        finally:
            request(port, "DELETE", "/query/held-sub")
            thread.join(timeout=DEADLINE)
        status, text, _ = holder["result"]
        assert status == 200
        frames = parse_frames(text)
        assert frames[-1][1] == "done" and frames[-1][2]["cancelled"] is True
        poll(
            lambda: tenant_entry(port, "solo").get("subscriptions") == 0,
            message="slot to free",
        )

    def test_duplicate_query_id_conflicts(self, server):
        port, _service = server
        holder = {}

        def hold():
            holder["result"] = subscribe_raw(
                port,
                {"sql": "SELECT g, AVG(v) FROM endless GROUP BY g",
                 "window": {"size": 100.0, "on": "ts"},
                 "emit_updates": False, "query_id": "dup-sub"},
            )

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            poll(
                lambda: request(port, "GET", "/healthz")[1].get("inflight", 0) >= 1,
                message="subscription ticket",
            )
            status, body, _ = request(
                port,
                "POST",
                "/subscribe",
                {"sql": EVENTS_SQL, "window": {"size": 100.0, "on": "ts"},
                 "query_id": "dup-sub"},
            )
            assert status == 409
            assert body["error"]["code"] == "duplicate_query_id"
        finally:
            request(port, "DELETE", "/query/dup-sub")
            thread.join(timeout=DEADLINE)

    def test_delete_unknown_subscription_404(self, server):
        port, _service = server
        status, _body, _ = request(port, "DELETE", "/query/never-existed")
        assert status == 404


def test_idle_subscriptions_do_not_starve_sse_routes():
    """More idle subscriptions than half the loop's default executor (the
    pool a thread-parking SSE wait would hold) leave /stream and one more
    /subscribe answering promptly: an SSE wait holds no shared thread."""
    idle = min(32, (os.cpu_count() or 1) + 4) // 2 + 1
    gate = threading.Event()

    def paused_chunks():
        gate.wait(DEADLINE)
        yield from finite_chunks()

    session = connect(delta=0.1, seed=0, engine="memory")
    session.register("events", IteratorSource(finite_chunks, schema=SCHEMA))
    session.register("paused", IteratorSource(paused_chunks, schema=SCHEMA))
    tenants = TenantRegistry(TenantConfig(max_subscriptions=idle + 1))
    service = QueryService(session, sessions=1, tenants=tenants, default_seed=0)
    handle = serve_in_thread(service)
    held = []
    try:
        for i in range(idle):
            conn = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=DEADLINE
            )
            conn.request(
                "POST",
                "/subscribe",
                body=json.dumps(
                    {"sql": "SELECT g, AVG(v) FROM paused GROUP BY g",
                     "window": {"size": 100.0, "on": "ts"},
                     "emit_updates": False, "query_id": f"idle-{i}"}
                ),
            )
            held.append((conn, conn.getresponse()))
        poll(
            lambda: tenant_entry(handle.port, "public").get("subscriptions") == idle,
            message="idle subscriptions to open",
        )

        start = time.monotonic()
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=10)
        try:
            conn.request("POST", "/stream", body=json.dumps({"sql": EVENTS_SQL}))
            resp = conn.getresponse()
            frames = parse_frames(resp.read().decode("utf-8"))
        finally:
            conn.close()
        assert resp.status == 200 and frames[-1][1] == "done"
        assert time.monotonic() - start < 10

        start = time.monotonic()
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=10)
        try:
            conn.request(
                "POST",
                "/subscribe",
                body=json.dumps(
                    {"sql": EVENTS_SQL, "window": {"size": 100.0, "on": "ts"},
                     "emit_updates": False}
                ),
            )
            resp = conn.getresponse()
            frames = parse_frames(resp.read().decode("utf-8"))
        finally:
            conn.close()
        assert resp.status == 200 and frames[-1][1] == "done"
        assert frames[-1][2]["windows"] == 5
        assert time.monotonic() - start < 10
    finally:
        gate.set()
        for conn, resp in held:
            resp.close()
            conn.close()
        handle.stop()
