"""Self-healing service tier: drain, SSE reconnect, durable subscriptions.

Acceptance criteria:

* ``/readyz`` is readiness (503 while draining) distinct from ``/healthz``
  liveness (always 200 while the process serves);
* a draining server sheds new work with 503 + ``Retry-After`` but still
  accepts ``Last-Event-ID`` reconnects;
* a client that drops an SSE connection and reconnects with
  ``Last-Event-ID`` replays the missed frames *byte-identically* from the
  relay buffer and then continues live; reconnecting past the buffer gets
  a structured 409 (``replay_gap``);
* a stream whose client never reconnects is cancelled by the relay
  janitor: its flight fails (the next identical request is a fresh miss)
  and no pump thread outlives it;
* ``durable: true`` subscriptions checkpoint each window into the store;
  re-subscribing with the same ``query_id`` resumes from the cursor with
  the remaining windows bit-identical to an uninterrupted run, and a run
  that fails keeps its checkpoint;
* shutting down with an idle keep-alive connection open closes it
  promptly and cleanly;
* SIGTERM drains and exits 0 (the E2E smoke also covers this under load).
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import logging
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import connect
from repro.catalog import IteratorSource, Schema
from repro.query import parse_query
from repro.serve import QueryService, serve_in_thread

EVENTS_SQL = "SELECT g, AVG(v) FROM events GROUP BY g"
DEADLINE = 120

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
    """One chunk of rows (a 50-row window closes inside it), then the
    source fails mid-stream."""
    yield next(finite_chunks())
    raise RuntimeError("source went away")


def stray_threads(baseline, grace=10.0):
    """Threads started since ``baseline`` that are still alive after
    ``grace`` seconds (daemon threads get that long to wind down)."""
    until = time.monotonic() + grace
    for thread in set(threading.enumerate()) - baseline:
        thread.join(max(0.0, until - time.monotonic()))
    return [t for t in set(threading.enumerate()) - baseline if t.is_alive()]


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
    service = QueryService(session, sessions=2, default_seed=0)
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


def sse_request(port, method, path, body, headers=None):
    """Run an SSE request to completion; (status, raw-text, headers)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=DEADLINE)
    try:
        conn.request(method, path, body=json.dumps(body), headers=headers or {})
        resp = conn.getresponse()
        return resp.status, resp.read().decode("utf-8"), dict(resp.getheaders())
    finally:
        conn.close()


def open_sse(port, method, path, body, headers=None):
    """Open an SSE request and return (conn, resp) for incremental reads."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=DEADLINE)
    conn.request(method, path, body=json.dumps(body), headers=headers or {})
    return conn, conn.getresponse()


def read_frames(resp, n):
    """Read raw bytes until at least n complete SSE frames have arrived."""
    buf = b""
    deadline = time.monotonic() + DEADLINE
    while buf.count(b"\n\n") < n:
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {n} SSE frames")
        chunk = resp.read1(4096)
        if not chunk:
            break
        buf += chunk
    return buf


def complete_frames(raw: bytes) -> list[bytes]:
    """The fully-received frames of a (possibly truncated) SSE byte stream."""
    parts = raw.split(b"\n\n")
    return [p for p in parts[:-1] if p.strip()]


def parse_frame(frame: bytes):
    fields = dict(
        line.split(": ", 1)
        for line in frame.decode("utf-8").splitlines()
        if ": " in line
    )
    return int(fields["id"]), fields["event"], json.loads(fields["data"])


def parse_frames(text: str):
    return [
        parse_frame(block.encode("utf-8"))
        for block in text.split("\n\n")
        if block.strip()
    ]


class TestReadyzAndDrain:
    """Drain uses its own server: begin_drain is one-way."""

    @pytest.fixture()
    def drain_server(self):
        session = connect(delta=0.1, seed=0, engine="memory")
        session.register("events", IteratorSource(finite_chunks, schema=SCHEMA))
        service = QueryService(session, sessions=1, default_seed=0)
        handle = serve_in_thread(service)
        yield handle.port, service
        handle.stop()

    def test_readyz_flips_503_healthz_stays_200(self, drain_server):
        port, service = drain_server
        status, body, _ = request(port, "GET", "/readyz")
        assert status == 200 and body["ready"] is True

        service.begin_drain()
        status, body, headers = request(port, "GET", "/readyz")
        assert status == 503
        assert body["ready"] is False and body["draining"] is True
        assert "Retry-After" in headers
        # Liveness is not readiness: the process is still healthy.
        status, _body, _ = request(port, "GET", "/healthz")
        assert status == 200

    def test_draining_sheds_new_work_with_retry_after(self, drain_server):
        port, service = drain_server
        service.begin_drain()
        for method, path, body in (
            ("POST", "/query", {"sql": EVENTS_SQL}),
            ("POST", "/stream", {"sql": EVENTS_SQL}),
            ("POST", "/subscribe",
             {"sql": EVENTS_SQL, "window": {"size": 100.0, "on": "ts"}}),
        ):
            status, payload, headers = request(port, method, path, body)
            assert status == 503, f"{path} not shed"
            assert payload["error"]["code"] == "draining"
            assert "Retry-After" in headers
        # Reads keep working so operators can watch the drain.
        assert request(port, "GET", "/tables")[0] == 200
        assert request(port, "GET", "/stats")[0] == 200

    def test_draining_still_accepts_reconnects(self, drain_server):
        port, service = drain_server
        service.begin_drain()
        # The Last-Event-ID exemption: the request is NOT shed with 503 -
        # it reaches resume routing (here: 409, no such stream to resume).
        status, payload, _ = request(
            port, "POST", "/subscribe",
            {"sql": EVENTS_SQL, "query_id": "gone"},
            headers={"Last-Event-ID": "3"},
        )
        assert status == 409
        assert payload["error"]["code"] == "replay_gap"


class TestReconnectResume:
    @pytest.fixture()
    def paced_server(self):
        paced = PacedStream()
        session = connect(delta=0.1, seed=0, engine="memory")
        session.register("paced", IteratorSource(paced.chunks, schema=SCHEMA))
        service = QueryService(session, sessions=1, default_seed=0)
        handle = serve_in_thread(service)
        yield handle.port, paced, service
        paced.gate.set()
        handle.stop()

    def test_subscribe_reconnect_replays_byte_identical(self, paced_server):
        port, paced, service = paced_server
        body = {
            "sql": "SELECT g, AVG(v) FROM paced GROUP BY g",
            "window": {"size": 100.0, "on": "ts"},
            "emit_updates": False,
            "query_id": "rc-sub",
            "seed": 3,
        }
        conn, resp = open_sse(port, "POST", "/subscribe", body)
        raw = read_frames(resp, 2)
        # Drop mid-stream; the endless run stays in flight.  (Close the
        # response too - it keeps the socket fd alive via makefile.)
        resp.close()
        conn.close()
        first = complete_frames(raw)
        assert len(first) >= 2
        last_id, _, _ = parse_frame(first[1])

        # The server only notices the drop when a write fails; windows are
        # still flowing, so wait for the relay to detach, then throttle.
        deadline = time.monotonic() + DEADLINE
        while True:
            ticket = service._tickets.get("rc-sub")
            assert ticket is not None, "subscription retired unexpectedly"
            if not ticket.relay.attached:
                break
            assert time.monotonic() < deadline
            time.sleep(0.02)
        paced.gate.clear()

        # Reconnect asking for everything after frame 1: frame 2 must come
        # back byte-for-byte from the relay, then the live tail continues.
        conn2, resp2 = open_sse(
            port, "POST", "/subscribe", {"query_id": "rc-sub"},
            headers={"Last-Event-ID": str(last_id - 1)},
        )
        assert resp2.status == 200
        assert resp2.headers["Content-Type"].startswith("text/event-stream")
        buf = read_frames(resp2, 1)
        assert complete_frames(buf)[0] == first[1]  # byte-identical replay
        paced.gate.set()
        buf += read_frames(resp2, 2)  # at least one live frame after it
        request(port, "DELETE", "/query/rc-sub")
        buf += resp2.read()
        conn2.close()
        frames = [parse_frame(f) for f in complete_frames(buf)]
        ids = [fid for fid, _, _ in frames]
        assert ids == list(range(last_id, last_id + len(ids)))  # no gaps
        assert frames[-1][1] == "done" and frames[-1][2]["cancelled"] is True
        # The ticket retired with the done frame: a third reconnect has
        # nothing to attach to.
        status, payload, _ = request(
            port, "POST", "/subscribe", {"query_id": "rc-sub"},
            headers={"Last-Event-ID": str(last_id)},
        )
        assert status == 409 and payload["error"]["code"] == "replay_gap"

    def test_stream_reconnect_replays_and_finishes(self):
        """Driven at the service level, where the disconnect point is
        deterministic: drop the consumer after exactly one frame, then
        re-attach with Last-Event-ID and collect the rest."""
        session = connect(delta=0.1, seed=0, engine="memory")
        session.register("events", IteratorSource(finite_chunks, schema=SCHEMA))
        service = QueryService(session, sessions=1, default_seed=0)

        async def scenario():
            body = json.dumps({"sql": EVENTS_SQL, "query_id": "rc-stream"})
            resp = await service.handle("POST", "/stream", {}, body.encode())
            assert resp.status == 200
            agen = resp.body
            first = await agen.__anext__()
            await agen.aclose()  # client vanishes before `done`

            resume = await service.handle(
                "POST",
                "/stream",
                {"last-event-id": "0"},
                json.dumps({"query_id": "rc-stream"}).encode(),
            )
            assert resume.status == 200
            frames = [frame async for frame in resume.body]
            return first, frames

        try:
            first, frames = asyncio.run(scenario())
        finally:
            service.close()
        assert frames[0] == first  # resume from 0 replays frame 1 exactly
        parsed = [parse_frame(f.rstrip(b"\n")) for f in frames]
        assert [fid for fid, _, _ in parsed] == list(range(1, len(parsed) + 1))
        assert parsed[-1][1] == "done"
        assert parsed[-1][2]["result"]["aggregates"]

    def test_abandoned_stream_is_cancelled_by_the_janitor(self):
        """A client reads one frame, disconnects and never comes back: after
        RELAY_LINGER_S the janitor cancels the run and retires its ticket,
        the flight fails (so the same request is a fresh miss), and no
        thread the stream started survives.  RELAY_DEPTH=1 pins the pump
        in the relay so the janitor always finds the run in flight."""
        baseline = set(threading.enumerate())
        session = connect(delta=0.1, seed=0, engine="memory")
        session.register("events", IteratorSource(finite_chunks, schema=SCHEMA))
        service = QueryService(session, sessions=1, default_seed=0)
        service.RELAY_LINGER_S = 0.2
        service.RELAY_DEPTH = 1
        counters = service.tenants.state("public").counters
        body = json.dumps({"sql": EVENTS_SQL, "query_id": "walked-away"}).encode()

        async def scenario():
            resp = await service.handle("POST", "/stream", {}, body)
            assert resp.status == 200
            await resp.body.__anext__()
            await resp.body.aclose()  # gone for good
            until = asyncio.get_running_loop().time() + DEADLINE
            while counters.cancelled == 0 or "walked-away" in service._tickets:
                assert asyncio.get_running_loop().time() < until, "janitor never fired"
                await asyncio.sleep(0.02)
            again = await service.handle(
                "POST", "/stream", {}, json.dumps({"sql": EVENTS_SQL}).encode()
            )
            return [frame async for frame in again.body]

        try:
            frames = asyncio.run(scenario())
        finally:
            service.close()
        assert counters.cancelled == 1 and counters.errors == 0
        _, event, data = parse_frame(frames[-1].rstrip(b"\n"))
        assert event == "done" and data["cache"] == "miss"
        assert counters.completed == 1
        assert stray_threads(baseline) == []

    def test_reconnect_beyond_buffer_is_replay_gap(self, server):
        port, _service = server
        status, payload, _ = request(
            port, "POST", "/subscribe", {"query_id": "never-was"},
            headers={"Last-Event-ID": "1"},
        )
        assert status == 409
        assert payload["error"]["code"] == "replay_gap"
        assert "restart" in payload["error"]["message"]

    def test_reconnect_ahead_of_stream_is_replay_gap(self, server):
        port, _service = server
        holder = {}

        def hold():
            holder["result"] = sse_request(
                port, "POST", "/subscribe",
                {"sql": "SELECT g, AVG(v) FROM endless GROUP BY g",
                 "window": {"size": 100.0, "on": "ts"},
                 "emit_updates": False, "query_id": "ahead-sub"},
            )

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            deadline = time.monotonic() + DEADLINE
            while request(port, "GET", "/healthz")[1].get("inflight", 0) < 1:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            # An id the stream has not reached yet cannot be resumed from.
            status, payload, _ = request(
                port, "POST", "/subscribe", {"query_id": "ahead-sub"},
                headers={"Last-Event-ID": "999999"},
            )
            assert status == 409
            assert payload["error"]["code"] == "replay_gap"
            # While the original consumer is attached, a second consumer
            # at a valid position is refused too (single reader).
            status, payload, _ = request(
                port, "POST", "/subscribe", {"query_id": "ahead-sub"},
                headers={"Last-Event-ID": "0"},
            )
            assert status == 409
            assert payload["error"]["code"] == "already_attached"
        finally:
            request(port, "DELETE", "/query/ahead-sub")
            thread.join(timeout=DEADLINE)

    def test_non_integer_last_event_id_rejected(self, server):
        port, _service = server
        status, payload, _ = request(
            port, "POST", "/subscribe", {"query_id": "x"},
            headers={"Last-Event-ID": "abc"},
        )
        assert status == 400
        assert "Last-Event-ID" in payload["error"]["message"]


def _store_dataset(rows=500):
    rng = np.random.default_rng(11)
    return {
        "g": np.tile(np.array(["a", "b"]), rows // 2),
        "v": rng.random(rows) * 10.0,
        "ts": np.arange(rows, dtype=np.float64),
    }


def _checkpoint_gone(session, checkpoint_id):
    """True once the pump has retired the checkpoint.

    The pump retires the cursor before the terminal SSE frame lands, so
    the first check normally settles it; the poll is a safety margin.
    """
    deadline = time.monotonic() + DEADLINE
    while time.monotonic() < deadline:
        if session.catalog.load_checkpoint(checkpoint_id) is None:
            return True
        time.sleep(0.02)
    return False


def _window_payloads(frames):
    """Window frames minus wall-clock noise, for cross-run comparison."""
    out = []
    for _fid, event, data in frames:
        if event != "window":
            continue
        data = dict(data)
        data.pop("elapsed_seconds", None)
        out.append(data)
    return out


class TestDurableSubscriptions:
    @pytest.fixture()
    def durable_server(self, tmp_path):
        session = connect(store=tmp_path / "store", engine="memory", seed=0)
        session.attach("t", _store_dataset())
        service = QueryService(session, sessions=1, default_seed=0)
        handle = serve_in_thread(service)
        yield handle.port, service, session
        handle.stop()

    SQL = "SELECT g, AVG(v) FROM t GROUP BY g"
    SUB = {
        "sql": SQL,
        "window": {"size": 100.0, "on": "ts"},
        "emit_updates": False,
        "seed": 3,
    }

    def test_durable_needs_store_backed_service(self, server):
        port, _service = server
        status, text, _ = sse_request(
            port, "POST", "/subscribe",
            {"sql": EVENTS_SQL, "window": {"size": 100.0, "on": "ts"},
             "durable": True, "query_id": "d1"},
        )
        assert status == 400
        assert "store-backed" in json.loads(text)["error"]["message"]

    def test_durable_needs_explicit_query_id(self, durable_server):
        port, _service, _session = durable_server
        status, text, _ = sse_request(
            port, "POST", "/subscribe", {**self.SUB, "durable": True}
        )
        assert status == 400
        assert "query_id" in json.loads(text)["error"]["message"]

    def test_durable_checkpoint_deleted_on_completion(self, durable_server):
        port, _service, session = durable_server
        status, text, _ = sse_request(
            port, "POST", "/subscribe",
            {**self.SUB, "durable": True, "query_id": "night"},
        )
        assert status == 200
        frames = parse_frames(text)
        assert frames[-1][1] == "done" and frames[-1][2]["windows"] == 5
        # Completed cleanly: the checkpoint has nothing left to resume.
        assert _checkpoint_gone(session, "sub-public-night")

    def test_durable_resume_continues_bit_identical(self, durable_server):
        port, _service, session = durable_server
        # Reference: an uninterrupted non-durable run of the same query.
        status, text, _ = sse_request(port, "POST", "/subscribe", self.SUB)
        assert status == 200
        reference = _window_payloads(parse_frames(text))
        assert len(reference) == 5

        # A previous server life delivered two windows, then died: the
        # store holds its cursor.  (Written through the session API - the
        # same write path the serve tier uses.)
        spec = (
            session.sql(parse_query(self.SQL)).window(100.0, on="ts").spec()
        )
        session.catalog.save_checkpoint(
            "sub-public-night",
            kind="subscription",
            payload={
                "spec": spec.canonical_key(),
                "seed": 3,
                "max_windows": None,
                "emit_updates": False,
            },
            state={"emissions": 2},
        )
        # Re-subscribing durable with the same query_id resumes: only the
        # remaining three windows arrive, bit-identical to the reference.
        status, text, _ = sse_request(
            port, "POST", "/subscribe",
            {**self.SUB, "durable": True, "query_id": "night"},
        )
        assert status == 200
        frames = parse_frames(text)
        assert frames[-1][1] == "done"
        assert _window_payloads(frames) == reference[2:]
        assert _checkpoint_gone(session, "sub-public-night")

    def test_durable_resume_rejects_a_different_query(self, durable_server):
        port, _service, session = durable_server
        session.catalog.save_checkpoint(
            "sub-public-night",
            kind="subscription",
            payload={"spec": "something-else", "seed": 3,
                     "max_windows": None, "emit_updates": False},
            state={"emissions": 2},
        )
        status, text, _ = sse_request(
            port, "POST", "/subscribe",
            {**self.SUB, "durable": True, "query_id": "night"},
        )
        assert status == 409
        assert json.loads(text)["error"]["code"] == "checkpoint_mismatch"

    def test_failed_subscription_keeps_its_checkpoint(self, tmp_path):
        session = connect(store=tmp_path / "store", engine="memory", seed=0)
        session.register("broken", IteratorSource(broken_chunks, schema=SCHEMA))
        service = QueryService(session, sessions=1, default_seed=0)
        handle = serve_in_thread(service)
        try:
            status, text, _ = sse_request(
                handle.port, "POST", "/subscribe",
                {"sql": "SELECT g, AVG(v) FROM broken GROUP BY g",
                 "window": {"size": 50.0, "on": "ts"}, "emit_updates": False,
                 "seed": 3, "durable": True, "query_id": "fragile"},
            )
        finally:
            handle.stop()  # returns once the pump has settled the checkpoint
        assert status == 200
        frames = parse_frames(text)
        assert any(event == "window" for _, event, _ in frames)
        assert frames[-1][1] == "error"
        assert frames[-1][2]["error"]["code"] == "internal"
        # A failure is not the user abandoning the query: the cursor stays
        # for a later resume.
        reopened = connect(store=tmp_path / "store")
        try:
            assert reopened.catalog.load_checkpoint("sub-public-fragile") is not None
        finally:
            reopened.close()

    def test_explicit_cancel_drops_the_checkpoint(self, durable_server):
        port, _service, session = durable_server
        # An endless source: the subscription can only end via DELETE.
        paced = PacedStream()
        session.register(
            "endless2", IteratorSource(paced.chunks, schema=SCHEMA)
        )
        conn, resp = open_sse(
            port, "POST", "/subscribe",
            {"sql": "SELECT g, AVG(v) FROM endless2 GROUP BY g",
             "window": {"size": 100.0, "on": "ts"},
             "emit_updates": False, "seed": 3,
             "durable": True, "query_id": "night2"},
        )
        try:
            assert resp.status == 200
            buf = read_frames(resp, 1)  # at least one window is live
            request(port, "DELETE", "/query/night2")
            buf += resp.read()
        finally:
            paced.gate.clear()
            resp.close()
            conn.close()
        frames = [parse_frame(f) for f in complete_frames(buf)]
        assert frames[-1][1] == "done" and frames[-1][2]["cancelled"] is True
        # Explicit DELETE = the user abandoned it: no dangling checkpoint.
        assert _checkpoint_gone(session, "sub-public-night2")


class TestRelay:
    def test_pump_threads_and_loop_consumers_lose_no_frame_or_wakeup(self):
        """More pump threads than cores push through depth-2 relays while
        the real loop-side consumers walk them, with a tiny switch
        interval: every frame arrives once and in order, and no wake-up is
        lost (a lost one would hang the consumer until the timeout)."""
        from repro.serve.app import _Relay, _Ticket

        n_frames, n_pumps = 300, 2 * (os.cpu_count() or 1) + 1
        service = QueryService(connect(engine="memory"), sessions=1)
        relays = [_Relay(2) for _ in range(n_pumps)]

        def pump(relay):
            for i in range(1, n_frames + 1):
                time.sleep(0)  # let the consumer catch up and park
                relay.append(b"%d" % i)
            time.sleep(0)
            relay.append(b"end", terminal=True)

        async def consume(i, relay):
            ticket = _Ticket(query_id=f"r{i}", tenant="public")
            return [frame async for frame in service._relay_consume(ticket, relay, 0)]

        async def scenario():
            threads = [threading.Thread(target=pump, args=(r,)) for r in relays]
            for thread in threads:
                thread.start()
            try:
                return await asyncio.wait_for(
                    asyncio.gather(*(consume(i, r) for i, r in enumerate(relays))),
                    DEADLINE,
                )
            finally:
                for relay in relays:
                    relay.close()
                for thread in threads:
                    thread.join(10)
                    assert not thread.is_alive()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            delivered = asyncio.run(scenario())
        finally:
            sys.setswitchinterval(interval)
            service.close()
        expected = [b"%d" % i for i in range(1, n_frames + 1)] + [b"end"]
        assert delivered == [expected] * n_pumps

    def test_a_consumer_that_never_waits_still_yields_to_the_loop(self):
        """A pump that stays ahead never makes the consumer wait, and a
        socket with room never makes drain() wait: the consumer must yield
        between frames anyway, or one fast stream freezes the loop."""
        from repro.serve.app import _Relay, _Ticket

        service = QueryService(connect(engine="memory"), sessions=1)
        relay = _Relay(64)
        for i in range(1, 51):
            relay.append(b"%d" % i)
        relay.append(b"end", terminal=True)

        async def scenario():
            ticks = 0

            async def other_connection():
                nonlocal ticks
                while True:
                    ticks += 1
                    await asyncio.sleep(0)

            task = asyncio.ensure_future(other_connection())
            await asyncio.sleep(0)
            before = ticks
            ticket = _Ticket(query_id="fast", tenant="public")
            frames = [f async for f in service._relay_consume(ticket, relay, 0)]
            task.cancel()
            return frames, ticks - before

        try:
            frames, ticks = asyncio.run(scenario())
        finally:
            service.close()
        assert len(frames) == 51
        assert ticks >= 50


class TestShutdownWithOpenConnections:
    def test_stop_closes_an_idle_keepalive_connection(self, caplog):
        session = connect(delta=0.1, seed=0, engine="memory")
        service = QueryService(session, sessions=1, default_seed=0)
        handle = serve_in_thread(service)
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=DEADLINE)
        try:
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 200  # HTTP/1.1: the connection stays open
            with caplog.at_level(logging.WARNING, logger="asyncio"):
                start = time.monotonic()
                handle.stop()
                elapsed = time.monotonic() - start
                gc.collect()  # a leaked handler task logs when collected
        finally:
            conn.close()
        assert not handle.thread.is_alive()
        assert elapsed < 10
        assert [
            r.getMessage()
            for r in caplog.records
            if r.name == "asyncio" and r.levelno >= logging.WARNING
        ] == []


class TestSigtermDrain:
    def test_sigterm_drains_and_exits_zero(self):
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--flights",
             "--rows", "2000", "--port", str(port), "--drain-timeout", "5"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "listening" in line, line
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
        assert proc.returncode == 0, out
        assert "draining" in out and "stopped" in out
