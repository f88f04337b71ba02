"""End-to-end tests of the HTTP query service (repro.serve).

The acceptance criteria from the serve subsystem's design:

* two tenants submitting the same query concurrently cost exactly ONE
  execution (counters prove it) and both receive bit-identical JSON;
* an SSE client sees monotonically increasing update ids ending in `done`;
* an over-quota submit is shed with a structured error + retry-after;
* DELETE cancels queued entries (never run) and running queries (prompt);
* a re-registered / invalidated table never serves a stale cached Result;
* server shutdown leaves the shared-memory registry empty.

The "slow" table is the paper's hard Bernoulli family with a tiny gamma:
group means are statistically inseparable at any realistic sample count,
so its queries run until cancelled - a deterministic stand-in for a
long-running query.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro import SourceSpec, connect
from repro.engines.shm import REGISTRY
from repro.serve import (
    QueryService,
    TenantConfig,
    TenantRegistry,
    canonical_json,
    serve_in_thread,
)

FLIGHTS_SQL = "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier"

#: A spec that samples forever (see module docstring); always cancelled.
SLOW_SPEC = {
    "table": "slow",
    "group_by": ["g"],
    "aggregates": [{"func": "AVG", "column": "value"}],
    "engine": "memory",
}

DEADLINE = 120  # socket timeout: generous, tests finish far faster


def request(port, method, path, body=None, headers=None):
    """One JSON request; returns (status, parsed-body, response-headers)."""
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


def sse_request(port, body, headers=None):
    """POST /stream; returns (status, decoded event-stream text)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=DEADLINE)
    try:
        conn.request("POST", "/stream", body=json.dumps(body), headers=headers or {})
        resp = conn.getresponse()
        return resp.status, resp.read().decode("utf-8")
    finally:
        conn.close()


def poll(predicate, timeout=60, interval=0.02, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


def tenant_counters(port, tenant):
    _status, stats, _ = request(port, "GET", "/stats")
    entry = stats["tenants"].get(tenant)
    return entry["counters"] if entry else {}


@pytest.fixture(scope="module")
def server():
    session = connect(delta=0.1, seed=0)
    session.attach("flights", SourceSpec("flights", rows=20_000, seed=0))
    session.attach(
        "slow",
        SourceSpec("synthetic", family="hard", k=4, gamma=0.01, group_size=5_000_000),
    )
    tenants = TenantRegistry(TenantConfig(max_concurrent=4, queue_limit=16))
    tenants.configure("tiny", TenantConfig(max_concurrent=1, queue_limit=0))
    tenants.configure("narrow", TenantConfig(max_concurrent=1, queue_limit=2))
    service = QueryService(session, sessions=2, tenants=tenants, default_seed=0)
    handle = serve_in_thread(service)
    yield handle.port, service
    handle.stop()


class TestOpsSurface:
    def test_healthz(self, server):
        port, _service = server
        status, body, _ = request(port, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["tables"] == 2
        assert body["sessions"] == 2

    def test_tables(self, server):
        port, _service = server
        status, body, _ = request(port, "GET", "/tables")
        assert status == 200
        by_name = {t["name"]: t for t in body["tables"]}
        assert set(by_name) == {"flights", "slow"}
        assert by_name["flights"]["columns"]["carrier"] == "string"
        assert by_name["flights"]["columns"]["arrival_delay"] == "numeric"
        assert by_name["slow"]["kind"] == "synthetic"

    def test_tables_counts_resident_engine_builds(self, server):
        port, _service = server
        assert request(port, "POST", "/query", {"sql": FLIGHTS_SQL, "seed": 1})[0] == 200
        _status, body, _ = request(port, "GET", "/tables")
        by_name = {t["name"]: t for t in body["tables"]}
        assert by_name["flights"]["cached_engines"] >= 1

    def test_stats_shape(self, server):
        port, _service = server
        status, body, _ = request(port, "GET", "/stats")
        assert status == 200
        assert set(body) >= {"tenants", "cache", "inflight"}
        assert set(body["cache"]) >= {"hits", "misses", "stored", "entries"}


class TestQueryEndpoint:
    def test_two_tenants_one_execution_bit_identical(self, server):
        port, _service = server
        body = {"sql": FLIGHTS_SQL, "seed": 42}
        barrier = threading.Barrier(2)
        out = {}

        def submit(tenant):
            barrier.wait()
            out[tenant] = request(
                port, "POST", "/query", body, {"X-Repro-Tenant": tenant}
            )

        threads = [
            threading.Thread(target=submit, args=(t,)) for t in ("alpha", "beta")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        (s_a, env_a, _), (s_b, env_b, _) = out["alpha"], out["beta"]
        assert s_a == 200 and s_b == 200
        # bit-identical: the canonical encodings of both results match
        dump = lambda env: json.dumps(env["result"], sort_keys=True)  # noqa: E731
        assert dump(env_a) == dump(env_b)
        assert {env_a["cache"], env_b["cache"]} <= {"miss", "hit", "shared"}

        # counters prove exactly one execution, the other answered for free
        ca = tenant_counters(port, "alpha")
        cb = tenant_counters(port, "beta")
        assert ca["executed"] + cb["executed"] == 1
        assert (
            ca["cache_hits"] + cb["cache_hits"]
            + ca["singleflight_shared"] + cb["singleflight_shared"]
        ) == 1
        assert ca["errors"] == cb["errors"] == 0

    def test_result_carries_guarantees_and_accounting(self, server):
        port, _service = server
        status, env, _ = request(port, "POST", "/query", {"sql": FLIGHTS_SQL, "seed": 7})
        assert status == 200
        result = env["result"]
        assert result["guarantee"]["delta"] == 0.1
        assert result["total_samples"] > 0
        agg = result["aggregates"]["AVG(arrival_delay)"]
        assert set(agg["labels"]) == set(result["labels"])
        assert all(g["samples"] >= 0 for g in agg["groups"])
        assert result["deadline_exceeded"] is False
        # a repeat of the same request is a cache hit with identical bytes
        status2, env2, _ = request(
            port, "POST", "/query", {"sql": FLIGHTS_SQL, "seed": 7}
        )
        assert status2 == 200 and env2["cache"] == "hit"
        assert json.dumps(env2["result"], sort_keys=True) == json.dumps(
            result, sort_keys=True
        )

    def test_spec_and_sql_front_doors_share_the_cache(self, server):
        port, service = server
        status, env_sql, _ = request(
            port, "POST", "/query", {"sql": FLIGHTS_SQL, "seed": 11}
        )
        assert status == 200
        spec_dict = env_sql["result"]["spec"]
        status, env_spec, _ = request(
            port, "POST", "/query", {"spec": spec_dict, "seed": 11}
        )
        assert status == 200
        assert env_spec["cache"] == "hit"  # canonicalization is door-independent

    def test_tenant_defaults_flow_into_the_spec(self, server):
        port, service = server
        service.tenants.configure(
            "deadlined",
            TenantConfig(max_concurrent=2, queue_limit=4, deadline_ms=60_000.0),
        )
        status, env, _ = request(
            port,
            "POST",
            "/query",
            {"sql": FLIGHTS_SQL, "seed": 13},
            {"X-Repro-Tenant": "deadlined"},
        )
        assert status == 200
        assert env["result"]["spec"]["deadline_ms"] == 60_000.0


class TestErrors:
    def test_malformed_json_is_400(self, server):
        port, _service = server
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=DEADLINE)
        try:
            conn.request("POST", "/query", body="{nope")
            resp = conn.getresponse()
            body = json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 400
        assert body["error"]["code"] == "bad_json"

    def test_sql_and_spec_together_is_400(self, server):
        port, _service = server
        status, body, _ = request(
            port, "POST", "/query", {"sql": FLIGHTS_SQL, "spec": SLOW_SPEC}
        )
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_unknown_table_is_404(self, server):
        port, _service = server
        status, body, _ = request(
            port, "POST", "/query", {"sql": "SELECT g, AVG(v) FROM nope GROUP BY g"}
        )
        assert status == 404
        assert body["error"]["code"] == "unknown_table"

    def test_unknown_route_and_method(self, server):
        port, _service = server
        assert request(port, "GET", "/nope")[0] == 404
        assert request(port, "GET", "/query")[0] == 405

    def test_bad_spec_is_400(self, server):
        port, _service = server
        status, body, _ = request(
            port, "POST", "/query", {"spec": {"table": "flights"}}
        )
        assert status == 400
        assert body["error"]["code"] == "bad_query"

    @pytest.mark.parametrize(
        "raw, status, code",
        [
            (b"POST /query HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400, "bad_request"),
            (b"POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400, "bad_request"),
            (
                b"POST /query HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
                413,
                "payload_too_large",
            ),
            (b"GARBAGE\r\n\r\n", 400, "bad_request"),
        ],
        ids=["non_numeric_length", "negative_length", "oversized_length", "bad_request_line"],
    )
    def test_malformed_framing_gets_a_json_error(self, server, caplog, raw, status, code):
        port, _service = server
        with socket.create_connection(("127.0.0.1", port), timeout=DEADLINE) as sock:
            sock.sendall(raw)
            reply = b""
            while chunk := sock.recv(65536):  # server closes after answering
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"connection: close" in head.lower()
        assert json.loads(body)["error"]["code"] == code
        assert not [r for r in caplog.records if r.name == "asyncio"]


class TestAdmissionOverHTTP:
    def test_over_quota_is_shed_with_structured_error(self, server):
        port, _service = server
        headers = {"X-Repro-Tenant": "tiny"}  # quota 1, queue 0
        done = {}

        def run_slow():
            done["slow"] = request(
                port,
                "POST",
                "/query",
                {"spec": SLOW_SPEC, "seed": 201, "query_id": "tiny-slow"},
                headers,
            )

        thread = threading.Thread(target=run_slow)
        thread.start()
        poll(
            lambda: tenant_counters(port, "tiny").get("executed", 0) == 1,
            message="slow query to start executing",
        )

        status, body, resp_headers = request(
            port, "POST", "/query", {"spec": SLOW_SPEC, "seed": 202}, headers
        )
        assert status == 429
        assert body["error"]["code"] == "shed"
        assert body["error"]["tenant"] == "tiny"
        assert body["error"]["retry_after_ms"] > 0
        assert int(resp_headers["Retry-After"]) >= 1
        assert tenant_counters(port, "tiny")["shed"] == 1

        status, body, _ = request(port, "DELETE", "/query/tiny-slow")
        assert status == 200 and body["cancelled"] is True
        thread.join(timeout=DEADLINE)
        assert done["slow"][0] == 499
        assert done["slow"][1]["error"]["code"] == "cancelled"
        poll(
            lambda: not tenant_counters(port, "tiny") or
            request(port, "GET", "/stats")[1]["tenants"]["tiny"]["running"] == 0,
            message="slot release",
        )

    def test_cancel_queued_query_never_runs(self, server):
        port, _service = server
        headers = {"X-Repro-Tenant": "narrow"}  # quota 1, queue 2
        outcomes = {}

        def submit(name, seed):
            outcomes[name] = request(
                port,
                "POST",
                "/query",
                {"spec": SLOW_SPEC, "seed": seed, "query_id": name},
                headers,
            )

        runner = threading.Thread(target=submit, args=("n-run", 101))
        runner.start()
        poll(
            lambda: tenant_counters(port, "narrow").get("executed", 0) == 1,
            message="first narrow query to run",
        )
        queued = threading.Thread(target=submit, args=("n-queued", 102))
        queued.start()
        poll(
            lambda: request(port, "GET", "/stats")[1]["tenants"]["narrow"][
                "queued_now"
            ] == 1,
            message="second narrow query to queue",
        )

        status, body, _ = request(port, "DELETE", "/query/n-queued")
        assert status == 200 and body["cancelled"] is True
        queued.join(timeout=DEADLINE)
        assert outcomes["n-queued"][0] == 499
        counters = tenant_counters(port, "narrow")
        assert counters["executed"] == 1  # the queued query never ran
        assert counters["cancelled"] >= 1

        request(port, "DELETE", "/query/n-run")
        runner.join(timeout=DEADLINE)
        assert outcomes["n-run"][0] == 499
        poll(
            lambda: request(port, "GET", "/stats")[1]["tenants"]["narrow"][
                "running"
            ] == 0,
            message="narrow slot release",
        )

    def test_duplicate_query_id_conflicts(self, server):
        port, _service = server
        outcomes = {}

        def submit():
            outcomes["first"] = request(
                port,
                "POST",
                "/query",
                {"spec": SLOW_SPEC, "seed": 301, "query_id": "dup"},
            )

        thread = threading.Thread(target=submit)
        thread.start()
        poll(
            lambda: request(port, "GET", "/stats")[1]["inflight"] >= 1,
            message="first dup query in flight",
        )
        status, body, _ = request(
            port, "POST", "/query", {"spec": SLOW_SPEC, "seed": 302, "query_id": "dup"}
        )
        assert status == 409
        assert body["error"]["code"] == "duplicate_query_id"
        request(port, "DELETE", "/query/dup")
        thread.join(timeout=DEADLINE)
        assert outcomes["first"][0] == 499

    def test_cancel_unknown_query_is_404(self, server):
        port, _service = server
        status, body, _ = request(port, "DELETE", "/query/never-existed")
        assert status == 404
        assert body["error"]["code"] == "unknown_query"


def parse_sse(text):
    """Decode an event-stream body into [(id, event, data-dict)] frames."""
    frames = []
    for block in text.split("\n\n"):
        if not block.strip():
            continue
        event_id = event = None
        data_lines = []
        for line in block.splitlines():
            field, _, value = line.partition(":")
            value = value.lstrip()
            if field == "id":
                event_id = int(value)
            elif field == "event":
                event = value
            elif field == "data":
                data_lines.append(value)
        frames.append((event_id, event, json.loads("\n".join(data_lines))))
    return frames


class TestStreaming:
    def test_sse_monotonic_updates_ending_in_done(self, server):
        port, _service = server
        status, text = sse_request(port, {"sql": FLIGHTS_SQL, "seed": 500})
        assert status == 200
        frames = parse_sse(text)
        assert len(frames) >= 2
        *updates, done = frames
        for n, (event_id, event, data) in enumerate(updates, start=1):
            assert event_id == n  # monotonically numbered from 1
            assert event == "update"
            assert data["emitted_so_far"] == n
            assert data["group"]["samples"] > 0
        assert updates[-1][2]["emitted_so_far"] == updates[-1][2]["total_groups"]
        done_id, done_event, done_data = done
        assert done_event == "done"
        assert done_id == len(updates) + 1
        assert done_data["cache"] == "miss"
        assert done_data["result"]["total_samples"] > 0

    def test_sse_replays_from_cache(self, server):
        port, _service = server
        _status, first = sse_request(port, {"sql": FLIGHTS_SQL, "seed": 501})
        status, second = sse_request(port, {"sql": FLIGHTS_SQL, "seed": 501})
        assert status == 200
        first_frames, second_frames = parse_sse(first), parse_sse(second)
        assert second_frames[-1][1] == "done"
        assert second_frames[-1][2]["cache"] == "hit"
        assert len(second_frames) == len(first_frames)
        # replayed updates are marked non-live but carry the same groups
        assert all(f[2]["live"] is False for f in second_frames[:-1])
        assert json.dumps(second_frames[-1][2]["result"], sort_keys=True) == (
            json.dumps(first_frames[-1][2]["result"], sort_keys=True)
        )


    def test_query_hit_after_stream_is_a_fresh_miss(self, server):
        """/stream and /query run one executor, so a cache entry's bytes do
        not depend on which door filled it."""
        port, _service = server
        body = {"sql": FLIGHTS_SQL, "seed": 502}
        assert sse_request(port, body)[0] == 200
        status, hit, _ = request(port, "POST", "/query", body)
        assert status == 200 and hit["cache"] == "hit"

        session = connect(delta=0.1, seed=0)
        session.attach("flights", SourceSpec("flights", rows=20_000, seed=0))
        handle = serve_in_thread(QueryService(session, sessions=1, default_seed=0))
        try:
            status, miss, _ = request(handle.port, "POST", "/query", body)
        finally:
            handle.stop()
        assert status == 200 and miss["cache"] == "miss"
        hit_bytes = canonical_json(hit["result"])
        assert hit_bytes == canonical_json(miss["result"])
        assert b"ifocus-partial" not in hit_bytes
        for agg in hit["result"]["aggregates"].values():
            assert agg["algorithm"] == "ifocus"
            assert "reactivation" not in agg["raw"]["params"]


class TestCacheCoherence:
    def test_reregistered_csv_never_serves_stale_results(self, tmp_path):
        """The cache-coherence satellite: invalidate + rebind both evict."""
        csv = tmp_path / "metrics.csv"

        def write_rows(value):
            lines = ["g,v"] + [f"{g},{value + i}" for g in ("a", "b") for i in range(50)]
            csv.write_text("\n".join(lines) + "\n")

        write_rows(10.0)
        session = connect(delta=0.1, seed=0)
        session.attach("metrics", csv, group_columns=("g",), value_columns=("v",))
        service = QueryService(session, sessions=1, default_seed=0)
        handle = serve_in_thread(service)
        try:
            body = {
                "spec": {
                    "table": "metrics",
                    "group_by": ["g"],
                    "aggregates": [{"func": "AVG", "column": "v"}],
                    "engine": "memory",
                }
            }
            status, env1, _ = request(handle.port, "POST", "/query", body)
            assert status == 200 and env1["cache"] == "miss"
            old = env1["result"]["aggregates"]["AVG(v)"]["groups"][0]["estimate"]
            assert abs(old - (10.0 + 24.5)) < 5.0

            # the file changes on disk; Session.invalidate must evict the
            # server cache, not just the catalog's builds
            write_rows(1000.0)
            session.invalidate("metrics")
            status, env2, _ = request(handle.port, "POST", "/query", body)
            assert status == 200 and env2["cache"] == "miss"
            new = env2["result"]["aggregates"]["AVG(v)"]["groups"][0]["estimate"]
            assert new > 900.0  # fresh data, not the stale cached Result

            # rebinding the name is the other coherence door
            write_rows(5000.0)
            session.attach(
                "metrics", csv, group_columns=("g",), value_columns=("v",)
            )
            status, env3, _ = request(handle.port, "POST", "/query", body)
            assert status == 200 and env3["cache"] == "miss"
            rebound = env3["result"]["aggregates"]["AVG(v)"]["groups"][0]["estimate"]
            assert rebound > 4900.0
        finally:
            handle.stop()


class TestShutdown:
    def test_shutdown_leaves_shm_registry_empty(self):
        session = connect(delta=0.1, seed=0)
        session.attach("flights", SourceSpec("flights", rows=15_000, seed=0))
        service = QueryService(session, sessions=2, default_seed=0)
        handle = serve_in_thread(service)
        try:
            body = {
                "spec": {
                    "table": "flights",
                    "group_by": ["carrier"],
                    "aggregates": [{"func": "AVG", "column": "arrival_delay"}],
                    "engine": "memory",
                    "shards": 2,
                    "executor": "process",
                },
                "seed": 600,
            }
            status, env, _ = request(handle.port, "POST", "/query", body)
            assert status == 200
            assert env["result"]["total_samples"] > 0
        finally:
            handle.stop()
        assert REGISTRY.active_count() == 0
