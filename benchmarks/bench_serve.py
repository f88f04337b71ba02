"""Serving-path latency and throughput: cold execution vs cache hit (ISSUE 7).

Measures the full HTTP round trip through ``repro.serve`` - parse, admission,
execution on the session pool, canonical JSON encode - against the same
query served from the shared result cache.  Two regimes export:

* **cold** - every request carries a fresh seed, so each one executes a
  real IFOCUS run on the pool.  Latency is dominated by sampling.
* **hot** - the identical request repeated; after the first, every answer
  comes from the result cache as pre-encoded bytes.  Latency is pure
  service overhead (HTTP + lookup), the number the "many dashboards, one
  dataset" argument rests on.

``extra_info`` carries qps and p50/p99 milliseconds for both regimes.  All
ops export with ``"guard": false``: the medians measure socket and
scheduler behaviour of the recording machine, so ``scripts/check_bench.py``
must never treat them as regression evidence.

Export with ``python -m repro bench-export`` (writes BENCH_micro.json).
"""

from __future__ import annotations

import http.client
import json
import time

import numpy as np
import pytest

from repro import SourceSpec, connect
from repro.serve import QueryService, serve_in_thread

FLIGHTS_SQL = "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier"

_COLD_REQUESTS = 30
_HOT_REQUESTS = 300


def _boot(rows: int):
    session = connect(delta=0.1, seed=0)
    session.attach("flights", SourceSpec("flights", rows=rows, seed=0))
    service = QueryService(session, sessions=2, default_seed=0)
    return serve_in_thread(service)


def _post_query(port: int, body: dict) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("POST", "/query", body=json.dumps(body))
        resp = conn.getresponse()
        payload = json.loads(resp.read())
        assert resp.status == 200, payload
        return payload
    finally:
        conn.close()


def _measure(port: int, bodies) -> dict:
    """Sequential request latencies -> {qps, p50_ms, p99_ms}."""
    latencies = []
    t0 = time.perf_counter()
    for body in bodies:
        t = time.perf_counter()
        _post_query(port, body)
        latencies.append(time.perf_counter() - t)
    elapsed = time.perf_counter() - t0
    lat = np.asarray(latencies)
    return {
        "qps": round(len(lat) / elapsed, 2),
        "p50_ms": round(float(np.percentile(lat, 50)) * 1e3, 3),
        "p99_ms": round(float(np.percentile(lat, 99)) * 1e3, 3),
    }


def test_bench_serve_hit_smoke(benchmark):
    """Light sanity case (runs in --smoke): one executed query, then the
    benchmark times the cache-hit round trip end to end."""
    handle = _boot(rows=4_000)
    try:
        first = _post_query(handle.port, {"sql": FLIGHTS_SQL})
        assert first["cache"] == "miss"

        def hit():
            envelope = _post_query(handle.port, {"sql": FLIGHTS_SQL})
            assert envelope["cache"] == "hit"
            return envelope

        envelope = benchmark.pedantic(hit, rounds=5, iterations=1)
        assert envelope["result"] == first["result"]
    finally:
        handle.stop()
    benchmark.extra_info["rows"] = 4_000
    benchmark.extra_info["guard"] = False


@pytest.mark.bench
def test_bench_serve_cold_vs_hit(benchmark):
    """The headline table: cold-execution vs cache-hit qps and p50/p99.

    Cold requests rotate the seed so every one executes on the pool; hot
    requests repeat one (spec, seed) so all but the first are served from
    the shared cache.  The benchmark clock times a single hot round trip;
    the regime table exports via ``extra_info``.
    """
    handle = _boot(rows=20_000)
    try:
        cold = _measure(
            handle.port,
            ({"sql": FLIGHTS_SQL, "seed": 1000 + i} for i in range(_COLD_REQUESTS)),
        )
        _post_query(handle.port, {"sql": FLIGHTS_SQL, "seed": 7})  # warm the key
        hot = _measure(
            handle.port,
            ({"sql": FLIGHTS_SQL, "seed": 7} for _ in range(_HOT_REQUESTS)),
        )

        envelope = benchmark.pedantic(
            lambda: _post_query(handle.port, {"sql": FLIGHTS_SQL, "seed": 7}),
            rounds=10,
            iterations=1,
        )
        assert envelope["cache"] == "hit"
    finally:
        handle.stop()
    benchmark.extra_info["rows"] = 20_000
    benchmark.extra_info["cold_requests"] = _COLD_REQUESTS
    benchmark.extra_info["hot_requests"] = _HOT_REQUESTS
    benchmark.extra_info.update({f"cold_{k}": v for k, v in cold.items()})
    benchmark.extra_info.update({f"hot_{k}": v for k, v in hot.items()})
    benchmark.extra_info["guard"] = False
