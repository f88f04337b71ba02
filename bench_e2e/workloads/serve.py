"""``serve_cold`` / ``serve_hit``: HTTP against a server in its own process."""

from __future__ import annotations

import asyncio
import json
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

import repro
from repro.serve import QueryService, canonical_json
from repro.serve.wire import build_query_request
from repro.session.planner import execute_spec

from bench_e2e import ROOT, oracle
from bench_e2e.spec import DELTA
from bench_e2e.trace import Tracer
from bench_e2e.workloads.base import Round, Verdict, Workload, closed_loop, timed
from bench_e2e.workloads.oneshot import probe_front_door

SQL = "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier"
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def http_bytes(method: str, path: str, body: bytes = b"") -> bytes:
    """One keep-alive HTTP/1.1 request, ready for ``sendall``."""
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode("latin-1") + body


def query_bytes(seed: int, path: str = "/query") -> bytes:
    return http_bytes("POST", path, json.dumps({"sql": SQL, "seed": seed}).encode())


class Connection:
    """A keep-alive client over a raw socket.

    Kept this thin on purpose: on the hit path the whole op is ~0.6 ms, and
    a heavier client would be a large share of what is being measured.
    """

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk

    def request(self, raw: bytes) -> tuple[int, bytes]:
        """Send one request; returns (status, body)."""
        self.sock.sendall(raw)
        while b"\r\n\r\n" not in self._buf:
            self._fill()
        head, _, self._buf = self._buf.partition(b"\r\n\r\n")
        status = int(head[9:12])
        lowered = head.lower()
        at = lowered.index(b"content-length:") + len(b"content-length:")
        length = int(lowered[at:].split(b"\r\n", 1)[0])
        while len(self._buf) < length:
            self._fill()
        body, self._buf = self._buf[:length], self._buf[length:]
        return status, body

    def close(self) -> None:
        self.sock.close()


class Server:
    """The ``bench_e2e.server_main`` subprocess."""

    def __init__(self, rows: int) -> None:
        warn = [f"-W{opt}" for opt in sys.warnoptions]
        self.proc = subprocess.Popen(
            [sys.executable, *warn, "-m", "bench_e2e.server_main", "--rows", str(rows)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], BOOT_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not come up: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self) -> int:
        """SIGTERM (drain), wait; returns the exit code (0 = clean)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


def result_bytes(body: bytes) -> bytes:
    """The canonical ``result`` object inside a /query envelope.

    Envelopes are canonical JSON with sorted keys: ``cache``, ``query_id``,
    ``result``, ``tenant`` - so the result sits between two fixed markers.
    """
    start = body.index(b'"result":') + len(b'"result":')
    return body[start:body.rindex(b',"tenant":')]


class ServeCold(Workload):
    """Every request a fresh seed: the miss path, two connections."""

    name = "serve_cold"
    in_process = False
    connections = 2

    def setup(self) -> None:
        self.rows = 20_000 // self.scale
        self.server = Server(self.rows)
        self.conns = [Connection(self.server.port) for _ in range(self.connections)]
        self._local = None
        self._stats_mark = None

    def teardown(self) -> None:
        for conn in self.conns:
            conn.close()
        if self._local is not None:
            self._local.close()
        self.exit_code = self.server.stop()

    def op_seed(self, r: int, i: int) -> int:
        # fresh in every round too, or round 2 would be served from the cache
        return super().op_seed(r, i) + (r + 1) * self.n_ops

    def run_round(self, r: int, tracer: Tracer) -> Round:
        n = self.n_ops
        requests = [query_bytes(self.op_seed(r, i)) for i in range(n)]
        latencies, answers = [0.0] * n, [None] * n
        barrier = threading.Barrier(len(self.conns) + 1)

        def client(j: int, conn: Connection) -> None:
            barrier.wait()
            for i in range(j, n, len(self.conns)):
                t = time.perf_counter()
                try:
                    with tracer.span("op", op=i):
                        answers[i] = conn.request(requests[i])
                except Exception as exc:
                    answers[i] = exc
                latencies[i] = time.perf_counter() - t

        threads = [
            threading.Thread(target=client, args=(j, conn))
            for j, conn in enumerate(self.conns)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        return Round(latencies, time.perf_counter() - start, answers)

    # -- verification ----------------------------------------------------------

    expected_cache = b'"cache":"miss"'

    def local(self):
        """An in-process session over the same table: oracle and probes."""
        if self._local is None:
            self._local = repro.connect(delta=DELTA)
            self._local.attach(
                "flights", repro.SourceSpec("flights", rows=self.rows, seed=0)
            )
        return self._local

    def truth(self) -> dict[str, float]:
        return oracle.scan_means(self.local().catalog, "flights", "carrier", "arrival_delay")

    def view(self, answer) -> dict:
        return oracle.dict_view(json.loads(result_bytes(answer[1])))

    def verify(self, r: int, answers: list) -> Verdict:
        checked = []
        for answer in answers:
            if not isinstance(answer, Exception):
                status, body = answer
                if status != 200:
                    answer = RuntimeError(f"HTTP {status}: {body[:200]!r}")
                elif self.expected_cache not in body[:40]:
                    answer = RuntimeError(f"expected {self.expected_cache!r}: {body[:40]!r}")
            checked.append(answer)
        return super().verify(r, checked)

    # -- traced run ------------------------------------------------------------

    def get_json(self, path: str) -> dict:
        status, body = self.conns[0].request(http_bytes("GET", path))
        if status != 200:
            raise RuntimeError(f"GET {path}: HTTP {status}")
        return json.loads(body)

    def mark_timed_region(self) -> None:
        """Called right before the first timed round."""
        self._stats_mark = self.get_json("/stats")

    def region_stats(self) -> dict[str, float]:
        """/stats deltas over the timed region."""
        now, then = self.get_json("/stats"), self._stats_mark
        cache = {k: now["cache"][k] - then["cache"][k] for k in ("hits", "misses", "shared")}
        counters = [
            (now["tenants"][t]["counters"], then["tenants"].get(t, {}).get("counters", {}))
            for t in now["tenants"]
        ]
        lookups = cache["hits"] + cache["misses"] + cache["shared"]
        return {
            "serve.cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            "serve.cache.shared": float(cache["shared"]),
            "serve.admission.queued": float(
                sum(a["queued"] - b.get("queued", 0) for a, b in counters)
            ),
            "serve.admission.shed": float(
                sum(a["shed"] - b.get("shed", 0) for a, b in counters)
            ),
        }

    def probe_sse(self, tracer: Tracer, seed: int) -> int:
        """POST /stream on its own connection; returns update events seen."""
        sock = socket.create_connection(("127.0.0.1", self.server.port), timeout=120)
        try:
            data = b""
            with tracer.span("serve.sse_first_event"):
                sock.sendall(query_bytes(seed, "/stream"))
                while b"event: update" not in data:
                    chunk = sock.recv(1 << 16)
                    if not chunk:
                        raise ConnectionError("stream closed before the first event")
                    data += chunk
            while chunk := sock.recv(1 << 16):  # SSE replies are Connection: close
                data += chunk
        finally:
            sock.close()
        return data.count(b"event: update")

    def probe(self, tracer: Tracer, verdict: Verdict) -> dict[str, float]:
        extra = self.region_stats()
        session = self.local()
        spec = session.sql(SQL).spec()
        base = self.op_seed(self.n_ops, 0)  # seeds no round has used

        result = None
        for j in range(10):
            with tracer.span("session.execute_spec", op=j):
                result = execute_spec(spec, session.catalog, seed=base + j)
        probe_front_door(tracer, session, SQL, result)
        as_dict = result.to_dict()
        timed(tracer, "serve.canonical_json", lambda: canonical_json(as_dict), reps=20)
        timed(
            tracer, "serve.build_request",
            lambda: build_query_request({"sql": SQL, "seed": 1}, session, default_seed=0),
            reps=50,
        )

        # the service with no socket in front of it; every call is awaited
        # inside one running loop, so no loop start/stop lands in the spans
        service = QueryService(session, sessions=2, default_seed=0)

        async def handle_in_process() -> int:
            def body(seed: int) -> bytes:
                return json.dumps({"sql": SQL, "seed": seed}).encode()

            for j in range(10):
                with tracer.span("serve.handle_miss", op=j):
                    response = await service.handle("POST", "/query", {}, body(base + 100 + j))
            hit = body(base + 100)
            for _ in range(50):
                with tracer.span("serve.handle_hit"):
                    await service.handle("POST", "/query", {}, hit)
            return len(response.body)

        try:
            extra["serve.response_bytes"] = float(asyncio.run(handle_in_process()))
        finally:
            service.close()
            self._local = None  # service.close() closed the session

        # the socket in front of it: healthz is the floor of the HTTP stack
        conn = self.conns[0]
        healthz, hit = http_bytes("GET", "/healthz"), query_bytes(base + 200)
        conn.request(hit)
        timed(tracer, "serve.healthz", lambda: conn.request(healthz), reps=50)
        timed(tracer, "serve.hit_roundtrip", lambda: conn.request(hit), reps=50)
        extra["serve.http_overhead_ms"] = 1e3 * (
            tracer.best("serve.hit_roundtrip") - tracer.best("serve.handle_hit")
        )
        events = [self.probe_sse(tracer, base + 300 + j) for j in range(5)]
        extra["serve.sse_events_per_query"] = statistics.fmean(events)
        return extra


class ServeHit(ServeCold):
    """Eight pre-warmed dashboards cycled on one connection: the hit path."""

    name = "serve_hit"
    connections = 1
    dashboards = 8
    expected_cache = b'"cache":"hit"'

    def setup(self) -> None:
        super().setup()
        self.requests = [query_bytes(self.op_seed(0, d)) for d in range(self.dashboards)]
        # pre-warm: the first miss of each dashboard is the bytes every hit must equal
        self.first_miss = [self.conns[0].request(raw) for raw in self.requests]
        self._views = None

    def op_seed(self, r: int, i: int) -> int:
        return Workload.op_seed(self, r, i % self.dashboards)

    def run_round(self, r: int, tracer: Tracer) -> Round:
        conn, requests, d = self.conns[0], self.requests, self.dashboards

        return closed_loop(self.n_ops, lambda i: conn.request(requests[i % d]), tracer)

    def verify(self, r: int, answers: list) -> Verdict:
        """Each hit's result bytes equal its dashboard's first miss; the
        ordering check runs once per dashboard and counts for its hits."""
        verdict = Verdict()
        if self._views is None:
            truth = self.truth()
            self._views = []
            for status, body in self.first_miss:
                if status != 200 or b'"cache":"miss"' not in body[:40]:
                    verdict.fail(f"pre-warm was not a miss: HTTP {status} {body[:40]!r}")
                view = self.view((status, body))
                view["misordered"] = oracle.misordered(view["estimates"], truth)
                view["bytes"] = result_bytes(body)
                self._views.append(view)
        for i, answer in enumerate(answers):
            view = self._views[i % self.dashboards]
            if isinstance(answer, Exception):
                verdict.fail(f"op {i} raised {type(answer).__name__}: {answer}")
            elif answer[0] != 200 or self.expected_cache not in answer[1][:40]:
                verdict.fail(f"op {i}: HTTP {answer[0]} {answer[1][:40]!r}")
            elif result_bytes(answer[1]) != view["bytes"]:
                verdict.fail(f"op {i}: hit bytes differ from the first miss")
            else:
                verdict.samples += view["samples"]
                verdict.misordered += view["misordered"]
        return verdict
