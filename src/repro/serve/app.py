"""The query service: session pool, routes, and the asyncio HTTP server.

``repro.serve`` turns one set of registered tables into an always-on,
multi-tenant endpoint (``repro serve`` on the command line).  The shape:

* a :class:`SessionPool` - N :class:`~repro.session.Session` objects
  sharing ONE catalog (sources *and* build caches), so every session
  serves the same tables and a table scanned by one is warm for all;
* an :class:`~repro.serve.admission.AdmissionController` metering
  *executions* per tenant (admit / queue / shed);
* a :class:`~repro.serve.cache.ResultCache` shared across tenants:
  completed Results by canonical spec + seed, with single-flight collapse
  of concurrent identical queries and catalog-invalidation hooks;
* a deliberately small HTTP/1.1 layer on ``asyncio.start_server`` -
  stdlib only, JSON bodies, SSE for streams.

Routes::

    GET    /healthz        liveness + table count
    GET    /readyz         readiness; 503 once the server is draining
    GET    /tables         registered sources (schema, kind, cache state)
    GET    /stats          per-tenant counters + cache stats
    POST   /query          execute; JSON Result envelope
    POST   /stream         execute; SSE PartialUpdates, then `done`
    GET    /subscribe      continuous windowed query; SSE window events
    POST   /subscribe      same, with the window described in the JSON body
    DELETE /query/{id}     cancel a queued/running query OR a subscription

SSE responses are resumable: every live stream runs through a bounded
replay relay, so a client that loses the connection re-sends the same
request with a ``Last-Event-ID`` header and (while the relay still holds
the next frame) receives the missed frames byte-identically and then the
live tail.  A reconnect past the buffer gets a structured 409
(``replay_gap``) telling it to restart the query.  Each live stream is
pumped into its relay by one daemon thread; the response side awaits the
relay on the event loop, so no SSE wait ever holds a thread of the loop's
shared executor.

On SIGTERM the server *drains*: ``/readyz`` flips to 503, new work is
shed with ``Retry-After``, in-flight queries run to completion (or are
cooperatively cancelled at ``--drain-timeout``), and the process exits 0.

Every execution route reads the tenant from the ``X-Repro-Tenant`` header
(or a ``tenant`` body field) and applies that tenant's quotas and default
query knobs.  Cache hits and single-flight followers bypass admission
entirely: quotas meter *work*, not answers.

Subscriptions (``/subscribe``) are long-lived: one request holds an SSE
stream open for the lifetime of a :class:`~repro.streaming.ContinuousQuery`.
They are admitted against the tenant's ``max_subscriptions`` slots rather
than the execution queue (parking a many-window stream in an execution
slot would starve the tenant's one-shot queries), never cached (each
window is fresh work), and cancellable mid-stream via ``DELETE
/query/{id}`` with the subscription's query id.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import itertools
import threading
import urllib.parse
from dataclasses import dataclass
from typing import AsyncIterator

from repro.errors import QueryCancelled
from repro.resilience.deadline import Deadline
from repro.serve.admission import Admission, AdmissionController, QueryShed
from repro.serve.cache import ResultCache
from repro.serve.sse import SSE_HEADERS, sse_event
from repro.serve.tenants import DEFAULT_TENANT, TenantConfig, TenantRegistry
from repro.serve.wire import (
    WireError,
    apply_tenant_defaults,
    build_query_request,
    canonical_json,
    error_payload,
    parse_json_body,
)
from repro.session.planner import _replay_updates, stream_spec
from repro.session.result import Result
from repro.session.session import QueryFuture, Session, connect
from repro.streaming import WindowSpec
from repro.streaming.continuous import ContinuousQuery
from repro.streaming.runner import WindowResult

__all__ = [
    "SessionPool",
    "QueryService",
    "ReproServer",
    "ServerHandle",
    "serve_in_thread",
    "run_server",
]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    499: "Client Closed Request",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _RelayClosed(Exception):
    """The replay relay was torn down (janitor expiry or service close)."""


class _Relay:
    """A bounded, replayable frame buffer between one SSE pump and at most
    one attached consumer.

    The pump (a daemon thread) appends finished SSE frames; the consumer
    (the HTTP response generator, on the event loop) walks them by id.
    Frames stay in the deque after delivery, so a client that reconnects
    with ``Last-Event-ID: n`` replays from ``n + 1`` byte-identically - the
    relay is the reconnect window.  Backpressure: ``append`` blocks the
    pump once ``depth`` frames are undelivered (terminal frames always
    land, so a finished query can always say so).  The consumer never
    blocks a thread: :meth:`poll` returns a frame or parks a future on
    the consumer's loop that the next ``append`` or ``close`` resolves.  Delivered frames are
    evicted only when the deque outgrows ``depth``; ``gap`` reports whether
    a resume point has been evicted.
    """

    def __init__(self, depth: int) -> None:
        self._depth = depth
        self._frames: "collections.deque[tuple[int, bytes, bool]]" = collections.deque()
        self._last_id = 0
        self._first_id = 1
        self._delivered = 0
        self._finished = False
        self._closed = False
        self._waiter: "asyncio.Future | None" = None
        self._cond = threading.Condition()
        #: True while an HTTP response generator is walking this relay.
        self.attached = False

    def append(self, frame: bytes, *, terminal: bool = False) -> int:
        with self._cond:
            while (
                not self._closed
                and not terminal
                and self._last_id - self._delivered >= self._depth
            ):
                self._cond.wait()
            if self._closed:
                raise _RelayClosed()
            self._last_id += 1
            self._frames.append((self._last_id, frame, terminal))
            while (
                len(self._frames) > self._depth
                and self._frames[0][0] <= self._delivered
            ):
                self._frames.popleft()
                self._first_id += 1
            if terminal:
                self._finished = True
            self._wake()
            return self._last_id

    def poll(self, pos: int, loop: asyncio.AbstractEventLoop):
        """The first frame with id > pos; None on close/exhaustion; else a
        ``loop`` future, resolved by the next append or close."""
        with self._cond:
            if pos > self._delivered:
                self._delivered = pos
                self._cond.notify_all()
            if self._closed:
                return None
            index = max(pos + 1 - self._first_id, 0)
            if index < len(self._frames):
                return self._frames[index]
            if self._finished:
                return None
            self._waiter = loop.create_future()
            return self._waiter

    def gap(self, last_id: int) -> bool:
        """True when resuming after ``last_id`` would skip evicted frames."""
        with self._cond:
            return last_id + 1 < self._first_id or last_id > self._last_id

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            self._wake()

    def _wake(self) -> None:
        waiter, self._waiter = self._waiter, None
        if waiter is not None:
            try:
                waiter.get_loop().call_soon_threadsafe(_resolve, waiter)
            except RuntimeError:
                pass  # the loop is closed: nobody is waiting any more


def _resolve(waiter: "asyncio.Future") -> None:
    if not waiter.done():
        waiter.set_result(None)


class SessionPool:
    """N sessions, one catalog: shared sources and build caches.

    The primary session is the one whose knobs (delta, algorithm, engine,
    shards, ...) and catalog define the service; the extras are clones
    sharing its catalog, so any of them can run any registered query and
    the first materialization of a table warms all of them.  Queries are
    handed out round-robin, giving each its own submit pool.
    """

    def __init__(self, primary: Session, size: int = 2) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.primary = primary
        self._sessions = [primary] + [
            connect(
                delta=primary.delta,
                resolution=primary.resolution,
                algorithm=primary.algorithm,
                engine=primary.engine,
                seed=primary.seed,
                shards=primary.shards,
                max_workers=primary.max_workers,
                executor=primary.executor,
                submit_workers=primary.submit_workers,
                deadline_ms=primary.deadline_ms,
                max_retries=primary.max_retries,
                catalog=primary.catalog,
            )
            for _ in range(size - 1)
        ]
        self._next = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def next(self) -> Session:
        session = self._sessions[self._next % len(self._sessions)]
        self._next += 1
        return session

    def close(self) -> None:
        """Close every session; in-flight work drains.

        The primary closes last: it closes the shared catalog it created
        (and with it every cached fan-out) once the clones are done.
        """
        for session in reversed(self._sessions):
            session.close()


@dataclass
class _Ticket:
    """One in-flight query's cancellation handles (DELETE /query/{id})."""

    query_id: str
    tenant: str
    admission: Admission | None = None
    qfuture: QueryFuture | None = None
    deadline: Deadline | None = None
    subscription: ContinuousQuery | None = None
    relay: _Relay | None = None
    #: Durable-subscription checkpoint name (None for everything else).
    checkpoint_id: str | None = None
    #: Set by an explicit DELETE so the checkpoint dies with the query;
    #: janitor/shutdown cancels retain it for a later resume.
    drop_checkpoint: bool = False

    def cancel(self) -> bool:
        """Cancel wherever the query currently is: queue, pool, or mid-run."""
        hit = False
        if self.admission is not None and self.admission.cancel():
            hit = True
        if self.qfuture is not None and self.qfuture.cancel():
            hit = True
        elif self.deadline is not None:
            self.deadline.cancel()
            hit = True
        if self.subscription is not None:
            self.subscription.cancel()
            hit = True
        return hit


@dataclass
class _Response:
    """One HTTP response: JSON bytes or an async byte-chunk stream (SSE)."""

    status: int
    body: "bytes | AsyncIterator[bytes]"
    headers: tuple = ()
    content_type: str = "application/json"


def _json_response(status: int, obj, headers: tuple = ()) -> _Response:
    return _Response(status, canonical_json(obj), headers=headers)


#: GET /subscribe query parameters -> JSON body keys (+ parser).  The GET
#: form exists so ``EventSource``-style clients (no request body) can open
#: subscriptions; it is sugar for the POST body and shares its validation.
_SUBSCRIBE_PARAMS = {
    "sql": ("sql", str),
    "tenant": ("tenant", str),
    "query_id": ("query_id", str),
    "seed": ("seed", int),
    "max_windows": ("max_windows", int),
    "window_size": ("size", float),
    "window_every": ("every", float),
    "window_on": ("on", str),
    "window_late": ("late", str),
    "window_lateness": ("allowed_lateness", float),
    "window_origin": ("origin", float),
}

_WINDOW_KEYS = {"size", "every", "on", "late", "allowed_lateness", "origin"}


def _subscribe_params(target: str) -> dict:
    """Lower ``GET /subscribe?...`` query parameters to a request body."""
    query = urllib.parse.urlsplit(target).query
    body: dict = {}
    window: dict = {}
    for name, values in urllib.parse.parse_qs(query).items():
        mapping = _SUBSCRIBE_PARAMS.get(name)
        if mapping is None:
            if name in ("updates", "durable"):
                key = "emit_updates" if name == "updates" else "durable"
                body[key] = values[-1].lower() not in ("0", "false", "no")
                continue
            raise WireError(
                400, "bad_request", f"unknown /subscribe parameter {name!r}"
            )
        key, convert = mapping
        try:
            value = convert(values[-1])
        except ValueError:
            raise WireError(
                400,
                "bad_request",
                f"parameter {name!r} must be {convert.__name__}, got {values[-1]!r}",
            )
        if key in _WINDOW_KEYS:
            window[key] = value
        else:
            body[key] = value
    if window:
        body["window"] = window
    return body


class QueryService:
    """Routing + the admission/cache/execute flow, independent of transport.

    All handler methods run on one event loop; blocking execution happens
    in session submit pools (``/query``, bridged back with futures) or in
    one pump thread per live SSE stream (``/stream``, ``/subscribe``),
    bridged back through the stream's relay.
    """

    #: Frames each live SSE stream keeps for ``Last-Event-ID`` reconnects,
    #: and the most it buffers ahead of a slow client: a pump with this
    #: many undelivered frames blocks until the client catches up.
    RELAY_DEPTH = 256

    #: How long a disconnected stream waits for its client to come back
    #: before the run is cancelled and its ticket retired.
    RELAY_LINGER_S = 30.0

    def __init__(
        self,
        session: Session | None = None,
        *,
        sessions: int = 2,
        tenants: TenantRegistry | None = None,
        default_tenant_config: TenantConfig | None = None,
        cache_entries: int = 256,
        default_seed: int | None = 0,
    ) -> None:
        self.pool = SessionPool(session if session is not None else connect(), sessions)
        if tenants is not None and default_tenant_config is not None:
            raise ValueError("pass tenants or default_tenant_config, not both")
        self.tenants = tenants if tenants is not None else TenantRegistry(
            default_tenant_config
        )
        self.admission = AdmissionController(self.tenants)
        # default_seed=0 (not None) on purpose: identical requests must be
        # deterministic, or the shared cache could never serve two clients
        # the same bytes.  Clients wanting fresh randomness pass "seed".
        self.default_seed = default_seed
        self.cache = ResultCache(cache_entries).attach(self.pool.primary.catalog)
        # Durable subscriptions checkpoint through the catalog when it is
        # store-backed; a memory-only service simply rejects `durable`.
        catalog = self.pool.primary.catalog
        self._checkpoints = catalog if hasattr(catalog, "save_checkpoint") else None
        self._tickets: dict[str, _Ticket] = {}
        #: One future per live pump, resolved once its stream has settled.
        self._pumps: "set[asyncio.Future]" = set()
        self._auto_id = itertools.count(1)
        self._draining = False
        self._closed = False

    # -- routing -------------------------------------------------------------

    async def handle(self, method: str, target: str, headers: dict, body: bytes) -> _Response:
        path = target.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            return self._healthz()
        if path == "/readyz" and method == "GET":
            return self._readyz()
        if path == "/tables" and method == "GET":
            return self._tables()
        if path == "/stats" and method == "GET":
            return self._stats()
        # A draining server sheds new work but still serves reconnects
        # (Last-Event-ID) so in-flight streams can finish delivering.
        if (
            self._draining
            and (
                (path in ("/query", "/stream") and method == "POST")
                or (path == "/subscribe" and method in ("GET", "POST"))
            )
            and "last-event-id" not in headers
        ):
            return _json_response(
                503,
                error_payload("draining", "server is draining; no new work admitted"),
                headers=(("Retry-After", "2"),),
            )
        last_event = headers.get("last-event-id")
        if path in ("/query", "/stream") and method == "POST":
            parsed = parse_json_body(body)
            tenant = self._tenant_of(headers, parsed)
            if path == "/query":
                return await self._query(parsed, tenant)
            return await self._stream(parsed, tenant, last_event)
        if path == "/subscribe" and method in ("GET", "POST"):
            parsed = (
                _subscribe_params(target) if method == "GET" else parse_json_body(body)
            )
            tenant = self._tenant_of(headers, parsed)
            return await self._subscribe(parsed, tenant, last_event)
        if path.startswith("/query/") and method == "DELETE":
            return self._cancel(path[len("/query/"):])
        if path in ("/healthz", "/readyz", "/tables", "/stats", "/query", "/stream",
                    "/subscribe"):
            return _json_response(
                405, error_payload("method_not_allowed", f"{method} {path}")
            )
        return _json_response(404, error_payload("not_found", f"no route for {path}"))

    def _tenant_of(self, headers: dict, body: dict) -> str:
        tenant = headers.get("x-repro-tenant") or body.get("tenant") or DEFAULT_TENANT
        if not isinstance(tenant, str) or not tenant or len(tenant) > 200:
            raise WireError(400, "bad_request", "'tenant' must be a short string")
        return tenant

    # -- ops surface ---------------------------------------------------------

    def _healthz(self) -> _Response:
        return _json_response(
            200,
            {
                "status": "ok",
                "tables": len(self.pool.primary.tables),
                "sessions": len(self.pool),
                "inflight": len(self._tickets),
            },
        )

    def _readyz(self) -> _Response:
        """Readiness, distinct from liveness: a draining server is still
        alive (/healthz 200) but must be rotated out of load balancing."""
        if self._draining or self._closed:
            return _json_response(
                503,
                {"ready": False, "draining": True, "inflight": len(self._tickets)},
                headers=(("Retry-After", "2"),),
            )
        return _json_response(200, {"ready": True, "inflight": len(self._tickets)})

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight(self) -> int:
        return len(self._tickets)

    def begin_drain(self) -> None:
        """Stop admitting new work; in-flight work keeps running."""
        self._draining = True

    def _tables(self) -> _Response:
        catalog = self.pool.primary.catalog
        tables = []
        for name in sorted(catalog.names):
            info = catalog.describe(name)
            tables.append(
                {
                    "name": info.name,
                    "kind": info.kind,
                    "description": info.description,
                    "columns": {c.name: c.kind for c in info.schema},
                    "rows": info.row_count_hint,
                    "table_cached": info.table_cached,
                    "cached_populations": len(info.cached_populations),
                    "cached_engines": len(info.cached_engines),
                    "cached_fanouts": [
                        {
                            "shards": fan.shards,
                            "executor": fan.executor,
                            "workers": fan.workers,
                        }
                        for fan in info.cached_fanouts
                    ],
                }
            )
        return _json_response(200, {"tables": tables})

    def _stats(self) -> _Response:
        cache = self.cache.stats.to_dict()
        cache["entries"] = len(self.cache)
        return _json_response(
            200,
            {
                "tenants": self.tenants.snapshot(),
                "cache": cache,
                "inflight": len(self._tickets),
            },
        )

    # -- cancel --------------------------------------------------------------

    def _cancel(self, query_id: str) -> _Response:
        ticket = self._tickets.get(query_id)
        if ticket is None:
            return _json_response(
                404,
                error_payload(
                    "unknown_query", f"no in-flight query with id {query_id!r}"
                ),
            )
        # An explicit cancel is the user abandoning the subscription, so
        # its checkpoint goes too (set before cancel(): the pump reads the
        # flag once the runner has stopped).
        if ticket.checkpoint_id is not None:
            ticket.drop_checkpoint = True
        cancelled = ticket.cancel()
        return _json_response(
            200,
            {"query_id": query_id, "tenant": ticket.tenant, "cancelled": cancelled},
        )

    # -- execution helpers ---------------------------------------------------

    def _prepare(self, body: dict, tenant: str):
        """Parse + tenant-default a request; returns (spec, seed, key, state)."""
        state = self.tenants.state(tenant)
        request = build_query_request(
            body, self.pool.primary, default_seed=self.default_seed
        )
        spec = apply_tenant_defaults(request, state.config)
        key = (spec.canonical_key(), repr(request.seed))
        return request, spec, key, state

    def _register_ticket(self, requested_id: str | None, tenant: str) -> _Ticket:
        query_id = requested_id if requested_id is not None else f"q-{next(self._auto_id)}"
        if query_id in self._tickets:
            raise WireError(
                409, "duplicate_query_id", f"query id {query_id!r} is already in flight"
            )
        ticket = _Ticket(query_id=query_id, tenant=tenant)
        self._tickets[query_id] = ticket
        return ticket

    def _envelope(self, query_id: str, tenant: str, mode: str, result: Result) -> dict:
        # The embedded dict re-encodes byte-identically under canonical_json
        # (sorted keys, fixed separators), so every reader of one cached
        # entry - hit, shared, or the leader itself - gets the same bytes.
        return {
            "query_id": query_id,
            "tenant": tenant,
            "cache": mode,
            "result": result.to_dict(),
        }

    # -- SSE relay plumbing ---------------------------------------------------

    def _spawn_pump(self, ticket: _Ticket, events, frame, end, fail, cleanup) -> _Response:
        """Pump one live SSE stream into a new relay from its own thread.

        The pump thread opens ``events()`` - the library's event iterator,
        a ``ResultStream`` or ``ContinuousQuery.updates()`` - and appends
        ``frame(event, id)`` for each event; the relay's ``append`` is the
        only backpressure.  Once the iterator is over, one
        ``call_soon_threadsafe`` settles what the loop owns (flight
        futures, counters, admission and subscription slots):
        ``end(events, id)`` or ``fail(exc, id)`` makes the terminal frame,
        ``cleanup(abandoned)`` runs, and only then does the frame land, so
        a client that reads it sees that state settled.  A relay closed
        under the pump (janitor expiry or service close, after the
        ticket's cancel fired) means nobody is listening: the pump drains
        the iterator, so no producer outlives it, and runs only
        ``cleanup(True)``.  Returns the SSE response over the relay.
        """
        loop = asyncio.get_running_loop()
        relay = ticket.relay = _Relay(self.RELAY_DEPTH)
        settled = loop.create_future()
        self._pumps.add(settled)
        settled.add_done_callback(self._pumps.discard)

        def settle(make, outcome, event_id: int) -> None:
            try:
                terminal = None if make is None else make(outcome, event_id)
            finally:
                cleanup(make is None)
                settled.set_result(None)
            if terminal is not None:
                try:
                    relay.append(terminal, terminal=True)
                except _RelayClosed:
                    pass  # finished, but nobody is left to tell

        def pump() -> None:
            n = 0
            stream = ()
            try:
                stream = events()
                for event in stream:
                    n += 1
                    relay.append(frame(event, n))
                outcome = (end, stream)
            except _RelayClosed:
                try:
                    for _ in stream:
                        pass
                except Exception:
                    pass  # the run's end is nobody's news now
                outcome = (None, None)
            except Exception as exc:  # reported as the terminal error frame
                outcome = (fail, exc)
            try:
                loop.call_soon_threadsafe(settle, *outcome, n + 1)
            except RuntimeError:
                pass  # the loop is closed: nobody is left to tell

        threading.Thread(target=pump, daemon=True, name="repro-serve-pump").start()
        return _Response(
            200, self._relay_consume(ticket, relay, 0), headers=SSE_HEADERS
        )

    async def _relay_consume(
        self, ticket: _Ticket, relay: _Relay, last_id: int
    ) -> AsyncIterator[bytes]:
        """The HTTP side of a relayed stream: frames after ``last_id``.

        On a terminal frame the query is over and the ticket retires.  On
        disconnect (generator close) the pump keeps running and a janitor
        gives the client ``RELAY_LINGER_S`` to reconnect before the run is
        cancelled.
        """
        loop = asyncio.get_running_loop()
        relay.attached = True
        pos = last_id
        delivered_terminal = False
        try:
            while True:
                frame = relay.poll(pos, loop)
                if isinstance(frame, asyncio.Future):
                    await frame
                    continue
                if frame is None:
                    return
                pos, data, terminal = frame
                yield data
                if terminal:
                    delivered_terminal = True
                    return
                # A pump that stays ahead never makes this loop wait, and
                # the writer's drain() only waits on a full socket: yield
                # so one fast stream cannot monopolise the loop.
                await asyncio.sleep(0)
        finally:
            relay.attached = False
            if delivered_terminal:
                self._tickets.pop(ticket.query_id, None)
            else:
                self._schedule_relay_janitor(ticket, relay)

    def _schedule_relay_janitor(self, ticket: _Ticket, relay: _Relay) -> None:
        def expire() -> None:
            if relay.attached or self._tickets.get(ticket.query_id) is not ticket:
                return  # reconnected, or already retired
            ticket.cancel()
            relay.close()
            self._tickets.pop(ticket.query_id, None)

        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            expire()  # loop already gone (shutdown): tear down now
            return
        loop.call_later(self.RELAY_LINGER_S, expire)

    def _resume_sse(self, query_id, last_event: str) -> _Response:
        """Re-attach a reconnecting client to its in-flight stream."""
        try:
            last_id = int(last_event)
        except (TypeError, ValueError):
            raise WireError(
                400,
                "bad_request",
                f"Last-Event-ID must be an integer event id, got {last_event!r}",
            )
        if not isinstance(query_id, str) or not query_id:
            raise WireError(
                400,
                "bad_request",
                "reconnecting with Last-Event-ID needs the original 'query_id'",
            )
        ticket = self._tickets.get(query_id)
        relay = ticket.relay if ticket is not None else None
        if relay is None or relay.gap(last_id):
            return _json_response(
                409,
                error_payload(
                    "replay_gap",
                    f"cannot resume {query_id!r} after event {last_id}: the "
                    "replay buffer no longer holds the next frame; restart "
                    "the query",
                ),
            )
        if relay.attached:
            return _json_response(
                409,
                error_payload(
                    "already_attached",
                    f"{query_id!r} already has a live consumer",
                ),
            )
        return _Response(
            200, self._relay_consume(ticket, relay, last_id), headers=SSE_HEADERS
        )

    # -- POST /query ---------------------------------------------------------

    async def _query(self, body: dict, tenant: str) -> _Response:
        request, spec, key, state = self._prepare(body, tenant)
        counters = state.counters

        cached = self.cache.get(key)
        if cached is not None:
            counters.cache_hits += 1
            result, _payload = cached
            return _json_response(
                200, self._envelope(f"q-{next(self._auto_id)}", tenant, "hit", result)
            )

        flight = self.cache.flight(key)
        if flight is not None:
            counters.singleflight_shared += 1
            result, _payload = await self.cache.follow(flight)
            return _json_response(
                200,
                self._envelope(f"q-{next(self._auto_id)}", tenant, "shared", result),
            )

        # Leader path.  No awaits between begin_flight and admission.submit,
        # so a shed leader fails its flight before any follower can attach.
        ticket = self._register_ticket(request.query_id, tenant)
        flight = self.cache.begin_flight(key, spec.table)
        admission: Admission | None = None
        try:
            admission = self.admission.submit(tenant)
            ticket.admission = admission
            await admission.wait()
            session = self.pool.next()
            qfuture = session.submit(spec, seed=request.seed)
            ticket.qfuture = qfuture
            counters.executed += 1
            try:
                result = await asyncio.wrap_future(qfuture.inner)
            except asyncio.CancelledError:
                if qfuture.cancelled() or qfuture.done():
                    raise QueryCancelled("query cancelled while running") from None
                qfuture.cancel()  # handler task itself was cancelled
                raise
            payload = canonical_json(result.to_dict())
            self.cache.complete_flight(flight, result, payload)
            counters.completed += 1
            if result.deadline_exceeded:
                counters.deadline_expired += 1
            return _json_response(
                200, self._envelope(ticket.query_id, tenant, "miss", result)
            )
        except QueryShed as exc:
            self.cache.fail_flight(flight, exc)
            raise
        except QueryCancelled as exc:
            counters.cancelled += 1
            self.cache.fail_flight(flight, exc)
            raise
        except BaseException as exc:
            if not isinstance(exc, asyncio.CancelledError):
                counters.errors += 1
            self.cache.fail_flight(flight, exc)
            raise
        finally:
            if admission is not None:
                admission.release()
            self._tickets.pop(ticket.query_id, None)

    # -- POST /stream --------------------------------------------------------

    async def _stream(
        self, body: dict, tenant: str, last_event: str | None = None
    ) -> _Response:
        if last_event is not None:
            return self._resume_sse(body.get("query_id"), last_event)
        request, spec, key, state = self._prepare(body, tenant)
        counters = state.counters

        cached = self.cache.get(key)
        if cached is not None:
            counters.cache_hits += 1
            result, _payload = cached
            qid = f"q-{next(self._auto_id)}"
            return _Response(
                200, self._replay_events(qid, tenant, "hit", result), headers=SSE_HEADERS
            )

        flight = self.cache.flight(key)
        if flight is not None:
            counters.singleflight_shared += 1
            result, _payload = await self.cache.follow(flight)
            qid = f"q-{next(self._auto_id)}"
            return _Response(
                200,
                self._replay_events(qid, tenant, "shared", result),
                headers=SSE_HEADERS,
            )

        ticket = self._register_ticket(request.query_id, tenant)
        flight = self.cache.begin_flight(key, spec.table)
        admission: Admission | None = None
        try:
            admission = self.admission.submit(tenant)
            ticket.admission = admission
            # Wait for the slot *before* streaming starts: shed and
            # queue-cancel surface as proper HTTP statuses, not mid-stream
            # error events.
            await admission.wait()
        except QueryShed as exc:
            self.cache.fail_flight(flight, exc)
            self._tickets.pop(ticket.query_id, None)
            if admission is not None:
                admission.release()
            raise
        except BaseException as exc:
            counters.cancelled += isinstance(exc, QueryCancelled)
            self.cache.fail_flight(flight, exc)
            self._tickets.pop(ticket.query_id, None)
            if admission is not None:
                admission.release()
            raise
        deadline = ticket.deadline = Deadline.after_ms(spec.deadline_ms)
        catalog = self.pool.primary.catalog.snapshot()
        counters.executed += 1

        def update_frame(update, event_id: int) -> bytes:
            return sse_event(update.to_dict(), event="update", event_id=event_id)

        def end(stream, event_id: int) -> bytes:
            result = stream.result
            self.cache.complete_flight(flight, result, canonical_json(result.to_dict()))
            counters.completed += 1
            if result.deadline_exceeded:
                counters.deadline_expired += 1
            return sse_event(
                self._envelope(ticket.query_id, tenant, "miss", result),
                event="done",
                event_id=event_id,
            )

        def fail(exc: Exception, event_id: int) -> bytes:
            self.cache.fail_flight(flight, exc)
            if isinstance(exc, QueryCancelled):
                counters.cancelled += 1
                code = "cancelled"
            else:
                counters.errors += 1
                code = "internal"
            return sse_event(error_payload(code, str(exc)), event="error", event_id=event_id)

        def cleanup(abandoned: bool) -> None:
            # An abandoned run fails its flight, so followers are not left
            # awaiting a dead leader and the next identical request runs.
            if abandoned and self.cache.flight(flight.key) is flight:
                self.cache.fail_flight(
                    flight, QueryCancelled("stream client disconnected")
                )
                counters.cancelled += 1
            deadline.cancel()
            admission.release()

        return self._spawn_pump(
            ticket,
            lambda: stream_spec(spec, catalog, seed=request.seed, deadline=deadline),
            update_frame,
            end,
            fail,
            cleanup,
        )

    async def _replay_events(
        self, query_id: str, tenant: str, mode: str, result: Result
    ) -> AsyncIterator[bytes]:
        """SSE frames for an already-completed Result (cache hit / follower)."""
        n = 0
        for update in _replay_updates(result):
            n += 1
            yield sse_event(update.to_dict(), event="update", event_id=n)
        yield sse_event(
            self._envelope(query_id, tenant, mode, result), event="done", event_id=n + 1
        )

    # -- GET/POST /subscribe -------------------------------------------------

    #: Retry-after hint when a tenant is out of subscription slots.  Slots
    #: free on cancel/disconnect, not on a queue cadence, so the hint is a
    #: polling suggestion rather than an admission estimate.
    SUBSCRIPTION_RETRY_MS = 1000

    def _subscribe_request(self, body: dict, state):
        """Parse a subscription request: windowed spec + runner knobs."""
        request = build_query_request(
            body, self.pool.primary, default_seed=self.default_seed
        )
        spec = apply_tenant_defaults(request, state.config)
        window = body.get("window")
        if window is not None:
            if spec.window is not None:
                raise WireError(
                    400,
                    "bad_request",
                    "window given both in the spec and the 'window' field",
                )
            try:
                spec = dataclasses.replace(spec, window=WindowSpec.from_dict(window))
            except (TypeError, ValueError) as exc:
                raise WireError(400, "bad_window", f"cannot build window: {exc}")
        if spec.window is None:
            raise WireError(
                400,
                "bad_request",
                "/subscribe needs a windowed query: pass a 'window' object "
                "(window_size=... on GET) or a spec that carries one",
            )
        max_windows = body.get("max_windows")
        if max_windows is not None and (
            not isinstance(max_windows, int)
            or isinstance(max_windows, bool)
            or max_windows < 1
        ):
            raise WireError(400, "bad_request", "'max_windows' must be an integer >= 1")
        emit_updates = body.get("emit_updates", True)
        if not isinstance(emit_updates, bool):
            raise WireError(400, "bad_request", "'emit_updates' must be a boolean")
        durable = body.get("durable", False)
        if not isinstance(durable, bool):
            raise WireError(400, "bad_request", "'durable' must be a boolean")
        return request, spec, max_windows, emit_updates, durable

    async def _subscribe(
        self, body: dict, tenant: str, last_event: str | None = None
    ) -> _Response:
        if last_event is not None:
            return self._resume_sse(body.get("query_id"), last_event)
        state = self.tenants.state(tenant)
        request, spec, max_windows, emit_updates, durable = self._subscribe_request(
            body, state
        )
        checkpoint_id = None
        if durable:
            # A durable subscription checkpoints each emitted window; after
            # a server restart the client re-subscribes with the same
            # query_id (+ identical query) and continues where it left off.
            if self._checkpoints is None:
                raise WireError(
                    400,
                    "bad_request",
                    "'durable' needs a store-backed service (repro serve --store)",
                )
            if request.query_id is None:
                raise WireError(
                    400,
                    "bad_request",
                    "'durable' subscriptions need an explicit 'query_id' "
                    "(it names the checkpoint to resume)",
                )
            checkpoint_id = f"sub-{tenant}-{request.query_id}"
        # Subscription slots, not the execution queue: a subscription lives
        # for many windows and is shed (never queued) when the tenant is at
        # max_subscriptions.  Results are never cached - every window is
        # fresh work over rows the cache has not seen.
        if state.subscriptions >= state.config.max_subscriptions:
            state.counters.shed += 1
            raise QueryShed(tenant, retry_after_ms=self.SUBSCRIPTION_RETRY_MS)
        ticket = self._register_ticket(request.query_id, tenant)
        ticket.checkpoint_id = checkpoint_id
        try:
            cq = self.pool.next().subscribe(
                spec,
                seed=request.seed,
                max_windows=max_windows,
                emit_updates=emit_updates,
                checkpoint=checkpoint_id,
                resume=checkpoint_id is not None,
            )
        except BaseException as exc:
            self._tickets.pop(ticket.query_id, None)
            if checkpoint_id is not None and isinstance(exc, ValueError):
                raise WireError(409, "checkpoint_mismatch", str(exc))
            raise
        ticket.subscription = cq
        state.subscriptions += 1
        counters = state.counters
        counters.subscriptions_started += 1
        loop = asyncio.get_running_loop()
        windows = 0

        def count_window() -> None:
            counters.windows_emitted += 1

        def event_frame(event, event_id: int) -> bytes:
            nonlocal windows
            if not isinstance(event, WindowResult):
                return sse_event(event.to_dict(), event="update", event_id=event_id)
            windows += 1
            loop.call_soon_threadsafe(count_window)
            return sse_event(event.to_dict(), event="window", event_id=event_id)

        def end(_events, event_id: int) -> bytes:
            # DELETE (or janitor expiry) cancels the runner, which ends the
            # stream with a clean done (cancelled: true).
            return sse_event(
                {
                    "query_id": ticket.query_id,
                    "tenant": tenant,
                    "windows": windows,
                    "cancelled": cq.cancelled,
                    "stats": cq.stats(),
                },
                event="done",
                event_id=event_id,
            )

        def fail(exc: Exception, event_id: int) -> bytes:
            counters.errors += 1
            return sse_event(
                error_payload("internal", f"{type(exc).__name__}: {exc}"),
                event="error",
                event_id=event_id,
            )

        def cleanup(_abandoned: bool) -> None:
            cq.cancel()
            state.subscriptions -= 1
            # The event iterator is over, so the runner has stopped and
            # settled `cancelled` and `error`: completion and user-cancel
            # drop the checkpoint; failure, abandonment, and shutdown keep
            # it for a later resume.
            if (
                ticket.checkpoint_id is not None
                and self._checkpoints is not None
                and (ticket.drop_checkpoint or (not cq.cancelled and cq.error is None))
            ):
                try:
                    self._checkpoints.delete_checkpoint(ticket.checkpoint_id)
                except Exception:
                    pass  # a live checkpoint is merely a resume offer

        return self._spawn_pump(ticket, cq.updates, event_frame, end, fail, cleanup)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Cancel in-flight queries and close every session.

        After this returns the submit pools are drained, every engine
        fan-out pool is released, and (asserted by the CI smoke) no worker
        pool directory is left on disk.
        """
        if self._closed:
            return
        self._closed = True
        for ticket in list(self._tickets.values()):
            ticket.cancel()
            if ticket.relay is not None:
                # Unblock any pump parked in relay.append: it drains its
                # cancelled run and exits.
                ticket.relay.close()
        self.pool.close()


# --------------------------------------------------------------------------
# HTTP layer
# --------------------------------------------------------------------------


class ReproServer:
    """A minimal HTTP/1.1 front end over one :class:`QueryService`.

    Deliberately not a web framework: request line + headers +
    Content-Length body in, status + JSON (or an SSE stream) out,
    keep-alive except on streams.  Anything fancier (TLS, chunked bodies,
    HTTP/2) belongs in a reverse proxy in front.
    """

    MAX_BODY = 8 * 1024 * 1024

    def __init__(
        self, service: QueryService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        #: Live connection handlers, closed by :meth:`aclose`.
        self._connections: "dict[asyncio.Task, asyncio.StreamWriter]" = {}

    async def start(self) -> "ReproServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def aclose(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()  # stop accepting
        self.service.close()
        pumps = {f for f in getattr(self.service, "_pumps", ()) if not f.done()}
        if pumps:
            await asyncio.wait(pumps, timeout=10)
        # Every stream has settled; close what is still connected (idle
        # keep-alives, SSE writers of closed relays) so each handler ends
        # on EOF instead of being destroyed pending with the loop.
        handlers = list(self._connections)
        for writer in self._connections.values():
            writer.close()
        if handlers:
            _done, stuck = await asyncio.wait(handlers, timeout=10)
            for task in stuck:
                task.cancel()
        if server is not None:
            await server.wait_closed()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except WireError as exc:
                    # Unparseable framing: the stream position is unknown,
                    # so answer once and close instead of reading on.
                    response = _json_response(
                        exc.status, exc.payload(), headers=(("Connection", "close"),)
                    )
                    self._write_head(writer, response, streaming=False)
                    writer.write(response.body)
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, version, headers, body = request
                response = await self._dispatch(method, target, headers, body)
                streaming = not isinstance(response.body, (bytes, bytearray))
                self._write_head(writer, response, streaming)
                if streaming:
                    agen = response.body
                    try:
                        async for chunk in agen:
                            writer.write(chunk)
                            await writer.drain()
                    finally:
                        await agen.aclose()
                    break  # SSE responses are Connection: close
                writer.write(response.body)
                await writer.drain()
                if version != "HTTP/1.1" or headers.get("connection", "").lower() == "close":
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass  # client went away mid-request; per-query cleanup already ran
        finally:
            self._connections.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            return None
        try:
            method, target, version = line.decode("latin-1").split()
        except ValueError:
            raise WireError(400, "bad_request", "malformed HTTP request line") from None
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"", b"\r\n", b"\n"):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", 0) or 0)
        except ValueError:
            length = -1
        if length < 0:
            raise WireError(
                400, "bad_request", "Content-Length must be a non-negative integer"
            )
        if length > self.MAX_BODY:
            raise WireError(
                413,
                "payload_too_large",
                f"request body of {length} bytes exceeds the {self.MAX_BODY}-byte limit",
            )
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, version, headers, body

    async def _dispatch(
        self, method: str, target: str, headers: dict, body: bytes
    ) -> _Response:
        try:
            return await self.service.handle(method, target, headers, body)
        except WireError as exc:
            return _json_response(exc.status, exc.payload())
        except QueryShed as exc:
            return _json_response(
                429,
                error_payload(
                    "shed",
                    str(exc),
                    tenant=exc.tenant,
                    retry_after_ms=exc.retry_after_ms,
                ),
                headers=(("Retry-After", str(max(1, -(-exc.retry_after_ms // 1000)))),),
            )
        except QueryCancelled as exc:
            return _json_response(499, error_payload("cancelled", str(exc)))
        except Exception as exc:
            return _json_response(
                500, error_payload("internal", f"{type(exc).__name__}: {exc}")
            )

    def _write_head(
        self, writer: asyncio.StreamWriter, response: _Response, streaming: bool
    ) -> None:
        reason = _REASONS.get(response.status, "Unknown")
        lines = [f"HTTP/1.1 {response.status} {reason}"]
        header_names = {name.lower() for name, _ in response.headers}
        if "content-type" not in header_names:
            lines.append(f"Content-Type: {response.content_type}")
        for name, value in response.headers:
            lines.append(f"{name}: {value}")
        if not streaming:
            lines.append(f"Content-Length: {len(response.body)}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------


class ServerHandle:
    """A running server on a background thread (tests, benchmarks)."""

    def __init__(self) -> None:
        self.port: int | None = None
        self.thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Future | None = None
        self.error: BaseException | None = None

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def stop(self) -> None:
        """Shut the server down and join its thread (idempotent)."""
        loop, self._loop = self._loop, None
        if loop is not None and self._stop is not None:
            loop.call_soon_threadsafe(
                lambda: self._stop.done() or self._stop.set_result(None)
            )
        if self.thread is not None:
            self.thread.join(timeout=60)


def serve_in_thread(
    service: QueryService, host: str = "127.0.0.1", port: int = 0
) -> ServerHandle:
    """Start a server on a daemon thread; returns once it is accepting."""
    handle = ServerHandle()
    started = threading.Event()

    def main() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = ReproServer(service, host=host, port=port)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:
            handle.error = exc
            started.set()
            loop.close()
            return
        handle.port = server.port
        handle._loop = loop
        handle._stop = loop.create_future()
        started.set()
        try:
            loop.run_until_complete(handle._stop)
        finally:
            loop.run_until_complete(server.aclose())
            loop.close()

    handle.thread = threading.Thread(target=main, daemon=True, name="repro-serve")
    handle.thread.start()
    started.wait(timeout=60)
    if handle.error is not None:
        raise handle.error
    return handle


def run_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    drain_timeout: float | None = 30.0,
    announce=print,
) -> None:
    """Run the server in the foreground until SIGINT/SIGTERM (the CLI path).

    SIGINT stops immediately.  SIGTERM *drains*: ``/readyz`` flips to 503
    (rotate this instance out of load balancing), new work is shed with
    ``Retry-After``, and in-flight queries get up to ``drain_timeout``
    seconds to finish before cooperative cancellation - queries are
    anytime, so a drain-cancelled query still finalizes a valid partial
    answer.  Either way the process exits 0.
    """

    async def main() -> None:
        server = await ReproServer(service, host=host, port=port).start()
        loop = asyncio.get_running_loop()
        stop: asyncio.Future = loop.create_future()

        def request_stop(mode: str) -> None:
            if not stop.done():
                stop.set_result(mode)

        try:
            import signal

            loop.add_signal_handler(signal.SIGINT, request_stop, "stop")
            loop.add_signal_handler(signal.SIGTERM, request_stop, "drain")
        except (ImportError, NotImplementedError, RuntimeError):
            pass  # platforms without loop signal handlers: Ctrl-C still raises
        # Announce only after the handlers are live: "listening" is the
        # operator's cue that SIGTERM now drains instead of killing.
        announce(f"repro serve listening on http://{host}:{server.port}")
        try:
            mode = await stop
        except asyncio.CancelledError:
            mode = "stop"
        if mode == "drain" and drain_timeout is not None:
            service.begin_drain()
            announce(
                f"repro serve draining ({service.inflight} in flight; /readyz now 503)"
            )
            drain_until = loop.time() + drain_timeout
            while service.inflight and loop.time() < drain_until:
                await asyncio.sleep(0.05)
            if service.inflight:
                announce(
                    f"repro serve drain timed out; cancelling {service.inflight} in flight"
                )
                # Cancel but do NOT close relays: connected clients still
                # get their terminal frame (queries are anytime); aclose()
                # force-closes whatever remains.
                for ticket in list(service._tickets.values()):
                    ticket.cancel()
                grace_until = loop.time() + 5.0
                while service.inflight and loop.time() < grace_until:
                    await asyncio.sleep(0.05)
        await server.aclose()
        announce("repro serve stopped")

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
