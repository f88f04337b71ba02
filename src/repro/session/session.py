"""``Session``/``connect()`` - the one front door for every workload.

A session owns a :class:`~repro.catalog.Catalog` of named data sources and
default knobs (delta, algorithm, engine, seed) and hands out
:class:`~repro.session.builder.QueryBuilder` objects from either front
door::

    import repro

    session = repro.connect(delta=0.05)
    session.attach("flights", repro.SourceSpec("flights", rows=100_000, seed=0))

    # programmatic front door
    result = (
        session.table("flights")
        .group_by("carrier")
        .agg(repro.avg("arrival_delay"))
        .run(seed=42)
    )

    # SQL front door - lowers to the *same* QuerySpec
    result = session.sql(
        "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier"
    ).run(seed=42)

Data enters through :meth:`Session.attach` - one polymorphic call that
dispatches on the target: in-memory tables/dicts/DataFrame-likes, paths to
CSV/Parquet files, declarative :class:`~repro.catalog.SourceSpec` targets
(synthetic generator families, the flights workload), or any
already-constructed :class:`~repro.catalog.source.DataSource`.  Sources are
*lazy*: attaching records metadata, the first query triggers the (cached)
scan or population build, and WHERE predicates are pushed into the source
scan so non-qualifying rows are filtered before they are materialized.
``connect(store=DIR)`` makes the catalog durable: attached sources and
their cached builds persist and re-open warm (see :mod:`repro.storage`).
"""

from __future__ import annotations

import dataclasses
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Mapping

import numpy as np

from repro.catalog import Catalog, DataSource, SourceInfo
from repro.needletail.table import Table
from repro.query.ast import Query
from repro.query.parser import parse_query
from repro.resilience.deadline import Deadline
from repro.session.builder import QueryBuilder
from repro.session.planner import execute_spec, stream_spec
from repro.session.result import Result, ResultStream
from repro.session.spec import GuaranteeSpec, QuerySpec, lower_query

__all__ = ["Session", "QueryFuture", "connect"]


class QueryFuture:
    """A ``concurrent.futures.Future`` wrapper with cooperative cancellation.

    A plain Future can only cancel work that has not started; a query
    already sampling would run to completion.  :meth:`cancel` additionally
    fires the query's :class:`~repro.resilience.Deadline` cancel token, so
    an in-flight IFOCUS-family run stops at its next round boundary and the
    future resolves with :class:`~repro.errors.QueryCancelled`.
    """

    def __init__(self, inner: "Future[Result]", deadline: Deadline) -> None:
        self._inner = inner
        self._deadline = deadline

    def cancel(self) -> bool:
        """Cancel the query; True unless it already finished.

        Not-yet-started queries are cancelled outright (the Future never
        runs); in-flight queries are cancelled *cooperatively* - their
        ``result()`` raises :class:`~repro.errors.QueryCancelled` once the
        run observes the token at a round boundary.
        """
        if self._inner.cancel():
            return True
        if self._inner.done():
            return False
        self._deadline.cancel()
        return True

    def cancelled(self) -> bool:
        return self._inner.cancelled() or self._deadline.cancelled

    def result(self, timeout: float | None = None) -> Result:
        return self._inner.result(timeout)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        return self._inner.exception(timeout)

    def done(self) -> bool:
        return self._inner.done()

    def running(self) -> bool:
        return self._inner.running()

    def add_done_callback(self, fn) -> None:
        self._inner.add_done_callback(lambda _inner: fn(self))

    @property
    def inner(self) -> "Future[Result]":
        """The wrapped ``concurrent.futures.Future``.

        Exposed so async front ends (``repro.serve``) can bridge with
        ``asyncio.wrap_future`` while still cancelling through
        :meth:`cancel` (which additionally fires the cooperative token).
        """
        return self._inner


class Session:
    """A data-source catalog plus default query knobs.

    All attachment methods return the session, so setup chains::

        session = connect().register("t", table).attach("u", "u.csv")
    """

    #: Submit-pool width when ``max_workers`` is left unset: enough to keep a
    #: handful of concurrent queries in flight without oversubscribing CI boxes.
    DEFAULT_SUBMIT_WORKERS = 8

    def __init__(
        self,
        *,
        delta: float = 0.05,
        resolution: float = 0.0,
        algorithm: str = "ifocus",
        engine: str = "needletail",
        seed: int | None = None,
        shards: int = 1,
        max_workers: int | None = None,
        executor: str = "thread",
        submit_workers: int | None = None,
        deadline_ms: float | None = None,
        max_retries: int = 2,
        catalog: Catalog | None = None,
    ) -> None:
        if submit_workers is not None and int(submit_workers) < 1:
            raise ValueError(f"submit_workers must be >= 1, got {submit_workers}")
        # An injected catalog lets several sessions share one set of sources
        # and build caches (the repro.serve session pool); default sessions
        # stay fully isolated.
        self._catalog = catalog if catalog is not None else Catalog()
        #: Whether close() closes the catalog: the session's own, yes; an
        #: injected one is closed by whoever created it.
        self._owns_catalog = catalog is None
        self.delta = delta
        self.resolution = resolution
        self.algorithm = algorithm
        self.engine = engine
        self.seed = seed
        self.shards = int(shards)
        self.max_workers = max_workers
        self.executor = executor.lower()
        self.submit_workers = submit_workers
        self.deadline_ms = deadline_ms
        self.max_retries = int(max_retries)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._closed = False

    # -- catalog ------------------------------------------------------------

    @property
    def tables(self) -> list[str]:
        """Registered table names."""
        return self._catalog.names

    @property
    def catalog(self) -> Catalog:
        """The live :class:`~repro.catalog.Catalog` (shared, not a copy)."""
        return self._catalog

    def attach(self, name: str, target, **opts) -> "Session":
        """Bind ``name`` to *any* attachable target - the one front door.

        Dispatches on what ``target`` is (see :mod:`repro.catalog.attach`):

        * a ready :class:`DataSource` - attached as-is;
        * a :class:`Table` or ``{column: array}`` mapping - an in-memory
          source (durable under ``connect(store=...)``: the columns persist
          as segments);
        * a DataFrame-like object (``.columns`` + ``__getitem__``);
        * a ``.csv``/``.tsv``/``.parquet``/``.pq`` path - the lazy chunked
          file source for that suffix;
        * a :class:`~repro.catalog.SourceSpec` - a declarative kind + opts
          (``SourceSpec("synthetic", family="mixture", k=10)``,
          ``SourceSpec("flights", rows=50_000)``).

        ``opts`` go to the resolved source's constructor (``delimiter=``,
        ``group_columns=``, ``chunk_rows=``, ``batch_rows=``, ...)::

            session.attach("flights", SourceSpec("flights", rows=100_000))
            session.attach("trips", "data/trips.csv", group_columns=("city",))
        """
        self._catalog.attach(name, target, **opts)
        return self

    def register(
        self, name: str, data: DataSource | Table | Mapping[str, np.ndarray]
    ) -> "Session":
        """Register a table (Table, {column: array} dict, or any DataSource)."""
        if not isinstance(data, (DataSource, Table, Mapping)):
            raise TypeError(
                f"register needs a DataSource, Table, or mapping; got "
                f"{type(data).__name__} - use attach() for paths and specs"
            )
        self._catalog.register(name, data)
        return self

    def describe_table(self, name: str) -> SourceInfo:
        """Schema, source kind, and cached-build status for one table."""
        return self._catalog.describe(name)

    def invalidate(self, name: str) -> "Session":
        """Drop a table's cached builds; the next query re-reads the source.

        Use after the data behind a cacheable source changed (a CSV file
        rewritten on disk, a replayable iterator whose data moved on).
        """
        self._catalog.invalidate(name)
        return self

    # -- front doors --------------------------------------------------------

    def _builder(self, table: str) -> QueryBuilder:
        return QueryBuilder(
            _session=self,
            _table=table,
            _schema=self._catalog.schema(table) if table in self._catalog else None,
            _guarantee=GuaranteeSpec(delta=self.delta, resolution=self.resolution),
            _algorithm=self.algorithm,
            _engine=self.engine,
            _shards=self.shards,
            _max_workers=self.max_workers,
            _executor=self.executor,
            _deadline_ms=self.deadline_ms,
            _max_retries=self.max_retries,
        )

    def table(self, name: str) -> QueryBuilder:
        """Start a fluent query over a registered table.

        The builder carries the table's schema, so bad column names and type
        mismatches raise right where you type them, not deep in the planner.
        """
        if name not in self._catalog:
            raise KeyError(f"unknown table {name!r}; registered: {self.tables}")
        return self._builder(name)

    def sql(self, text: str | Query) -> QueryBuilder:
        """Start a query from SQL text (or a pre-parsed Query).

        Returns a builder seeded from the parsed query, so Session-only
        features chain onto SQL: ``session.sql("SELECT ...").top(3).run()``.
        """
        query = parse_query(text) if isinstance(text, str) else text
        spec = lower_query(query)
        return dataclasses.replace(
            self._builder(spec.table),
            _group_by=spec.group_by,
            _aggregates=spec.aggregates,
            _where=(spec.where,) if spec.where is not None else (),
            _having=spec.having,
        )

    # -- execution ----------------------------------------------------------

    def _lower(self, what: str | Query | QuerySpec | QueryBuilder) -> QuerySpec:
        if isinstance(what, QuerySpec):
            return what
        if isinstance(what, QueryBuilder):
            return what.spec()
        if isinstance(what, (str, Query)):
            return self.sql(what).spec()
        raise TypeError(f"cannot execute {type(what).__name__}")

    def execute(
        self,
        what: str | Query | QuerySpec | QueryBuilder,
        *,
        seed=None,
        **runner_kwargs,
    ) -> Result:
        """Execute SQL text, a Query, a QuerySpec, or a builder."""
        spec = self._lower(what)
        return execute_spec(
            spec,
            self._catalog,
            seed=seed if seed is not None else self.seed,
            runner_kwargs=runner_kwargs,
        )

    def stream(
        self,
        what: str | Query | QuerySpec | QueryBuilder,
        *,
        seed=None,
        **runner_kwargs,
    ) -> ResultStream:
        """Incremental execution: PartialUpdates as groups finalize."""
        spec = self._lower(what)
        return stream_spec(
            spec,
            self._catalog,
            seed=seed if seed is not None else self.seed,
            runner_kwargs=runner_kwargs,
        )

    def submit(
        self,
        what: str | Query | QuerySpec | QueryBuilder,
        *,
        seed=None,
        **runner_kwargs,
    ) -> QueryFuture:
        """Execute asynchronously; returns a :class:`QueryFuture`.

        One session can serve many concurrent queries safely: the query is
        lowered and validated on the calling thread (shape errors raise
        here, not inside the future), the catalog is snapshotted so later
        ``register(...)`` calls never affect queries already in flight, and
        each worker builds its own engine and :class:`EngineRun` - all run
        state (sampling streams, accounting) is per query by construction,
        so concurrent queries cannot observe each other's samples or stats.

        The returned future supports *cooperative* cancellation: every
        submitted query carries a :class:`~repro.resilience.Deadline` token
        (also enforcing ``spec.deadline_ms`` when set), and
        :meth:`QueryFuture.cancel` fires it even after sampling started.

        ::

            futures = [session.submit(q, seed=s) for s in range(8)]
            results = [f.result() for f in futures]
        """
        spec = self._lower(what)
        if spec.table not in self._catalog:
            raise KeyError(f"unknown table {spec.table!r}; registered: {self.tables}")
        catalog = self._catalog.snapshot()
        resolved_seed = seed if seed is not None else self.seed
        # Built here (not in the worker) so cancel() can fire it while the
        # query is still queued or mid-run.  With no deadline_ms this is a
        # pure cancel token - no time limit.
        deadline = Deadline.after_ms(spec.deadline_ms)
        inner = self._submit_pool().submit(
            execute_spec,
            spec,
            catalog,
            seed=resolved_seed,
            runner_kwargs=runner_kwargs,
            deadline=deadline,
        )
        return QueryFuture(inner, deadline)

    def subscribe(
        self,
        what: str | Query | QuerySpec | QueryBuilder,
        *,
        seed=None,
        max_windows: int | None = None,
        warm_start: bool = True,
        emit_updates: bool = True,
        checkpoint: str | None = None,
        resume: bool = False,
        **runner_kwargs,
    ):
        """Run a *windowed* query continuously; returns a
        :class:`~repro.streaming.ContinuousQuery`.

        The spec must carry a window (``QueryBuilder.window(...)`` or
        ``QuerySpec(window=...)``).  The source is scanned once on a
        background thread; each closed window re-runs the full guarantee
        machinery over exactly its rows with seed ``seed + window index``,
        so a tumbling window's result is bit-identical to the one-shot
        query over the same rows.  Iterate ``.updates()`` (or the handle
        itself) for live per-group :class:`WindowUpdate` events and
        :class:`WindowResult` closes; ``.cancel()`` stops it.

        Catalog isolation matches :meth:`submit`: the catalog is
        snapshotted, so re-registering a name never swaps the stream out
        from under a live subscription.

        Args:
            seed: base seed (session default when None).
            max_windows: stop after this many closed windows (bounds
                subscriptions over unbounded sources).
            warm_start: let sliding windows reuse cached pane groupings
                from overlapping predecessors (bit-identical; population
                engines only).
            emit_updates: False skips per-group updates (results only,
                and each window runs the ``execute`` code path).
            checkpoint: id of a durable checkpoint for this subscription
                (needs a store-backed session, ``connect(store=...)``).
                The window cursor persists at every emission, so a later
                session can pick up where this one stopped.
            resume: with ``checkpoint``, continue from the persisted
                cursor: the source replays deterministically and the
                already-delivered emissions are suppressed, so the
                remaining window results are bit-identical to an
                uninterrupted run.  Without an existing checkpoint the
                subscription simply starts fresh.
        """
        from repro.streaming.continuous import ContinuousQuery

        spec = self._lower(what)
        if spec.window is None:
            raise ValueError(
                "subscribe() needs a windowed query - add "
                ".window(size=..., every=...) to the builder or set "
                "QuerySpec.window; for one-shot queries use execute()/submit()"
            )
        if spec.table not in self._catalog:
            raise KeyError(f"unknown table {spec.table!r}; registered: {self.tables}")
        resolved_seed = seed if seed is not None else self.seed
        sink = None
        resume_emissions = 0
        if checkpoint is not None:
            catalog = self._catalog
            if not hasattr(catalog, "save_checkpoint"):
                raise ValueError(
                    "checkpoint= needs a durable session - open one with "
                    "connect(store=...)"
                )
            payload = {
                "spec": spec.canonical_key(),
                "seed": resolved_seed,
                "max_windows": max_windows,
                "emit_updates": emit_updates,
            }
            if resume:
                loaded = catalog.load_checkpoint(checkpoint)
                if loaded is not None:
                    saved_payload, state = loaded
                    if saved_payload != payload:
                        raise ValueError(
                            f"checkpoint {checkpoint!r} belongs to a different "
                            "subscription (spec, seed, or knobs differ); "
                            "resume must replay the identical query, or start "
                            "fresh without resume"
                        )
                    resume_emissions = int(state.get("emissions", 0))
            else:
                # A fresh run resets the cursor so a stale checkpoint from a
                # previous life cannot leak into a later --resume.
                catalog.save_checkpoint(
                    checkpoint,
                    kind="subscription",
                    payload=payload,
                    state={"emissions": 0},
                )
            sink = lambda state: catalog.save_checkpoint(  # noqa: E731
                checkpoint, kind="subscription", payload=payload, state=state
            )
        return ContinuousQuery.start(
            spec,
            self._catalog.snapshot(),
            seed=resolved_seed,
            warm_start=warm_start,
            max_windows=max_windows,
            emit_updates=emit_updates,
            runner_kwargs=runner_kwargs,
            checkpoint=sink,
            resume_emissions=resume_emissions,
        )

    def _submit_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("Session is closed")
            if self._pool is None:
                # Deliberately independent of max_workers: that knob sizes the
                # per-query *shard* fan-out (max_workers=1 means "sequential
                # fan-out"), and must not silently serialize submit().
                workers = (
                    self.submit_workers
                    if self.submit_workers is not None
                    else self.DEFAULT_SUBMIT_WORKERS
                )
                self._pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-session"
                )
        return self._pool

    def close(self) -> None:
        """Shut down the submit pool, then the catalog the session created.

        In-flight futures finish first; closing the catalog then shuts down
        its cached fan-outs (worker processes reaped, pool directories
        removed).  An injected catalog stays open for its creator.
        """
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        if self._owns_catalog:
            self._catalog.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(tables={self.tables}, delta={self.delta}, "
            f"algorithm={self.algorithm!r}, engine={self.engine!r})"
        )


def connect(
    *,
    delta: float = 0.05,
    resolution: float = 0.0,
    algorithm: str = "ifocus",
    engine: str = "needletail",
    seed: int | None = None,
    shards: int = 1,
    max_workers: int | None = None,
    executor: str = "thread",
    submit_workers: int | None = None,
    deadline_ms: float | None = None,
    max_retries: int = 2,
    catalog: Catalog | None = None,
    store: "str | os.PathLike | None" = None,
) -> Session:
    """Open a session - the Session API's entrypoint.

    Args:
        delta: default failure probability for every query.
        resolution: default Problem-2 visual resolution.
        algorithm: default AVG algorithm (ifocus/ifocusr/irefine/...).
        engine: default execution substrate (needletail/memory/noindex).
        seed: default RNG seed when ``run()``/``stream()`` omit one.
        shards: default shard count for every query (1 = unsharded,
            bit-identical to previous releases; see DESIGN_PERF.md).
        max_workers: per-query shard fan-out pool width (``None``: one
            worker per shard; ``1``: sequential fan-out).
        executor: default shard fan-out executor - ``"thread"``
            (in-process) or ``"process"`` (one worker process per shard
            over mapped payload files, true multicore elapsed-time scaling; the
            planner falls back to threads, with a caveat, when the
            population cannot cross the process boundary).
        submit_workers: size of the :meth:`Session.submit` pool
            (``None``: ``Session.DEFAULT_SUBMIT_WORKERS``).
        deadline_ms: default per-query time budget in milliseconds
            (``None``: unlimited).  Expiry is an *anytime* stop, not an
            error: the run finalizes remaining groups at their current
            estimates with wider intervals and a ``deadline_exceeded``
            caveat on the Result.
        max_retries: default retry budget for transient source-scan IO
            failures (each retried with exponential backoff; surfaced as a
            caveat when it happens).
        catalog: share an existing :class:`~repro.catalog.Catalog` (sources
            *and* build caches) instead of creating a fresh one - how the
            ``repro.serve`` session pool makes N sessions serve one set of
            registered tables.
        store: open (or create) a durable store at this directory and back
            the session with a :class:`~repro.storage.DurableCatalog`:
            attached sources and their index/population builds persist, and
            a later ``connect(store=...)`` in a fresh process re-opens them
            in O(1) - no rebuild, bit-identical results.  Mutually
            exclusive with ``catalog``.
    """
    if store is not None:
        if catalog is not None:
            raise ValueError(
                "connect() takes either store= (opens a DurableCatalog) or "
                "catalog= (an existing catalog), not both"
            )
        from repro.storage import DurableCatalog

        catalog = DurableCatalog(store)
    session = Session(
        delta=delta,
        resolution=resolution,
        algorithm=algorithm,
        engine=engine,
        seed=seed,
        shards=shards,
        max_workers=max_workers,
        executor=executor,
        submit_workers=submit_workers,
        deadline_ms=deadline_ms,
        max_retries=max_retries,
        catalog=catalog,
    )
    if store is not None:
        # Opened here on the session's behalf, so the session closes it.
        session._owns_catalog = True
    return session
