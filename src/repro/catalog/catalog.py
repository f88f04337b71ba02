"""The ``Catalog``: named sources plus lazy, cached engine-input builds.

A catalog maps table names to :class:`~repro.catalog.source.DataSource`
objects and owns the derived artifacts engines consume:

* :meth:`Catalog.population` - the grouped value multiset every engine
  door samples from, for any GROUP BY: one column, or several joined into
  the cross-product key ``x|z`` (§6.3.4).  Built by scanning **only** the
  group and value columns with the WHERE predicate pushed into the scan,
  so filtering happens chunk-by-chunk *before* anything is materialized.
  Builds are cached per ``(table, GROUP BY tuple, value_col, predicate,
  value_bound)``; repeated queries over the same grouping reuse the build.
* :meth:`Catalog.table` - the fully materialized row-store
  :class:`~repro.needletail.table.Table`, for callers that want the rows
  (the planner never does).  Cached per table; predicates are not applied
  here.
* :meth:`Catalog.indexed_engine` - the engine the ``needletail``/``noindex``
  doors sample: one per population coordinate, under the same LRU bound,
  so a repeated query resolves its engine with one lookup.  The engine
  samples the cached grouped population (the paper's per-group random-row
  fetch, §4, as a gather).
* :meth:`Catalog.fanout` - the :class:`~repro.engines.sharded.ShardedEngine`
  a ``.sharded()`` query runs on, with its fan-out threads or spawn workers
  and their payload files.  Workers belong to the catalog, not the
  query: one engine per ``(table, GROUP BY tuple, value_col, predicate,
  value_bound, engine, shards, max_workers, executor)``, lent to each query
  under a lease, so ``executor="process"`` spawns once per session and key.
  At most :data:`Catalog.MAX_CACHED_FANOUTS` stay resident.

Re-registering a name drops that name's cached builds.  All cache state is
lock-protected so one catalog can serve concurrent ``Session.submit``
queries; :meth:`Catalog.snapshot` gives in-flight queries an isolated view
that later registrations cannot disturb.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from repro.catalog.schema import Schema
from repro.catalog.source import DataSource, TableSource
from repro.data.population import Population, as_group_by, population_from_chunks
from repro.needletail.table import Table
from repro.query.ast import Predicate

__all__ = [
    "Catalog",
    "SourceInfo",
    "PopulationBuild",
    "EngineBuild",
    "FanoutBuild",
    "FanoutLease",
    "population_from_chunks",
]


#: One cached population build, as reported by :meth:`Catalog.describe`:
#: ``(GROUP BY tuple, value column, predicate, value bound)``.
PopulationBuild = tuple[tuple[str, ...], str, "Predicate | None", "float | None"]
#: One cached engine build, keyed like its population.
EngineBuild = PopulationBuild


@dataclass(frozen=True)
class FanoutBuild:
    """One cached fan-out, as reported by :meth:`Catalog.describe`."""

    group_by: tuple[str, ...]
    value_column: str
    engine: str
    shards: int
    executor: str
    #: Live worker processes (process executor), or the thread bound of a
    #: started fan-out pool (thread executor).
    workers: int


class FanoutLease:
    """One query's hold on a fan-out engine.

    ``engine`` is usable until :meth:`release`, which the query calls
    exactly once when it is done (later calls are no-ops).  A cached engine
    that was dropped meanwhile (invalidation, eviction, ``close()``) is shut
    down by the release of its last lease - never under the catalog lock.
    """

    __slots__ = ("engine", "_release")

    def __init__(self, engine, release) -> None:
        self.engine = engine
        self._release = release

    def release(self) -> None:
        release, self._release = self._release, None
        if release is not None:
            release()


class _Fanout:
    """A cached fan-out engine and the number of queries leasing it."""

    __slots__ = ("engine", "leases", "dropped")

    def __init__(self, engine) -> None:
        self.engine = engine
        self.leases = 0
        self.dropped = False


class _FanoutCache:
    """The fan-out entries of one catalog and all its snapshots.

    A separate object so that the pools outlive any one view: when the last
    view (and the last lease) is garbage-collected without ``close()``, the
    finalizer shuts every pool down.
    """

    def __init__(self) -> None:
        self.entries: "OrderedDict[tuple, _Fanout]" = OrderedDict()
        self.closed = False
        weakref.finalize(self, _close_fanouts, self.entries)


def _close_fanouts(entries: "OrderedDict[tuple, _Fanout]") -> None:
    _close_engines([entry.engine for entry in entries.values()])


@dataclass(frozen=True)
class SourceInfo:
    """One catalog entry's metadata, as shown by ``repro tables``/``describe``."""

    name: str
    kind: str
    description: str
    schema: Schema
    row_count_hint: int | None
    table_cached: bool
    cached_populations: tuple[PopulationBuild, ...]
    cached_engines: tuple[EngineBuild, ...]
    cached_fanouts: tuple[FanoutBuild, ...]


class Catalog:
    """Named :class:`DataSource` objects plus cached lazy builds.

    Caches are keyed by the *source object* (identity), not the registered
    name: re-binding a name can never serve a stale build, the same source
    registered under two names shares its builds, and
    :meth:`snapshot`-holding queries (``Session.submit``) both reuse and
    contribute to the same cache - an async workload repeating one query
    scans its source exactly once.

    Bounds and freshness: population builds and engine builds each live in
    an LRU capped at :data:`MAX_CACHED_POPULATIONS`, fan-outs in one capped
    at :data:`MAX_CACHED_FANOUTS` (long-lived sessions serving ad-hoc
    predicates - e.g. a moving ``WHERE ts > <now>`` literal - evict old
    builds instead of growing without bound); sources
    with ``cacheable = False`` (live streams) are never cached, so every
    query sees current data; and :meth:`invalidate` drops a name's builds
    explicitly (e.g. after a CSV file changed on disk).

    Cached fan-outs hold threads or worker processes, so a catalog is a
    resource: :meth:`close` (or ``with Catalog() as catalog:``) shuts them
    down; ``Session.close()`` closes the catalog the session created, and a
    catalog collected unclosed releases them through a finalizer.
    """

    #: Upper bound on cached population builds, and on cached engine builds
    #: (LRU eviction beyond it).  A population entry holds one filtered
    #: group/value copy and an engine entry shares the groups of one, so this
    #: caps resident memory at ~2 * MAX * relation-column size for
    #: pathological workloads.
    MAX_CACHED_POPULATIONS = 64
    #: Upper bound on cached fan-outs (LRU eviction beyond it).  Far below
    #: the population bound because an entry is live processes, not bytes:
    #: one process fan-out holds ``shards`` spawn workers (60-72 MB RSS each
    #: at ``wide_k1000``) plus its pool directory of payload and output
    #: buffer files (~23 MB there, on the ``/dev/shm`` tmpfs when it is
    #: writable), so two entries stay inside a 64 MB ``/dev/shm``.  A query
    #: whose key was evicted pays one spawn - what every query paid before
    #: fan-outs were cached.
    MAX_CACHED_FANOUTS = 2

    def __init__(self) -> None:
        self._sources: dict[str, DataSource] = {}
        self._tables: dict[DataSource, Table] = {}
        self._populations: "OrderedDict[tuple, Population]" = OrderedDict()
        self._engines: "OrderedDict[tuple, object]" = OrderedDict()
        self._fanouts = _FanoutCache()
        self._lock = threading.Lock()
        #: Callbacks fired (outside the lock) whenever a name's builds are
        #: dropped - explicit invalidate() or a rebinding register().  Shared
        #: by snapshots, like the build caches: the serving layer's result
        #: cache subscribes here so a stale table can never serve cached
        #: results, no matter which catalog view triggered the drop.
        self._invalidation_listeners: list = []

    # -- registration --------------------------------------------------------

    def register(
        self, name: str, source: DataSource | Table | Mapping[str, np.ndarray]
    ) -> "Catalog":
        """Bind ``name`` to a source.

        Tables and ``{column: array}`` dicts are wrapped in a
        :class:`TableSource` for convenience.  Re-binding a name cannot
        serve stale data (caches are keyed by source, not name); builds of
        a replaced source are dropped once no name references it.
        """
        if not isinstance(source, DataSource):
            source = TableSource(source, name=name)
        doomed = []
        with self._lock:
            old = self._sources.get(name)
            self._sources[name] = source
            if old is not None and old is not source and not any(
                s is old for s in self._sources.values()
            ):
                doomed = self._drop_builds(old)
        _close_engines(doomed)
        if old is not None and old is not source:
            self._notify_invalidation(name)
        return self

    def attach(self, name: str, target, **opts) -> "Catalog":
        """Bind ``name`` to *any* attachable target - the polymorphic door.

        Dispatches on what ``target`` is (see :mod:`repro.catalog.attach`):
        a ready :class:`DataSource`, a :class:`Table` or ``{column: array}``
        mapping, a DataFrame-like, a ``.csv``/``.tsv``/``.parquet`` path, or
        a declarative :class:`~repro.catalog.attach.SourceSpec`.  ``opts``
        go to the resolved source's constructor (e.g. ``delimiter=`` for
        CSV paths, ``chunk_rows=`` for tables).
        """
        from repro.catalog.attach import resolve_target

        return self.register(name, resolve_target(name, target, opts))

    def _drop_builds(self, source: DataSource) -> list:
        """Drop cached builds for one source (caller holds the lock).

        Returns the fan-out engines no query leases any more; the caller
        closes them once it has released the lock.
        """
        self._tables.pop(source, None)
        for cache in (self._populations, self._engines):
            for key in [k for k in cache if k[0] is source]:
                del cache[key]
        fanouts = self._fanouts.entries
        return [
            engine
            for key in [k for k in fanouts if k[0] is source]
            for engine in self._drop_fanout(key)
        ]

    def _drop_fanout(self, key: tuple) -> list:
        """Uncache one fan-out (lock held); its engine if nobody leases it."""
        entry = self._fanouts.entries.pop(key)
        entry.dropped = True
        return [entry.engine] if entry.leases == 0 else []

    def _share_build(self, cache: OrderedDict, key: tuple, build):
        """Enter ``build`` under ``key`` unless a concurrent query already did.

        Returns the resident build (first one in wins, so every later query
        shares one object) and evicts least-recently-used entries beyond
        :data:`MAX_CACHED_POPULATIONS`.
        """
        with self._lock:
            build = cache.setdefault(key, build)
            cache.move_to_end(key)
            while len(cache) > self.MAX_CACHED_POPULATIONS:
                cache.popitem(last=False)
            return build

    def invalidate(self, name: str) -> "Catalog":
        """Drop the named source's cached builds; the next query rebuilds.

        Use when the underlying data changed behind a cacheable source - a
        CSV file rewritten on disk, an iterator registered with
        ``cache=True`` whose replayed data moved on.  The source's own
        metadata caches are refreshed too, so schemas and row counts are
        re-inferred, not just populations rebuilt.
        """
        source = self.source(name)
        with self._lock:
            doomed = self._drop_builds(source)
        _close_engines(doomed)
        source.refresh()
        self._notify_invalidation(name)
        return self

    def subscribe_invalidation(self, listener) -> "Catalog":
        """Register ``listener(name)`` to fire when a name's builds drop.

        Fired by :meth:`invalidate` and by :meth:`register` re-binding a
        name to a different source - the two ways previously-served data can
        go stale.  Listeners are shared with :meth:`snapshot` views (like
        the build caches), run outside the catalog lock, and must not raise.
        Derived caches outside the catalog (e.g. the server result cache in
        :mod:`repro.serve.cache`) subscribe here.
        """
        self._invalidation_listeners.append(listener)
        return self

    def _notify_invalidation(self, name: str) -> None:
        for listener in list(self._invalidation_listeners):
            listener(name)

    @property
    def names(self) -> list[str]:
        """Registered table names, sorted."""
        return sorted(self._sources)

    def __contains__(self, name: str) -> bool:
        return name in self._sources

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self._sources)

    def source(self, name: str) -> DataSource:
        if name not in self._sources:
            raise KeyError(f"unknown table {name!r}; catalog has {self.names}")
        return self._sources[name]

    def schema(self, name: str) -> Schema:
        """The named source's schema (no data materialized)."""
        return self.source(name).schema()

    # -- lazy builds ---------------------------------------------------------

    def table(self, name: str) -> Table:
        """Materialize the full row-store table.

        Cached per source; non-cacheable (streaming) sources rebuild every
        call so queries never see a frozen first snapshot.
        """
        source = self.source(name)
        with self._lock:
            cached = self._tables.get(source)
        if cached is not None:
            return cached
        if isinstance(source, TableSource):
            table = source.table  # zero-copy: the wrapped table *is* the relation
        else:
            table = source.to_table(name)
        if not source.cacheable:
            return table
        with self._lock:
            return self._tables.setdefault(source, table)

    def population(
        self,
        name: str,
        group_by: str | tuple[str, ...],
        value_col: str,
        *,
        predicate: Predicate | None = None,
        value_bound: float | None = None,
    ) -> Population:
        """The grouped population for one ``(table, GROUP BY, value, predicate)``.

        ``group_by`` is one column name or a tuple of them (a composite
        key, see :func:`~repro.data.population.population_from_chunks`);
        either way the build scans only those columns and the value column.
        The WHERE predicate is lowered into the source scan (per-chunk
        filtering, nothing non-qualifying materialized); the result is cached
        (LRU, :data:`MAX_CACHED_POPULATIONS` entries) so repeated queries
        over the same grouping skip the scan entirely.  Non-cacheable
        (streaming) sources rebuild on every query.
        """
        source = self.source(name)
        group_by = as_group_by(group_by)
        key = (source, group_by, value_col, predicate, value_bound)
        if source.cacheable:
            with self._lock:
                cached = self._populations.get(key)
                if cached is not None:
                    self._populations.move_to_end(key)
                    return cached
        population = None
        if len(group_by) == 1:  # a source that is a population has one group column
            population = source.population(group_by[0], value_col, predicate, value_bound)
        if population is None:
            population = population_from_chunks(
                source.scan(columns=(*group_by, value_col), predicate=predicate),
                group_by,
                value_col,
                c=value_bound,
                name=name,
                filtered=predicate is not None,
            )
        if not source.cacheable:
            return population
        return self._share_build(self._populations, key, population)

    def seed_population(
        self,
        name: str,
        group_by: str | tuple[str, ...],
        value_col: str,
        population: Population,
        *,
        predicate: Predicate | None = None,
        value_bound: float | None = None,
    ) -> "Catalog":
        """Pre-seed the population cache for one build coordinate.

        The planner's population-engine path consults the cache under the
        same key :meth:`population` uses, so a seeded entry short-circuits
        the source scan and regroup entirely.  The caller owns correctness:
        the population must be exactly what a cold
        :func:`population_from_chunks` build over the source would produce
        (the streaming warm-start path assembles one from cached panes and
        is bit-identical by construction).  Only cacheable sources can be
        seeded - a non-cacheable source rebuilds every query and would
        silently ignore the entry.
        """
        source = self.source(name)
        if not source.cacheable:
            raise ValueError(
                f"source {name!r} is not cacheable; a seeded population "
                "would never be consulted"
            )
        key = (source, as_group_by(group_by), value_col, predicate, value_bound)
        with self._lock:
            self._populations[key] = population
            self._populations.move_to_end(key)
            while len(self._populations) > self.MAX_CACHED_POPULATIONS:
                self._populations.popitem(last=False)
        return self

    def indexed_engine(
        self,
        name: str,
        group_by: str | tuple[str, ...],
        value_column: str,
        *,
        value_bound: float | None = None,
        predicate: "Predicate | None" = None,
        group_spec=None,
        builder=None,
    ):
        """The ``needletail``/``noindex`` engine for one build coordinate, built once.

        ``builder`` (the planner's cold construction over the grouped
        population) runs only on a miss; the engine it returns is cached
        under :meth:`population`'s coordinates - ``group_spec``, the GROUP BY
        list, stands in for ``group_by`` when given - and obeys the rules
        populations obey: LRU-bounded by
        :data:`MAX_CACHED_POPULATIONS`, skipped for non-cacheable sources,
        dropped by :meth:`invalidate`/rebinding, shared with snapshots.
        Sharing one engine across concurrent queries is safe: it is immutable
        after construction, all per-run state lives on the ``EngineRun``.
        Like :meth:`population`, concurrent first queries may each build;
        the first to finish is the one every later query gets.  On a
        :class:`~repro.storage.DurableCatalog` the builder's population comes
        from disk, so a warm re-open builds nothing from source rows.
        """
        if builder is None:
            return None
        source = self.source(name)
        key = (source, as_group_by(group_spec or group_by), value_column, predicate, value_bound)
        if source.cacheable:
            with self._lock:
                cached = self._engines.get(key)
                if cached is not None:
                    self._engines.move_to_end(key)
                    return cached
        engine = builder()
        if engine is None or not source.cacheable:
            return engine
        return self._share_build(self._engines, key, engine)

    def fanout(
        self,
        name: str,
        group_spec,
        value_column: str,
        *,
        predicate: "Predicate | None",
        value_bound: float | None,
        engine,
        shards: int,
        max_workers: int | None,
        executor: str,
        builder,
    ) -> FanoutLease:
        """Lease the sharded engine for one build coordinate.

        ``builder`` (the planner's backend build plus its ``ShardedEngine``
        wrap; threads and workers start lazily on the first run) runs on a
        miss, outside the lock.  The entry is keyed like
        :meth:`indexed_engine`'s plus ``engine`` (the planner's engine
        definition, so re-registering a name never serves the old factory's
        build), ``shards``, ``max_workers`` and the requested executor, and
        follows the other caches' rules: dropped by :meth:`invalidate` and
        rebinding, shared with snapshots.  Its LRU bound is
        :data:`MAX_CACHED_FANOUTS`, not the population bound: an entry holds
        live threads or worker processes.  A non-cacheable source (or a
        closed catalog) gets a fresh engine whose pool the lease releases.

        Concurrent queries share one engine, and so one worker per shard:
        their draws on a shard are serialized by that worker.  A closed
        engine (``Result.engine.close()``) is never handed out: the lookup
        replaces it.  One whose breaker opened or whose restart budget ran
        out is dropped when the query that saw it go bad returns its lease
        (runs opened on it meanwhile go thread-side, with a caveat), and the
        next query builds a fresh one - fresh budget, fresh breaker.
        """
        source = self.source(name)
        key = (
            source, tuple(group_spec), value_column, predicate, value_bound,
            engine, shards, max_workers, executor,
        )
        entries = self._fanouts.entries
        entry = None
        if source.cacheable:
            with self._lock:
                entry = self._lease_fanout(key)
        if entry is None:
            built = builder()
            doomed = []
            with self._lock:  # so a racing close() cannot miss an entry added here
                if source.cacheable and not self._fanouts.closed:
                    entry = self._lease_fanout(key)
                    if entry is None:  # first in wins, as in _share_build
                        entry = entries[key] = _Fanout(built)
                        entry.leases += 1
                        while len(entries) > self.MAX_CACHED_FANOUTS:
                            doomed += self._drop_fanout(next(iter(entries)))
            _close_engines(doomed)
            if entry is None:
                return FanoutLease(built, built.release_pool)
            if entry.engine is not built:
                built.close()  # lost the race; nothing was started on it
        return FanoutLease(entry.engine, lambda: self._return_fanout(key, entry))

    def _lease_fanout(self, key: tuple) -> "_Fanout | None":
        """The live entry under ``key`` with one more lease, or None (lock held).

        A closed entry (``Result.engine.close()``) is dropped here; it is
        shut down already, so nothing is left to close.
        """
        entry = self._fanouts.entries.get(key)
        if entry is None or self._fanouts.closed:
            return None
        if entry.engine.closed:
            self._drop_fanout(key)
            return None
        self._fanouts.entries.move_to_end(key)
        entry.leases += 1
        return entry

    def _return_fanout(self, key: tuple, entry: _Fanout) -> None:
        """One lease ended: drop a gone-bad engine, close an orphaned one."""
        with self._lock:
            entry.leases -= 1
            if not entry.dropped and not entry.engine.reusable:
                self._drop_fanout(key)
            orphaned = entry.dropped and entry.leases == 0
        if orphaned:
            entry.engine.close()

    def close(self) -> None:
        """Shut down every cached fan-out (idempotent).

        Pools leased by in-flight queries shut down when those queries
        finish.  The catalog stays usable: later sharded queries get a
        per-query fan-out, released when they finish.
        """
        with self._lock:
            self._fanouts.closed = True
            doomed = [
                engine
                for key in list(self._fanouts.entries)
                for engine in self._drop_fanout(key)
            ]
        _close_engines(doomed)

    def __enter__(self) -> "Catalog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def drain_resilience_events(self) -> list[str]:
        """Self-healing events since the last drain.

        The in-memory catalog has nothing that can rot, so this is always
        empty; :class:`~repro.storage.DurableCatalog` overrides it with the
        quarantine/degradation notes the planner surfaces as ``resilience:``
        caveats.
        """
        return []

    # -- introspection -------------------------------------------------------

    def describe(self, name: str) -> SourceInfo:
        """Metadata for one entry: kind, schema, caching status."""
        source = self.source(name)
        with self._lock:
            table_cached = source in self._tables
            builds = tuple(k[1:] for k in self._populations if k[0] is source)
            engines = tuple(k[1:] for k in self._engines if k[0] is source)
            fanouts = [
                (k, entry.engine)
                for k, entry in self._fanouts.entries.items()
                if k[0] is source
            ]
        return SourceInfo(
            name=name,
            kind=source.kind,
            description=source.describe(),
            schema=source.schema(),
            row_count_hint=source.row_count_hint(),
            table_cached=table_cached,
            cached_populations=builds,
            cached_engines=engines,
            cached_fanouts=tuple(
                FanoutBuild(
                    group_by=key[1],
                    value_column=key[2],
                    engine=key[5].name,
                    shards=engine.shards,
                    executor=engine.executor,
                    workers=engine.live_workers,
                )
                for key, engine in fanouts
            ),
        )

    def snapshot(self) -> "Catalog":
        """A name-isolated view for in-flight queries.

        The *name binding* is copied: later ``register`` calls on either
        catalog never change what the other's names resolve to (the
        ``Session.submit`` isolation contract).  The build caches and their
        lock are *shared* - cache keys are source objects, so a shared entry
        can never go stale, and builds done by async queries benefit every
        later query instead of being re-scanned per snapshot.  Subclass state
        (a ``DurableCatalog``'s store, breaker and event list) is shared the
        same way, so the view keeps answering from and persisting to it.
        """
        clone = object.__new__(type(self))
        with self._lock:
            clone.__dict__.update(self.__dict__)
            clone._sources = dict(self._sources)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Catalog(tables={self.names})"


def _close_engines(engines: list) -> None:
    """Shut dropped fan-outs down; callers must not hold the catalog lock
    (a process pool's shutdown joins its workers)."""
    for engine in engines:
        engine.close()
