"""``DurableCatalog``: the in-memory catalog backed by an on-disk store.

A durable catalog behaves exactly like :class:`~repro.catalog.Catalog` - same
``attach``/``register``/``population``/``indexed_engine`` surface, same
source-identity cache keys - with one addition: every cacheable population
build is also persisted to a :class:`~repro.storage.store.Store`, and
answered from memory-mapped segments on later lookups.  Every engine door
(``needletail``, ``memory``, ``noindex``) samples such a population, and
every GROUP BY - one column or a composite key - builds one, so one build
kind serves them all; its build key carries the GROUP BY column list.  Because the mapped arrays are the *same bytes*
the RAM build produced (the pack/unpack round trip in
:mod:`repro.storage.mapped`), queries over a warm-opened catalog are
bit-identical to cold-built ones - asserted by the storage test matrix across
every engine, both executors, and shard counts.

Re-open discipline: ``DurableCatalog(path)`` reloads every persisted binding
(CSV/Parquet paths, synthetic generator specs, memory tables stored as
column segments) in O(bindings), and the first query over each table maps its
population straight from disk - ``BUILD_COUNTS`` shows zero builds from
source rows on the warm path.

Staleness discipline (the PR-8 stale-cache fix): builds are fingerprinted by
their source's identity-on-disk (path + size + mtime for files, a content
checksum for memory tables, the parameter spec for synthetic sources).  A
lookup whose fingerprint drifted is a miss; :meth:`invalidate` and a
rebinding :meth:`register` additionally *delete* the on-disk builds, so a
rewritten CSV can never serve the old segment - not even to a process that
skipped the invalidate.

Self-healing discipline (PR 10): queries never fail on store rot, and never
fail on a store that stopped accepting writes.

* A corrupt build detected at load time (checksum/shape mismatch, missing
  file) is **quarantined** - catalog row tombstoned, files moved to
  ``quarantine/`` - and the lookup becomes a clean miss, so the normal cold
  path rebuilds from source and re-persists.  The event is noted and
  surfaced as a ``resilience:`` caveat on the next result.
* An OS-level write failure (ENOSPC is the canonical shape) trips a sticky
  :class:`~repro.resilience.breaker.CircuitBreaker`: from then on every
  persist is skipped and the catalog runs memory-only write-through -
  the query path is never blocked on a disk that cannot take bytes.
  Injected ``fail_segment_write`` transients are *not* absorbed: the crash
  -atomicity contract (a failed save leaves no partial build and surfaces)
  is unchanged.
"""

from __future__ import annotations

import json
import os
import sqlite3
import zlib

from repro.catalog.catalog import Catalog
from repro.catalog.csv import CSVSource
from repro.catalog.parquet import HAVE_PYARROW, ParquetSource
from repro.catalog.schema import Schema
from repro.catalog.source import DataSource, TableSource
from repro.catalog.synthetic import SyntheticSource
from repro.data.population import BUILD_COUNTS, Population, as_group_by
from repro.errors import StorageError
from repro.query.ast import Predicate, predicate_to_dict
from repro.resilience.breaker import CircuitBreaker
from repro.storage.mapped import (
    concatenated,
    pack_population,
    pack_table,
    unpack_population,
    unpack_table,
)
from repro.storage.store import Store

__all__ = ["DurableCatalog"]


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _schema_json(schema: Schema) -> str:
    return _canonical({"columns": [[c.name, c.kind] for c in schema]})


class DurableCatalog(Catalog):
    """A :class:`Catalog` whose builds and bindings survive the process.

    Args:
        path: the store directory (created if absent); holds
            ``catalog.sqlite`` plus one segment file per persisted array.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        super().__init__()
        self._store = Store(path)
        #: Content fingerprints for memory tables (immutable once attached);
        #: file fingerprints are re-stat'ed on every lookup instead.
        self._fps: dict[DataSource, str] = {}
        #: Sticky store-write breaker: one OS-level write failure (ENOSPC
        #: et al.) degrades the catalog to memory-only write-through for the
        #: rest of its life - a full disk never blocks the query path.
        self._breaker = CircuitBreaker(threshold=1)
        #: Self-healing notes (quarantines, write degradation) awaiting
        #: :meth:`drain_resilience_events`; shared with snapshots.
        self._events: list[str] = []
        self._reload()

    @property
    def store(self) -> Store:
        """The backing :class:`Store` (CLI maintenance goes through this)."""
        return self._store

    def close(self) -> None:
        """Shut down cached fan-outs, then close the store's connection."""
        super().close()
        self._store.close()

    # -- self-healing --------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True once the write breaker opened (memory-only write-through)."""
        return self._breaker.open

    def _note(self, event: str) -> None:
        with self._lock:
            self._events.append(event)

    def drain_resilience_events(self) -> list[str]:
        """Quarantine/degradation notes since the last drain (then cleared).

        The planner drains these into ``resilience:`` result caveats, the
        same surface worker-recovery events use - so a query that healed the
        store on its way to an answer says so.
        """
        with self._lock:
            events, self._events[:] = list(self._events), []
        return events

    def _healing_load(
        self, name: str, kind: str, key: str, *, fingerprint: str | None
    ):
        """``Store.load_build`` that quarantines corruption instead of raising.

        A :class:`StorageError` here means rot (checksum/shape mismatch,
        missing or swapped file): the build is pulled from service and the
        lookup reported as a miss, so the caller's cold path rebuilds from
        source and re-persists - the query never fails.
        """
        try:
            return self._store.load_build(name, kind, key, fingerprint=fingerprint)
        except StorageError as exc:
            moved = self._store.quarantine_build(name, kind, key, reason=str(exc))
            self._note(
                f"storage: quarantined corrupt {kind} build for table "
                f"{name!r} ({len(moved)} segment(s)) and rebuilt from source"
            )
            return None

    def _best_effort_persist(self, what: str, op) -> bool:
        """Run one persist step unless (until) the write breaker is open.

        OS-level failures (ENOSPC, EIO, a read-only filesystem - and the
        sqlite errors they surface as) trip the sticky breaker and are
        swallowed: the build stays served from memory and the caller
        continues.  Everything else -- notably the injected
        ``fail_segment_write`` :class:`~repro.errors.TransientError` the
        crash-atomicity tests drive -- propagates unchanged.
        """
        if self._breaker.open:
            return False
        try:
            op()
            return True
        except (OSError, sqlite3.Error) as exc:
            self._breaker.record_failure(f"store write failed: {exc}")
            self._note(
                f"storage: {what} could not be persisted ({exc}); the store "
                "is write-degraded, running memory-only until restart"
            )
            return False

    # -- binding persistence -------------------------------------------------

    def _reload(self) -> None:
        """Rebuild every persisted binding (O(bindings), no data scanned)."""
        for row in self._store.bindings():
            try:
                source = self._rebuild_source(row)
            except StorageError:
                raise
            except Exception:
                # A binding whose reconstruction fails outright (e.g. a
                # synthetic family renamed between versions) is skipped; the
                # catalog row stays for `repro store ls` forensics.
                continue
            if source is not None:
                Catalog.register(self, row["name"], source)

    def _rebuild_source(self, row: dict) -> DataSource | None:
        options = json.loads(row["source_json"])
        kind = row["kind"]
        if kind == "csv":
            return CSVSource(**options)
        if kind == "parquet":
            if not HAVE_PYARROW:
                return None
            return ParquetSource(**options)
        if kind == "synthetic":
            family = options.pop("family")
            return SyntheticSource(family, **options)
        if kind == "memory":
            # A rotten table build quarantines like any other - but a memory
            # table's only source *was* the build, so the name simply stays
            # unbound (re-attach to restore it); queries elsewhere are
            # unaffected and the caveat says what happened.
            hit = self._healing_load(
                row["name"], "table", "table", fingerprint=row["fingerprint"]
            )
            if hit is None:
                return None
            meta, arrays = hit
            table = unpack_table(meta, arrays, row["name"])
            source = TableSource(table, name=row["name"])
            self._fps[source] = row["fingerprint"]
            return source
        return None

    def _describe_source(self, source: DataSource) -> tuple[str, dict] | None:
        """``(kind, source_json)`` for a persistable source, else ``None``.

        The inverse of :meth:`_rebuild_source`.  Sources with no durable
        description (iterator streams, custom callables, third-party
        ``DataSource`` subclasses) stay memory-only.
        """
        if isinstance(source, CSVSource):
            return "csv", {
                "path": source.path,
                "group_columns": sorted(source._group_cols),
                "value_columns": sorted(source._value_cols),
                "delimiter": source._delimiter,
                "chunk_rows": source._chunk_rows,
            }
        if isinstance(source, ParquetSource):
            return "parquet", {"path": source.path, "batch_rows": source._batch_rows}
        if isinstance(source, SyntheticSource):
            from repro.data.synthetic import SYNTHETIC_FAMILIES

            if source._family not in SYNTHETIC_FAMILIES:
                return None  # a bare callable cannot be rebuilt from JSON
            try:
                json.dumps(source._params)
            except (TypeError, ValueError):
                return None
            return "synthetic", {
                "family": source._family,
                "group_column": source._group_column,
                "value_column": source._value_column,
                **source._params,
            }
        if isinstance(source, TableSource):
            return "memory", {}
        return None

    def _fingerprint(self, source: DataSource) -> str | None:
        """The source's identity-on-disk; ``None`` when it has none.

        A changed fingerprint is how every stale-cache defense fires: disk
        lookups compare it per call (files are re-stat'ed each time), and a
        rebinding ``register`` deletes builds whose fingerprint moved.
        """
        if isinstance(source, (CSVSource, ParquetSource)):
            try:
                st = os.stat(source.path)
            except OSError:
                return None
            return _canonical([source.path, st.st_size, st.st_mtime_ns])
        if isinstance(source, SyntheticSource):
            try:
                return _canonical([source._family, source._params])
            except (TypeError, ValueError):
                return None
        if isinstance(source, TableSource):
            cached = self._fps.get(source)
            if cached is not None:
                return cached
            crc = 0
            table = source.table
            for name in table.column_names:
                column = table.column(name)
                crc = zlib.crc32(name.encode("utf-8"), crc)
                if not column.dtype.hasobject:
                    crc = zlib.crc32(column.tobytes(), crc)
            fp = f"crc32:{crc:08x}:{table.num_rows}"
            self._fps[source] = fp
            return fp
        return None

    def register(self, name: str, source) -> "DurableCatalog":
        super().register(name, source)
        bound = self._sources[name]
        self._best_effort_persist(
            f"binding for table {name!r}",
            lambda: self._persist_binding(name, bound),
        )
        return self

    def _persist_binding(self, name: str, source: DataSource) -> None:
        desc = self._describe_source(source)
        if desc is None or not source.cacheable:
            # Not durable: make sure no stale binding lingers under the name.
            if self._store.binding(name) is not None:
                self._store.unbind_table(name)
            return
        kind, source_json = desc
        fingerprint = self._fingerprint(source)
        old = self._store.binding(name)
        if old is not None and (
            old["kind"] != kind
            or old["source_json"] != _canonical(source_json)
            or old["fingerprint"] != fingerprint
        ):
            # Rebinding to different data: the on-disk builds are stale NOW,
            # not at next lookup - delete them (the PR-8 regression contract).
            self._store.drop_builds(name)
        self._store.bind_table(
            name,
            kind=kind,
            schema_json=_schema_json(source.schema()),
            row_count=source.row_count_hint(),
            source_json=_canonical(source_json),
            fingerprint=fingerprint,
        )
        if kind == "memory":
            self._persist_table(name, source, fingerprint)

    def _persist_table(self, name: str, source: TableSource, fingerprint) -> None:
        """Persist a memory table's columns so re-open can rebuild the source."""
        if self._healing_load(name, "table", "table", fingerprint=fingerprint):
            return  # identical content already stored
        packed = pack_table(source.table)
        if packed is None:
            # Object-dtype columns have no stable byte form: drop the binding
            # (the source still works, it is just not durable).
            self._store.unbind_table(name)
            return
        meta, arrays = packed
        self._store.save_build(
            name, "table", "table", fingerprint=fingerprint, meta=meta, arrays=arrays
        )

    def invalidate(self, name: str) -> "DurableCatalog":
        """Drop the name's cached builds - in memory AND on disk."""
        super().invalidate(name)
        source = self._sources.get(name)

        def refresh():
            self._store.drop_builds(name)
            if source is not None:
                self._persist_binding(name, source)  # refresh the fingerprint

        if source is not None:
            self._fps.pop(source, None)
        # Best-effort on a degraded store: the in-memory drop above already
        # guarantees no stale build is served from *this* process, and the
        # fingerprint check protects any other.
        self._best_effort_persist(f"invalidation of table {name!r}", refresh)
        return self

    # -- disk-backed builds --------------------------------------------------

    def _build_key(
        self,
        group_by: tuple[str, ...],
        value_column: str,
        predicate: Predicate | None,
        value_bound: float | None,
    ) -> str:
        return _canonical(
            {
                "group_by": list(group_by),
                "value": value_column,
                "where": predicate_to_dict(predicate) if predicate is not None else None,
                "bound": value_bound,
            }
        )

    def population(
        self,
        name: str,
        group_by: str | tuple[str, ...],
        value_col: str,
        *,
        predicate: Predicate | None = None,
        value_bound: float | None = None,
    ) -> Population:
        source = self.source(name)
        group_by = as_group_by(group_by)
        if not source.cacheable or self._store.binding(name) is None:
            return super().population(
                name, group_by, value_col, predicate=predicate, value_bound=value_bound
            )
        ram_key = (source, group_by, value_col, predicate, value_bound)
        with self._lock:
            cached = self._populations.get(ram_key)
        if cached is not None:
            # Delegate so the base LRU bookkeeping (move_to_end) still runs.
            return super().population(
                name, group_by, value_col, predicate=predicate, value_bound=value_bound
            )
        key = self._build_key(group_by, value_col, predicate, value_bound)
        fingerprint = self._fingerprint(source)
        hit = self._healing_load(name, "population", key, fingerprint=fingerprint)
        if hit is not None:
            meta, arrays = hit
            BUILD_COUNTS["mapped"] += 1
            return self._share_build(
                self._populations, ram_key, unpack_population("population", meta, arrays)
            )
        population = super().population(
            name, group_by, value_col, predicate=predicate, value_bound=value_bound
        )
        packed = pack_population(population)
        if packed is not None:
            _, meta, buffers = packed
            arrays = concatenated(buffers)
            self._best_effort_persist(
                f"population build for table {name!r}",
                lambda: self._store.save_build(
                    name, "population", key, fingerprint=fingerprint,
                    meta=meta, arrays=arrays,
                ),
            )
        return population

    # -- priming (repro store build) ----------------------------------------

    def prime(
        self,
        name: str,
        group_by: str | tuple[str, ...],
        value_col: str,
        *,
        value_bound: float | None = None,
    ) -> list[str]:
        """Build and persist the population one ``(GROUP BY, value)`` query needs.

        Returns the kinds persisted (``["population"]``, or ``[]`` when the
        build was on disk already or cannot be stored).  This is ``repro
        store build``'s workhorse: it runs the same cold construction the
        first query would, so a server restarted against the store boots
        warm - on every engine door, since they all sample this build.
        """
        before = len(self._store.builds(name))
        self.population(name, group_by, value_col, value_bound=value_bound)
        return ["population"] if len(self._store.builds(name)) > before else []

    # -- checkpoints ---------------------------------------------------------

    def save_checkpoint(
        self, checkpoint_id: str, *, kind: str, payload: dict, state: dict
    ) -> bool:
        """Best-effort checkpoint write (skipped once the store degraded)."""
        return self._best_effort_persist(
            f"checkpoint {checkpoint_id!r}",
            lambda: self._store.save_checkpoint(
                checkpoint_id, kind=kind, payload=payload, state=state
            ),
        )

    def load_checkpoint(self, checkpoint_id: str) -> tuple[dict, dict] | None:
        return self._store.load_checkpoint(checkpoint_id)

    def checkpoints(self, kind: str | None = None) -> list[dict]:
        return self._store.checkpoints(kind)

    def delete_checkpoint(self, checkpoint_id: str) -> bool:
        ok = False

        def drop():
            nonlocal ok
            ok = self._store.delete_checkpoint(checkpoint_id)

        self._best_effort_persist(f"checkpoint {checkpoint_id!r} deletion", drop)
        return ok
