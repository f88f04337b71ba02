"""Sharded execution: fan one engine's sampling work out across N shards.

:class:`ShardedEngine` wraps any :class:`~repro.engines.base.SamplingEngine`
(memory, NEEDLETAIL, the no-index substrate, or a third-party backend) and
partitions its groups into N shards (:mod:`repro.engines.partition`).  Each
shard owns an independent :class:`~repro.engines.base.EngineRun` over its
sub-population, so a fused ``draw_block`` request fans out to per-shard block
kernels - optionally on a thread pool - and the per-shard matrices are merged
into the caller's column order.  The algorithms above (IFOCUS and friends)
see the ordinary ``EngineRun`` interface and need no changes.

Determinism contract (asserted by ``tests/engines/test_sharded.py``):

* Group sampling streams are spawned from the root ``SeedSequence`` exactly
  as the plain engines spawn them (:func:`repro._util.spawn_group_rngs`), and
  each shard receives its groups' streams.  A shard therefore owns a disjoint
  set of independent ``SeedSequence.spawn`` children - per-shard RNG streams
  with no cross-shard coupling.
* Merge order is stable: shard j writes only the output columns of its own
  groups, and every column is a pure function of that group's stream, so the
  merged block is bit-identical no matter how the thread pool schedules the
  shards (or whether a pool is used at all).
* ``shards=1`` builds one shard run whose samplers and fused kernels are
  constructed exactly as the wrapped engine's ``open_run`` would construct
  them, so it is bit-identical to the unsharded engine for **every** sampler
  kind.  For per-group-stream samplers (materialized, rejection-based
  virtual) any shard count is bit-identical to the plain
  engine; only fusable virtual groups - which deliberately share one stream
  per fused kernel - draw different (equally distributed) values when the
  kernel is split across shards.
* Accounting is serialized at the merge layer: ``charge``/``charge_block``
  count into one global :class:`~repro.engines.base.RunStats`, exactly like
  an unsharded run; shard runs only draw, so nothing is counted twice.
  Sharding parallelizes the physical draw work, never the accounting.

Two executors serve the fan-out (``executor=`` at construction):

* ``"thread"`` (default) - per-shard :class:`EngineRun` objects in-process,
  fanned out on a lazy thread pool.  Cheap to build, but the GIL serializes
  the Python half of each draw, so elapsed time does not parallelize.
* ``"process"`` - persistent per-shard worker processes
  (:mod:`repro.engines.procpool`) mapping the population's buffers zero-copy
  from files (:mod:`repro.engines.payload`).  Workers rebuild their
  groups' RNG streams from the same ``SeedSequence`` children, so the whole
  determinism contract above holds verbatim; elapsed time scales with cores.
  Requires a process-shareable population (:func:`repro.engines.payload.shareable`).

Lifetime: an engine keeps its fan-out (threads or workers, and their
pool directory of payload files) until :meth:`ShardedEngine.close`.  The planner does
not build one per query: the :class:`~repro.catalog.Catalog` caches one
engine per build coordinate and lends it to every query over that
coordinate, so ``executor="process"`` spawns once per session and key.  Runs
never share state - each owns its streams, its worker-side samplers and its
replay-log entries - which is why reuse cannot move a single sample.

Resilience events (crashes, respawns, degradations, an open breaker) are
kept twice: :meth:`ShardedEngine.resilience_events` is the engine's lifetime
list, and the list installed by :func:`collect_query_events` receives each
event observed by the query that installed it, exactly once - so on a
shared engine one crash is one caveat, on the query that saw it.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro._util import rngs_from_seed_seqs, spawn_group_rngs, spawn_group_seed_seqs
from repro.data.population import Population
from repro.engines.base import EngineRun, SamplingEngine
from repro.errors import WorkerCrashed
from repro.resilience.breaker import CircuitBreaker

__all__ = [
    "SHARD_EXECUTORS",
    "ShardedEngine",
    "ShardedRun",
    "ProcessShardedRun",
    "collect_query_events",
]

#: Recognised fan-out executors for ``ShardedEngine``/``QuerySpec.executor``.
SHARD_EXECUTORS = ("thread", "process")

#: The event list of the query running in this context (see
#: :func:`collect_query_events`).  A context variable, not an engine field:
#: one cached engine serves many concurrent queries, and each command runs
#: on a thread acting for exactly one of them.
_QUERY_EVENTS: contextvars.ContextVar["list[str] | None"] = contextvars.ContextVar(
    "repro_query_events", default=None
)


@contextlib.contextmanager
def collect_query_events(sink: list[str]):
    """Route resilience events observed in this context into ``sink``.

    Every crash, respawn, degradation or open-breaker note a sharded run
    observes while the block is active - on this thread, or on the fan-out
    threads its draws dispatch to, which inherit the context - is appended
    to ``sink`` as well as to the engine's lifetime list.
    """
    token = _QUERY_EVENTS.set(sink)
    try:
        yield sink
    finally:
        _QUERY_EVENTS.reset(token)


def _report_to_query(text: str) -> None:
    sink = _QUERY_EVENTS.get()
    if sink is not None:
        sink.append(text)


class ShardedRun(EngineRun):
    """One algorithm run over a sharded engine: per-shard runs + global accounting.

    Subclasses :class:`EngineRun` so the accounting surface (``charge``,
    ``charge_block``, ``charge_scan``, ``exact_mean``, ``stats``) is the
    inherited implementation over the *full* population; only the draw paths
    are overridden to route through the per-shard runs.
    """

    def __init__(
        self,
        population: Population,
        shard_runs: list[EngineRun],
        shard_gids: list[np.ndarray],
        pool_factory,
        record_timings: bool = False,
    ) -> None:
        # No samplers at this level: drawing is delegated to the shard runs.
        super().__init__(population, [])
        self._runs = shard_runs
        self._shard_gids = shard_gids
        self._pool_factory = pool_factory
        self._record = bool(record_timings)
        k = population.k
        self._shard_of = np.full(k, -1, dtype=np.int64)
        self._local_of = np.full(k, -1, dtype=np.int64)
        for s, gids in enumerate(shard_gids):
            self._shard_of[gids] = s
            self._local_of[gids] = np.arange(gids.size)
        #: Per-shard thread-CPU seconds spent drawing (populated only when the
        #: engine was built with ``record_timings=True``).  ``max()`` of this
        #: is the run's draw critical path - the wall time a worker-per-shard
        #: deployment would see - which the scaling microbench reports, since
        #: single-core CI containers cannot express the speedup in elapsed time.
        self.shard_seconds = np.zeros(len(shard_runs), dtype=np.float64)

    @property
    def num_shards(self) -> int:
        return len(self._runs)

    def _timed_block(self, shard: int, local_gids, count: int) -> np.ndarray:
        """One shard's fused draw, accumulating its thread-CPU seconds."""
        if not self._record:
            return self._runs[shard].draw_block(local_gids, count)
        t0 = time.thread_time()
        block = self._runs[shard].draw_block(local_gids, count)
        self.shard_seconds[shard] += time.thread_time() - t0
        return block

    def _draw_shard(self, shard: int, out, cols, local_gids, count: int) -> None:
        out[:, cols] = self._timed_block(shard, local_gids, count)

    def draw(self, gid: int, count: int) -> np.ndarray:
        shard = int(self._shard_of[gid])
        return self._runs[shard].draw(int(self._local_of[gid]), count)

    def draw_block(self, gids: np.ndarray, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        gids = np.asarray(gids, dtype=np.int64)
        if count == 0 or gids.size == 0:
            return np.empty((count, gids.size), dtype=np.float64)
        shards = self._shard_of[gids]
        involved = np.unique(shards)
        if involved.size == 1:
            # Single-shard request (always the case at shards=1): delegate
            # wholesale, preserving the wrapped run's exact fused path.
            return self._timed_block(int(involved[0]), self._local_of[gids], count)
        out = np.empty((count, gids.size), dtype=np.float64)
        tasks = []
        for shard in involved:
            cols = np.flatnonzero(shards == shard)
            tasks.append((int(shard), cols, self._local_of[gids[cols]]))
        pool = self._pool_factory()
        if pool is None:
            for shard, cols, local in tasks:
                self._draw_shard(shard, out, cols, local, count)
        else:
            # Each task runs in a copy of this context, so events its
            # commands observe reach the query that issued the draw.
            futures = [
                pool.submit(
                    contextvars.copy_context().run,
                    self._draw_shard, shard, out, cols, local, count,
                )
                for shard, cols, local in tasks
            ]
            for future in futures:
                future.result()  # propagate shard errors in stable order
        return out


class _ShardWorkerProxy:
    """Routes one shard's draw traffic to its worker process.

    Duck-types the slice of the :class:`EngineRun` draw surface that
    :class:`ShardedRun` calls on its per-shard runs, so the merge logic is
    shared verbatim between the thread and process executors.
    """

    __slots__ = ("_pool", "_shard", "_run_id", "last_seconds")

    def __init__(self, pool, shard: int, run_id: int) -> None:
        self._pool = pool
        self._shard = shard
        self._run_id = run_id
        #: Worker-side thread-CPU seconds of the most recent draw.
        self.last_seconds = 0.0

    def draw(self, gid: int, count: int) -> np.ndarray:
        if count == 0:
            return np.empty(0, dtype=np.float64)
        block, self.last_seconds = self._pool.draw(
            self._shard, self._run_id, gid, count
        )
        return block

    def draw_block(self, gids: np.ndarray, count: int) -> np.ndarray:
        block, self.last_seconds = self._pool.draw_block(
            self._shard, self._run_id, gids, count
        )
        return block


class ProcessShardedRun(ShardedRun):
    """A sharded run whose per-shard draws execute in worker processes.

    Identical merge/accounting behaviour to :class:`ShardedRun` (it *is*
    one, over worker proxies); only the timing source differs -
    ``shard_seconds`` accumulates the workers' own draw thread-CPU, since
    the parent thread spends its time blocked on the pipe, not drawing.

    Degradation: when a shard's worker is gone for good (the pool's restart
    budget ran out, so ``WorkerCrashed`` escaped the pool's own recovery),
    the run falls back to a thread-side :class:`EngineRun` for that shard -
    rebuilt from the run's own ``SeedSequence`` children and fast-forwarded
    by replaying the shard's draw history, so the continuation is
    bit-identical to an uninjured run.  Shards are independent (disjoint
    groups, disjoint streams), so degradation is per shard and needs no
    cross-shard coordination.
    """

    def __init__(
        self,
        *args,
        engine: "ShardedEngine | None" = None,
        seed_seqs=None,
        without_replacement: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self._engine = engine
        self._seed_seqs = seed_seqs
        self._without_replacement = bool(without_replacement)
        #: Per-shard draw history: ("draw_block", local_gids, count) and
        #: ("draw", local_gid, count) entries, recorded while the shard is
        #: still proxy-backed.  This is the degradation replay journal.
        self._history: list[list[tuple]] = [[] for _ in self._runs]
        self._degraded = [False] * len(self._runs)

    @property
    def degraded_shards(self) -> list[int]:
        """Shards that fell back to thread-side execution mid-run."""
        return [s for s, d in enumerate(self._degraded) if d]

    def _degrade_shard(self, shard: int, cause: WorkerCrashed) -> None:
        """Swap one shard's dead proxy for a replayed thread-side run."""
        engine = self._engine
        # max_restarts=0 opts out of resilience entirely: crashes surface.
        if engine is None or self._seed_seqs is None or engine.max_restarts == 0:
            raise cause
        run = engine._thread_shard_run(
            shard, self._seed_seqs, self._without_replacement
        )
        for kind, arg, count in self._history[shard]:
            if kind == "draw_block":
                run.draw_block(arg, count)
            else:
                run.draw(arg, count)
        self._runs[shard] = run
        self._degraded[shard] = True
        self._history[shard] = []  # threads do not crash; journal closed
        engine._note_degraded_shard(shard, cause)

    def _timed_block(self, shard: int, local_gids, count: int) -> np.ndarray:
        if not self._degraded[shard]:
            proxy = self._runs[shard]
            try:
                block = proxy.draw_block(local_gids, count)
            except WorkerCrashed as exc:
                self._degrade_shard(shard, exc)
            else:
                self._history[shard].append(("draw_block", local_gids, count))
                if self._record:
                    self.shard_seconds[shard] += proxy.last_seconds
                return block
        # Thread-side (degraded) shard: re-issue the in-flight draw here.
        run = self._runs[shard]
        if not self._record:
            return run.draw_block(local_gids, count)
        t0 = time.thread_time()
        block = run.draw_block(local_gids, count)
        self.shard_seconds[shard] += time.thread_time() - t0
        return block

    def draw(self, gid: int, count: int) -> np.ndarray:
        shard = int(self._shard_of[gid])
        local = int(self._local_of[gid])
        if not self._degraded[shard]:
            proxy = self._runs[shard]
            try:
                block = proxy.draw(local, count)
            except WorkerCrashed as exc:
                self._degrade_shard(shard, exc)
            else:
                if count:  # zero-draws never reach the worker: not replayed
                    self._history[shard].append(("draw", local, count))
                return block
        return self._runs[shard].draw(local, count)


class ShardedEngine(SamplingEngine):
    """Range-partition a backend engine into N parallel shards.

    Args:
        backend: any constructed :class:`SamplingEngine`; the sharded engine
            shares its population.  The backend's
            own ``open_run`` is never called - samplers are built per shard.
        shards: requested shard count (>= 1).  Shards left empty by
            :func:`~repro.engines.partition.range_partition` (``shards > k``)
            are skipped, so the effective count is ``len(engine.shard_gids)``.
        max_workers: fan-out pool width (dispatch threads); ``None`` means one
            worker per (non-empty) shard, ``1`` disables the pool entirely
            (sequential fan-out, still bit-identical - merge order is stable
            by construction).  With ``executor="process"`` this sizes only the
            parent-side dispatch threads; there is always one worker process
            per shard.
        record_timings: accumulate per-shard draw thread-CPU seconds on each
            run (``ShardedRun.shard_seconds``) for scaling measurements.
        executor: ``"thread"`` (in-process fan-out, default) or ``"process"``
            (persistent spawn workers over mapped payload files; requires a
            process-shareable population, see
            :func:`repro.engines.payload.shareable`).
        max_restarts: worker-respawn budget handed to the process pool
            (``0`` disables recovery: a crash surfaces as ``WorkerCrashed``
            immediately, the pre-resilience contract).
        breaker_threshold: worker crashes before the circuit breaker opens
            and new runs degrade to the thread executor.
    """

    def __init__(
        self,
        backend: SamplingEngine,
        shards: int = 2,
        *,
        max_workers: int | None = None,
        record_timings: bool = False,
        executor: str = "thread",
        max_restarts: int = 3,
        breaker_threshold: int = 3,
    ) -> None:
        from repro.engines.partition import range_partition

        super().__init__(backend.population)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if executor not in SHARD_EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; known: {SHARD_EXECUTORS}"
            )
        if executor == "process":
            from repro.engines.payload import shareable

            reason = shareable(backend.population)
            if reason is not None:
                raise ValueError(
                    f"executor='process' needs a process-shareable population: "
                    f"{reason} (use executor='thread')"
                )
        # Sharding rebuilds samplers per shard from the population, so a
        # backend whose open_run is customized would be silently bypassed -
        # refuse loudly instead (such engines register shardable=False).
        if type(backend).open_run is not SamplingEngine.open_run:
            raise TypeError(
                f"{type(backend).__name__} overrides open_run, which sharding "
                "would bypass; register it with shardable=False or shard at "
                "the backend level"
            )
        self.backend = backend
        self.record_timings = bool(record_timings)
        self.executor = executor
        parts = range_partition(self.population.k, shards)
        #: Global gid arrays, one per non-empty shard, each sorted ascending.
        self.shard_gids: list[np.ndarray] = [p for p in parts if p.size]
        self.max_workers = max_workers
        self.max_restarts = int(max_restarts)
        self._pool: ThreadPoolExecutor | None = None
        self._procpool = None
        self._pool_lock = threading.Lock()
        self._run_ids = itertools.count()
        self._closed = False
        #: Opens after ``breaker_threshold`` worker crashes; open means new
        #: runs are built thread-side instead of respawning workers against
        #: whatever keeps killing them.  Sticky for the engine's lifetime.
        self.breaker = CircuitBreaker(threshold=breaker_threshold)
        #: Lifetime resilience events (each also goes to the observing
        #: query's list, see :func:`collect_query_events`).
        self._events: list[str] = []

    @property
    def shards(self) -> int:
        """Effective (non-empty) shard count."""
        return len(self.shard_gids)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; a closed engine never fans out again."""
        return self._closed

    @property
    def reusable(self) -> bool:
        """Whether a later query may be handed this engine.

        False once it is closed, its breaker opened, or its worker pool has
        no restart left; a cache then builds a fresh engine (fresh budget,
        fresh breaker) instead.  Reads without the pool lock, which a
        spawning pool holds for the whole spawn.
        """
        procpool = self._procpool
        return (
            not self._closed
            and self.breaker.closed
            and (procpool is None or procpool.restarts_remaining > 0)
        )

    @property
    def live_workers(self) -> int:
        """Live worker processes (process executor), or the fan-out pool's
        thread bound (thread executor); 0 while no pool is up."""
        procpool, pool = self._procpool, self._pool
        if procpool is not None:
            return procpool.live_workers
        if pool is None:
            return 0
        return self.max_workers if self.max_workers is not None else self.shards

    def _get_pool(self) -> ThreadPoolExecutor | None:
        """The shared fan-out pool, created lazily; ``None`` when disabled."""
        if self.shards <= 1 or self.max_workers == 1:
            return None
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("ShardedEngine is closed")
            if self._pool is None:
                workers = self.max_workers if self.max_workers is not None else self.shards
                self._pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-shard"
                )
        return self._pool

    def _get_procpool(self):
        """The worker-process pool, spawned lazily (and after a release)."""
        from repro.engines.procpool import ProcessShardPool

        with self._pool_lock:
            if self._closed:
                raise RuntimeError("ShardedEngine is closed")
            if self._procpool is None:
                self._procpool = ProcessShardPool(
                    self.population,
                    self.shard_gids,
                    name=f"repro-shard-{self.population.name}",
                    max_restarts=self.max_restarts,
                    on_crash=self._record_crash,
                    on_event=self._note,
                )
        return self._procpool

    # -- resilience ----------------------------------------------------------

    def _note(self, text: str) -> None:
        """Record one event for the engine's lifetime and the observing query.

        Runs on the thread whose command observed the event (pool recovery
        and degradation both happen inside the failing command), so the
        context's query list is the right owner.
        """
        self._events.append(text)  # list.append is atomic; no lock needed
        _report_to_query(text)

    def _record_crash(self, shard: int, exc: BaseException) -> None:
        """Pool crash observer: feed the circuit breaker (thread-safe)."""
        if self.breaker.record_failure(
            f"shard workers crashed {self.breaker.threshold} times "
            f"(last: shard {shard}: {exc})"
        ):
            self._note(
                f"circuit breaker opened ({self.breaker.reason}); "
                "subsequent runs use the thread executor"
            )

    def _note_degraded_shard(self, shard: int, cause: BaseException) -> None:
        """A live run lost shard ``shard`` for good and went thread-side."""
        self.breaker.trip(f"shard {shard} worker unrecoverable: {cause}")
        self._note(
            f"shard {shard} degraded to the thread executor mid-run "
            f"after an unrecoverable worker crash ({cause}); the shard "
            "was rebuilt from its seeds and replayed bit-identically"
        )

    def resilience_events(self) -> list[str]:
        """Every crash/recovery/degradation event of the engine's lifetime.

        Includes the process pool's crash-recovery events (the pool reports
        each one here as it happens, so they survive ``release_pool()``).
        A query's own caveats come from :func:`collect_query_events`, not
        from this list, which on a shared engine spans many queries.
        """
        return list(dict.fromkeys(self._events))

    def open_run(
        self,
        seed: int | np.random.Generator | None = None,
        without_replacement: bool = True,
    ) -> ShardedRun:
        """Open a sharded run: the plain engine's streams, partitioned.

        Streams are spawned exactly as :meth:`SamplingEngine.open_run` spawns
        them - one ``SeedSequence.spawn`` child per group, in gid order - and
        handed to the owning shard, so per-group streams are independent of
        the shard layout (and of the executor: worker processes rebuild the
        same streams from the same children).
        """
        if self.executor == "process":
            if self.breaker.closed:
                return self._open_process_run(seed, without_replacement)
            _report_to_query(
                f"executor='process' ran thread-side: the circuit breaker is "
                f"open ({self.breaker.reason}). Results are identical; only "
                "elapsed-time scaling differs."
            )
        groups = self.population.groups
        rngs = spawn_group_rngs(seed, self.population.k)
        samplers = [
            group.sampler(rng, without_replacement)
            for group, rng in zip(groups, rngs)
        ]
        shard_runs = []
        for s, gids in enumerate(self.shard_gids):
            sub = Population(
                groups=[groups[int(g)] for g in gids],
                c=self.population.c,
                name=f"{self.population.name}/shard{s}",
            )
            shard_runs.append(EngineRun(sub, [samplers[int(g)] for g in gids]))
        return ShardedRun(
            self.population,
            shard_runs,
            self.shard_gids,
            self._get_pool,
            record_timings=self.record_timings,
        )

    def _thread_shard_run(
        self, shard: int, seed_seqs, without_replacement: bool
    ) -> EngineRun:
        """One shard's thread-side run from explicit ``SeedSequence`` children.

        Builds the sampler streams exactly as a worker process builds them
        (same children, same gid order), so a run degraded onto this is
        bit-identical to its process-side twin after replay.
        """
        gids = self.shard_gids[shard]
        groups = self.population.groups
        rngs = rngs_from_seed_seqs([seed_seqs[int(g)] for g in gids])
        sub = Population(
            groups=[groups[int(g)] for g in gids],
            c=self.population.c,
            name=f"{self.population.name}/shard{shard}",
        )
        samplers = [
            groups[int(g)].sampler(rng, without_replacement)
            for g, rng in zip(gids, rngs)
        ]
        return EngineRun(sub, samplers)

    def _open_process_run(self, seed, without_replacement: bool) -> "ProcessShardedRun":
        pool = self._get_procpool()
        seeds = spawn_group_seed_seqs(seed, self.population.k)
        run_id = next(self._run_ids)
        proxies = []
        for s, gids in enumerate(self.shard_gids):
            pool.open_run(s, run_id, [seeds[int(g)] for g in gids], without_replacement)
            proxies.append(_ShardWorkerProxy(pool, s, run_id))
        run = ProcessShardedRun(
            self.population,
            proxies,
            self.shard_gids,
            self._get_pool,
            record_timings=self.record_timings,
            engine=self,
            seed_seqs=seeds,
            without_replacement=without_replacement,
        )
        # Workers keep per-run sampler state; mark it reclaimable when the
        # parent-side run is garbage collected.  retire_run only appends to
        # a deque (GC-safe: no locks, no pipe IPC from a finalizer); the
        # next open_run on this pool issues the real close_run commands.
        weakref.finalize(run, pool.retire_run, run_id)
        return run

    def release_pool(self) -> None:
        """Shut down fan-out threads *and* worker processes; later draws
        recreate them.

        Non-terminal, unlike :meth:`close`: the engine stays fully usable.
        Runs opened before the release cannot draw afterwards.  The catalog
        calls this after each query only for engines it does not cache
        (non-cacheable sources); cached engines keep their pools until the
        catalog drops them and calls :meth:`close`.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
            procpool, self._procpool = self._procpool, None
        if pool is not None:
            pool.shutdown(wait=True)
        if procpool is not None:
            procpool.shutdown()

    def close(self) -> None:
        """Shut down the fan-out pool and refuse new fan-outs (idempotent)."""
        with self._pool_lock:
            self._closed = True
        self.release_pool()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedEngine({type(self.backend).__name__}, shards={self.shards}, "
            f"executor={self.executor!r})"
        )
