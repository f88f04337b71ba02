"""The single planner every front door dispatches through.

``execute_spec`` turns a :class:`~repro.session.spec.QuerySpec` into algorithm
runs over a registered execution substrate and returns the unified
:class:`~repro.session.result.Result`; ``stream_spec`` is the incremental
form.  Dispatch rules:

* ``AVG(Y)`` - the core algorithms (ifocus/ifocusr/irefine/...), specialized
  by the guarantee mode: top-t (§6.1.2), trends (§6.1.1), values (§6.2.1),
  mistakes (§6.1.3);
* ``SUM(Y)`` - Algorithm 4 (group sizes are engine metadata): the IFOCUS
  executor with :class:`~repro.extensions.sums.SumRule`, resolution in sum
  units;
* ``COUNT(*)``/``COUNT(Y)`` - exact from engine metadata;
* several sampled aggregates (AVG and SUM, Problem 8) - one IFOCUS run each
  at delta/m (union bound); all read prefixes of one seeded per-group
  permutation, so a sampled row is charged once;
* multiple GROUP BY columns - the cross-product composite key (§6.3.4);
* WHERE - lowered into the :class:`~repro.catalog.Catalog` source scan for
  population engines (rows filtered chunk-by-chunk before anything is
  materialized), or evaluated as index bitmaps restricting every group for
  the bitmap engines (§6.3.3) - the two forms are bit-identical in effect;
* HAVING - post-filter on the *estimated* aggregate (surfaced as a caveat).

Plans run against a :class:`~repro.catalog.Catalog` of named
:class:`~repro.catalog.source.DataSource` objects: validation uses source
*schemas* only, and tables/populations materialize lazily, cached by the
catalog.

Execution substrates are pluggable through :func:`register_engine`; the
built-ins are ``needletail`` (bitmap-index sampling), ``memory`` (the paper's
idealized in-memory setting), and ``noindex`` (§6.3.6: uniform whole-table
tuples only).
"""

from __future__ import annotations

import queue
import threading
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from repro._util import reusable_seed
from repro.catalog.catalog import Catalog, population_from_chunks
from repro.catalog.schema import Schema
from repro.catalog.source import TableSource
from repro.core.registry import ALGORITHMS, RESOLUTION_VARIANTS, run_algorithm
from repro.core.types import OrderingResult
from repro.engines.base import SamplingEngine
from repro.engines.memory import InMemoryEngine
from repro.engines.sharded import ShardedEngine, collect_query_events
from repro.extensions.counts import run_count_known
from repro.extensions.mistakes import run_ifocus_mistakes
from repro.extensions.multi import composite_group_column
from repro.extensions.noindex import run_noindex
from repro.extensions.sums import run_ifocus_sum
from repro.extensions.topt import run_ifocus_topt
from repro.extensions.trends import run_ifocus_trends
from repro.extensions.values import run_ifocus_values
from repro.needletail.engine import NeedletailEngine
from repro.needletail.table import Column, Table
from repro.query.predicates import (
    _OP_FUNCS as _COMPARE,
    predicate_bitvector,
)
from repro.resilience.deadline import Deadline
from repro.resilience.retry import RetryPolicy, call_with_retry
from repro.session.result import (
    AggregateResult,
    GroupEstimate,
    PartialUpdate,
    Result,
    ResultStream,
)
from repro.session.spec import QuerySpec

__all__ = [
    "EngineDef",
    "register_engine",
    "engine_names",
    "execute_spec",
    "stream_spec",
    "describe_spec",
    "HAVING_CAVEAT",
]

HAVING_CAVEAT = (
    "HAVING filters *estimated* aggregates, not true values: a group whose "
    "true {key} lies on the other side of the threshold may be kept or "
    "dropped incorrectly (the ordering guarantee does not cover the filter)."
)

_NOINDEX_CAVEAT = (
    "no-index execution draws uniform whole-table tuples, so samples land in "
    "groups proportionally to group size; small contentious groups converge "
    "slowly (round-robin behaviour at best, §6.3.6)."
)

_TRUNCATED_CAVEAT = (
    "{key} run was truncated before every interval separated; remaining "
    "groups were finalized at their current estimates and the guarantee is "
    "void for them."
)

_MISTAKES_CAVEAT = (
    "allowing-mistakes mode: up to {pct:.0%} of pairwise orderings may be "
    "incorrect by design."
)

_PROCESS_FALLBACK_CAVEAT = (
    "executor='process' fell back to the thread fan-out: {reason}. Results "
    "are identical; only elapsed-time scaling differs."
)

_DEADLINE_CAVEAT = (
    "deadline_exceeded: the {key} run hit its deadline before every interval "
    "separated; remaining groups were finalized at their current estimates "
    "(wider intervals) and the guarantee is void for them."
)

_RESILIENCE_CAVEAT = "resilience: {event}"

_RETRY_CAVEAT = "resilience: source scan retried after {note}"


# --------------------------------------------------------------------------
# Engine registry
# --------------------------------------------------------------------------


@dataclass
class _PlanContext:
    """Resolved, validated query context shared by all engine builds.

    Validation runs against the catalog *schema* only; the row-store table
    is materialized lazily (:attr:`table`), so population engines whose
    builds go through :meth:`population` - a pruned, predicate-pushed-down
    source scan - never materialize columns the query does not touch.
    """

    spec: QuerySpec
    catalog: Catalog
    schema: Schema
    group_col: str
    engine_def: "EngineDef"

    def __post_init__(self) -> None:
        self._table: Table | None = None
        self._bitvector = None
        self._leases: list = []
        #: Reasons the process executor was downgraded to threads (one per
        #: affected engine build); surfaced as Result caveats.
        self.executor_fallbacks: list[str] = []
        #: Transient scan failures that were retried; surfaced as caveats.
        self.scan_retries: list[str] = []
        #: Fan-out resilience events this query's runs observed (filled
        #: through :func:`~repro.engines.sharded.collect_query_events`).
        self.shard_events: list[str] = []

    @property
    def table(self) -> Table:
        """The materialized (possibly composite-key-augmented) table.

        Touching this property is what triggers full materialization; the
        bitmap-index engines need it, population engines do not.
        """
        if self._table is None:
            self._table = _prepare_table(self.spec, self.catalog.table(self.spec.table))[0]
        return self._table

    def population(self, value_column: str):
        """The grouped population with WHERE pushed into the source scan.

        Single-column group-by goes through the catalog's cached build
        (scanning only the group/value/predicate columns).  Composite keys
        need the augmented table, so they build from its scan instead -
        chunk semantics are identical, results bit-match either way.
        """
        spec = self.spec

        def build():
            if len(spec.group_by) == 1:
                return self.catalog.population(
                    spec.table,
                    self.group_col,
                    value_column,
                    predicate=spec.where,
                    value_bound=spec.value_bound,
                )
            return population_from_chunks(
                TableSource(self.table).scan(
                    columns=(self.group_col, value_column), predicate=spec.where
                ),
                self.group_col,
                value_column,
                c=spec.value_bound,
                name=spec.table,
                filtered=spec.where is not None,
            )

        # A scan that failed mid-stream cannot resume chunk-exactly, but the
        # whole build is a pure function of the source - restart it.  The
        # default decorrelated jitter keeps concurrent rebuilds of one
        # shared source from re-hitting it in lockstep.
        return call_with_retry(
            build,
            policy=RetryPolicy(max_retries=spec.max_retries),
            on_retry=lambda attempt, exc: self.scan_retries.append(
                f"a transient scan failure (attempt {attempt + 1}: {exc})"
            ),
        )

    def bitvector(self):
        """The WHERE predicate as a bitmap (NEEDLETAIL form), or None.

        Touching this materializes the table; population engines must use
        :meth:`population` (scan-level pushdown) instead of a row mask.
        """
        if self.spec.where is None:
            return None
        if self._bitvector is None:
            self._bitvector = predicate_bitvector(self.spec.where, self.table)
        return self._bitvector

    def build_engine(self, value_column: str) -> SamplingEngine:
        spec, engine_def = self.spec, self.engine_def
        if spec.shards <= 1 or not engine_def.shardable:
            return engine_def.factory(self, value_column)
        from repro.engines.payload import shareable

        def build() -> ShardedEngine:
            backend = engine_def.factory(self, value_column)
            executor = spec.executor
            if executor == "process" and shareable(backend.population) is not None:
                executor = "thread"
            return ShardedEngine(
                backend, spec.shards, max_workers=spec.max_workers, executor=executor
            )

        # The backend is built only on a miss; the key carries the engine
        # definition itself, so re-registering a name invalidates its hits.
        lease = self.catalog.fanout(
            spec.table,
            spec.group_by,
            value_column,
            predicate=spec.where,
            value_bound=spec.value_bound,
            engine=engine_def,
            shards=spec.shards,
            max_workers=spec.max_workers,
            executor=spec.executor,
            builder=build,
        )
        self._leases.append(lease)
        engine = lease.engine
        if engine.executor != spec.executor:
            # Shareability is a function of the key, so a hit falls back
            # exactly when its miss did; every query reports it.
            self.executor_fallbacks.append(shareable(engine.population))
        return engine

    def release_engines(self) -> None:
        """Return this query's fan-out leases; the single exit of a query.

        Cached fan-outs keep their threads or workers for the next query
        (the catalog shuts one down only once it is dropped and no query
        leases it); a per-query fan-out over a non-cacheable source has its
        pool released here, as ``Result.engine`` keeps the engine reachable.
        Idempotent.
        """
        leases, self._leases = self._leases, []
        for lease in leases:
            lease.release()


EngineFactory = Callable[[_PlanContext, str], SamplingEngine]


@dataclass(frozen=True)
class EngineDef:
    """One registered execution substrate.

    Attributes:
        name: registry key (the value of ``QuerySpec.engine``).
        factory: builds a :class:`SamplingEngine` for one value column.
        avg_runner: optional override for how AVG aggregates are executed
            ("noindex" routes them through §6.3.6 whole-table sampling).
        supports_metadata: whether group sizes are engine metadata (required
            by SUM's Algorithm 4 and exact COUNT).
        shardable: whether ``QuerySpec.shards > 1`` wraps the factory's
            engine in a :class:`~repro.engines.sharded.ShardedEngine`;
            backends that manage their own parallelism register False.
        predicate_form: how WHERE reaches the data - ``"scan"`` (lowered
            into the source scan, rows filtered before materialization) or
            ``"bitmap"`` (evaluated as index bitmaps the engine ANDs with
            every group, §6.3.3).  Informational: shown by ``explain()``.
    """

    name: str
    factory: EngineFactory
    avg_runner: str | None = None
    supports_metadata: bool = True
    shardable: bool = True
    predicate_form: str = "scan"


_ENGINES: dict[str, EngineDef] = {}


def register_engine(
    name: str,
    factory: EngineFactory,
    *,
    avg_runner: str | None = None,
    supports_metadata: bool = True,
    shardable: bool = True,
    predicate_form: str = "scan",
    overwrite: bool = False,
) -> EngineDef:
    """Register an execution substrate under ``name``.

    The factory receives the plan context (catalog + schema with the
    resolved group column, lazily-materialized table, lazily-evaluated
    WHERE forms, the full spec) and the value column, and returns a
    :class:`~repro.engines.base.SamplingEngine`.  Third-party backends plug
    in here and become reachable via ``Session.table(...).on_engine(name)``
    with zero planner changes.
    """
    key = name.lower()
    if key in _ENGINES and not overwrite:
        raise ValueError(f"engine {name!r} is already registered")
    engine_def = EngineDef(
        name=key,
        factory=factory,
        avg_runner=avg_runner,
        supports_metadata=supports_metadata,
        shardable=shardable,
        predicate_form=predicate_form,
    )
    _ENGINES[key] = engine_def
    return engine_def


def engine_names() -> list[str]:
    """Registered engine names."""
    return sorted(_ENGINES)


def _needletail_factory(ctx: _PlanContext, value_column: str) -> SamplingEngine:
    def build() -> SamplingEngine:
        return NeedletailEngine(
            ctx.table,
            ctx.group_col,
            value_column,
            c=ctx.spec.value_bound,
            predicate=ctx.bitvector(),
        )

    # The index belongs to the table: the catalog answers a repeated build
    # coordinate from its engine cache, and `build` (the only place that
    # touches ctx.table / ctx.bitvector()) runs on a miss.  A DurableCatalog
    # tries its memory-mapped segments first (bit-identical, no BitmapIndex
    # rebuild) and persists what `build` returns.
    return ctx.catalog.indexed_engine(
        ctx.spec.table,
        ctx.group_col,
        value_column,
        value_bound=ctx.spec.value_bound,
        predicate=ctx.spec.where,
        group_spec=list(ctx.spec.group_by),
        builder=build,
    )


def _memory_factory(ctx: _PlanContext, value_column: str) -> SamplingEngine:
    """Population engine: WHERE is pushed into the source scan.

    The catalog scans only the group/value/predicate columns, filters each
    chunk as it streams by, and caches the resulting population per
    ``(table, group, value, predicate)`` - bit-identical to the legacy
    materialize-then-mask path (asserted by the pushdown parity tests), but
    nothing non-qualifying is ever resident.
    """
    return InMemoryEngine(ctx.population(value_column))


register_engine("needletail", _needletail_factory, predicate_form="bitmap")
register_engine("memory", _memory_factory)
# noindex stays shardable: partitioning is correct (per-group streams are
# shard-independent), but its runner draws group-sequentially, so shards
# buy layout compatibility rather than fan-out parallelism (see
# DESIGN_PERF.md).
register_engine(
    "noindex",
    _needletail_factory,
    avg_runner="noindex",
    supports_metadata=False,
    predicate_form="bitmap",
)


# --------------------------------------------------------------------------
# Planning
# --------------------------------------------------------------------------


def _prepare_table(spec: QuerySpec, table: Table) -> tuple[Table, str]:
    """Resolve (possibly composite) group-by into a single indexed column."""
    for col in spec.group_by:
        if col not in table:
            raise KeyError(f"GROUP BY column {col!r} not in table {table.name!r}")
    if len(spec.group_by) == 1:
        return table, spec.group_by[0]
    key = composite_group_column(table, list(spec.group_by))
    augmented = Table(
        table.name,
        [Column(name, table.column(name), 8) for name in table.column_names]
        + [Column("__group_key__", key, 8)],
    )
    return augmented, "__group_key__"


def _plan(spec: QuerySpec, catalog: Catalog) -> _PlanContext:
    """Validate the spec against the catalog schema; materialize nothing.

    Every shape error - unknown table/engine, missing group/aggregate/WHERE
    columns, a non-numeric AVG/SUM target, a numeric-vs-string predicate
    literal - surfaces here, before a single row is scanned.
    """
    if spec.window is not None:
        raise ValueError(
            "spec carries a window - windowed queries run continuously, one "
            "result per window, and do not fit the one-shot execute/submit "
            "paths.  Use Session.subscribe(...) (or repro.streaming."
            "WindowRunner directly) instead."
        )
    if spec.table not in catalog:
        raise KeyError(
            f"unknown table {spec.table!r}; catalog has {sorted(catalog.names)}"
        )
    if spec.engine not in _ENGINES:
        raise KeyError(
            f"unknown engine {spec.engine!r}; registered: {engine_names()}"
        )
    schema = catalog.schema(spec.table)
    schema.check_columns(spec.group_by, "GROUP BY", spec.table)
    for agg in spec.aggregates:
        schema.check_aggregate(agg, spec.table)
    if spec.where is not None:
        schema.check_predicate(spec.where, spec.table)
    group_col = (
        spec.group_by[0] if len(spec.group_by) == 1 else "__group_key__"
    )
    engine_def = _ENGINES[spec.engine]
    if not engine_def.supports_metadata:
        bad = [a.func for a in spec.aggregates if a.func != "AVG"]
        if bad or len(spec.avg_aggregates) != 1:
            raise ValueError(
                f"engine {spec.engine!r} has no group-size metadata; it "
                "supports exactly one AVG aggregate (no SUM/COUNT/multi-AVG)"
            )
        if spec.guarantee.mode != "ordering":
            raise ValueError(
                f"engine {spec.engine!r} only supports the plain ordering "
                f"guarantee, not mode {spec.guarantee.mode!r}"
            )
    return _PlanContext(
        spec=spec,
        catalog=catalog,
        schema=schema,
        group_col=group_col,
        engine_def=engine_def,
    )


def _numeric_column(schema: Schema, preferred: str) -> str:
    """A numeric column usable as the engine's value column."""
    if preferred in schema and schema.is_numeric(preferred):
        return preferred
    for name in schema.names:
        if schema.is_numeric(name):
            return name
    raise ValueError("table has no numeric column to anchor the engine")


def _algorithm(spec: QuerySpec) -> str:
    """The algorithm a spec runs: on every door a positive resolution runs
    (and reports) the plain name's -R variant."""
    name = spec.algorithm
    if spec.guarantee.resolution > 0 and f"{name}r" in ALGORITHMS:
        return f"{name}r"
    return name


def _run_avg(
    spec: QuerySpec,
    ctx: _PlanContext,
    engine: SamplingEngine,
    seed,
    runner_kwargs: dict,
    on_finalize: Callable | None = None,
    deadline: Deadline | None = None,
) -> tuple[OrderingResult, dict[str, Any]]:
    """Execute the single-AVG aggregate according to the guarantee mode.

    Every IFOCUS run goes through the one batched executor - a guarantee mode
    is its leave rule, a live stream its ``on_finalize`` hook (Problem 7).
    """
    g = spec.guarantee
    algorithm = _algorithm(spec)
    if g.mode != "ordering":
        if algorithm not in ("ifocus", "ifocusr"):
            raise ValueError(
                f"guarantee mode {g.mode!r} is a leave rule of the IFOCUS "
                f"executor; algorithm {spec.algorithm!r} is not supported with "
                "it (drop .using() or use 'ifocus')"
            )
        if algorithm in RESOLUTION_VARIANTS and g.resolution <= 0:
            raise ValueError(f"{algorithm} requires resolution > 0")
    common = dict(delta=g.delta, resolution=g.resolution, seed=seed, **runner_kwargs)
    if deadline is not None:
        common["deadline"] = deadline
    if on_finalize is not None:
        common["on_finalize"] = on_finalize
    if g.mode == "top":
        topt = run_ifocus_topt(engine, g.top_t, largest=g.top_largest, **common)
        return topt.result, {
            "t": topt.t,
            "largest": topt.largest,
            "top_labels": topt.top_names,
        }
    if g.mode == "trends":
        neighbors = (
            [list(adj) for adj in g.neighbors] if g.neighbors is not None else None
        )
        return run_ifocus_trends(engine, neighbors=neighbors, **common), {}
    if g.mode == "values":
        raw = run_ifocus_values(engine, d=g.value_tolerance, **common)
        return raw, {"value_tolerance": g.value_tolerance}
    if g.mode == "mistakes":
        raw = run_ifocus_mistakes(
            engine, min_correct_fraction=g.min_correct_fraction, **common
        )
        return raw, {}
    # mode == "ordering"
    if ctx.engine_def.avg_runner == "noindex":
        return run_noindex(engine, **common), {}
    return run_algorithm(algorithm, engine, **common), {}


def _sampled_aggregates(spec: QuerySpec) -> list:
    """The aggregates that sample, and so split the query's delta."""
    return [a for a in spec.aggregates if a.func != "COUNT"]


def _execute_planned(
    spec: QuerySpec,
    ctx: _PlanContext,
    seed,
    runner_kwargs: dict,
    deadline: Deadline | None = None,
) -> Result:
    results: dict[str, tuple[OrderingResult, dict[str, Any]]] = {}
    engine: SamplingEngine | None = None
    # Problem 8: each of the m sampled aggregates (AVG, SUM) runs at delta/m
    # (union bound).  Every engine reads group g as a prefix of one seeded
    # permutation, so the runs share rows and the query is charged
    # sum_g max_a n_a,g.  COUNT is exact and spends no delta.
    m = len(_sampled_aggregates(spec))
    shared = spec
    if m > 1:
        shared = spec.with_guarantee(delta=spec.guarantee.delta / m)
        seed = reusable_seed(seed)
    rows = 0  # per-group rows read by any sampled run
    # AVGs first: Result.engine and the aggregate order lead with them.
    avgs = spec.avg_aggregates
    for agg in (*avgs, *(a for a in spec.aggregates if a.func != "AVG")):
        if agg.func == "COUNT":
            count_col = spec.group_by[0] if agg.column == "*" else agg.column
            # COUNT needs any engine over the same groups; sizes are metadata.
            count_engine = engine or ctx.build_engine(
                _numeric_column(ctx.schema, count_col)
            )
            results[spec.agg_key(agg)] = (run_count_known(count_engine), {})
            engine = engine or count_engine
            continue
        agg_engine = ctx.build_engine(agg.column)
        if agg.func == "AVG":
            raw, meta = _run_avg(
                shared, ctx, agg_engine, seed, runner_kwargs, deadline=deadline
            )
        else:  # SUM
            raw = run_ifocus_sum(
                agg_engine,
                delta=shared.guarantee.delta,
                resolution=spec.guarantee.resolution,  # in SUM's own units
                seed=seed,
                max_rounds=runner_kwargs.get("max_rounds"),
                deadline=deadline,
            )
            meta = {}
        results[spec.agg_key(agg)] = (raw, meta)
        rows = np.maximum(rows, raw.samples_per_group)
        engine = engine or agg_engine
    charged = int(np.sum(rows))  # tuples actually sampled

    if not results:
        raise ValueError("query produced no executable aggregate")
    return _assemble_result(spec, ctx, results, engine, charged)


def _assemble_result(
    spec: QuerySpec,
    ctx: _PlanContext,
    results: dict[str, tuple[OrderingResult, dict[str, Any]]],
    engine: SamplingEngine | None,
    total_samples: int,
) -> Result:
    aggregates = {
        key: AggregateResult.from_ordering(key, raw, meta)
        for key, (raw, meta) in results.items()
    }
    labels = next(iter(aggregates.values())).labels

    caveats: list[str] = []
    dropped: list[str] = []
    if spec.having is not None:
        key = spec.agg_key(spec.having.agg)
        if key not in aggregates:
            raise ValueError(f"HAVING references {key}, which is not in SELECT")
        keep = _COMPARE[spec.having.op](aggregates[key].raw.estimates, spec.having.value)
        dropped = [lbl for lbl, ok in zip(labels, keep) if not ok]
        caveats.append(HAVING_CAVEAT.format(key=key))
    if ctx.engine_def.avg_runner == "noindex":
        caveats.append(_NOINDEX_CAVEAT)
    # dict.fromkeys: one caveat per distinct reason, even when several
    # engine builds (multi-aggregate queries) fell back the same way.
    for reason in dict.fromkeys(ctx.executor_fallbacks):
        caveats.append(_PROCESS_FALLBACK_CAVEAT.format(reason=reason))
    if spec.guarantee.mode == "mistakes":
        caveats.append(
            _MISTAKES_CAVEAT.format(pct=1.0 - spec.guarantee.min_correct_fraction)
        )
    for key, agg in aggregates.items():
        if agg.raw.params.get("truncated"):
            caveats.append(_TRUNCATED_CAVEAT.format(key=key))
        if agg.raw.params.get("deadline_exceeded"):
            caveats.append(_DEADLINE_CAVEAT.format(key=key))
    for note in dict.fromkeys(ctx.scan_retries):
        caveats.append(_RETRY_CAVEAT.format(note=note))
    # Only what this query's runs observed: a cached engine's lifetime list
    # would repeat one crash on every later query.
    events = list(ctx.shard_events)
    # Catalog-level self-healing (storage quarantines, write degradation)
    # rides the same caveat surface as worker recovery.
    events.extend(ctx.catalog.drain_resilience_events())
    for event in dict.fromkeys(events):
        caveats.append(_RESILIENCE_CAVEAT.format(event=event))

    return Result(
        spec=spec,
        labels=list(labels),
        aggregates=aggregates,
        guarantee=spec.guarantee,
        caveats=caveats,
        dropped_by_having=dropped,
        engine=engine,
        total_samples=total_samples,
    )


def execute_spec(
    spec: QuerySpec,
    catalog: Catalog,
    *,
    seed=None,
    runner_kwargs: dict | None = None,
    deadline: Deadline | None = None,
) -> Result:
    """Plan and execute a spec against a catalog.

    Args:
        spec: the lowered query.
        catalog: a :class:`~repro.catalog.Catalog` of named sources.
        seed: RNG seed for the sampling streams.
        runner_kwargs: extra knobs forwarded to the AVG runner
            (``trace_every``, ``max_rounds``, ``batch`` for noindex, ...).
        deadline: optional pre-built :class:`~repro.resilience.Deadline`
            (a cancel token shared with :meth:`Session.submit`); when None,
            one is derived from ``spec.deadline_ms``.  IFOCUS-family runs
            treat expiry as an *anytime* stop: current estimates come back
            with wider intervals and a ``deadline_exceeded`` caveat.
    """
    if deadline is None and spec.deadline_ms is not None:
        deadline = Deadline.after_ms(spec.deadline_ms)
    ctx = _plan(spec, catalog)
    try:
        with collect_query_events(ctx.shard_events):
            return _execute_planned(
                spec, ctx, seed, dict(runner_kwargs or {}), deadline=deadline
            )
    finally:
        ctx.release_engines()


# --------------------------------------------------------------------------
# Streaming
# --------------------------------------------------------------------------


def _live_streamable(spec: QuerySpec, ctx: _PlanContext) -> bool:
    """Whether the spec can emit finalizations while sampling continues."""
    if len(spec.aggregates) != 1 or spec.aggregates[0].func != "AVG":
        return False
    if ctx.engine_def.avg_runner is not None:
        return False
    if spec.guarantee.mode != "ordering":
        return True  # every guarantee variant is an IFOCUS leave rule
    return spec.algorithm in ("ifocus", "ifocusr")


def _stream_live(
    spec: QuerySpec,
    ctx: _PlanContext,
    seed,
    runner_kwargs: dict,
    deadline: Deadline | None = None,
) -> ResultStream:
    agg = spec.avg_aggregates[0]
    key = spec.agg_key(agg)
    engine = ctx.build_engine(agg.column)
    k = engine.k
    out: "queue.Queue[object]" = queue.Queue()
    emitted = {"n": 0}

    def on_finalize(gid: int, outcome) -> None:
        emitted["n"] += 1
        out.put(
            PartialUpdate(
                aggregate=key,
                group=GroupEstimate.from_outcome(outcome),
                emitted_so_far=emitted["n"],
                total_groups=k,
                live=True,
            )
        )

    def worker() -> None:
        try:
            with collect_query_events(ctx.shard_events):
                out.put(
                    _run_avg(
                        spec, ctx, engine, seed, runner_kwargs, on_finalize, deadline
                    )
                )
        except BaseException as exc:
            out.put(exc)
        finally:
            # Sampling is over on every exit path (success, error, abandoned
            # consumer), so the query's fan-out lease is returned here.
            ctx.release_engines()

    thread = threading.Thread(target=worker, daemon=True, name="session-stream")

    def updates() -> Iterator[PartialUpdate]:
        thread.start()
        while True:
            item = out.get()
            if isinstance(item, BaseException):
                raise item
            if isinstance(item, tuple):
                raw, meta = item
                break
            yield item
        thread.join()
        stream.result = _assemble_result(
            spec, ctx, {key: (raw, meta)}, engine, raw.total_samples
        )

    stream = ResultStream(updates())
    # A stream never iterated never starts its worker: return its lease
    # when it is collected instead.
    weakref.finalize(stream, lambda: thread.ident is None and ctx.release_engines())
    return stream


def _replay_updates(result: Result) -> list[PartialUpdate]:
    """Post-hoc PartialUpdates in true finalization order, per aggregate.

    Counters are global across the whole stream (not per aggregate) so that
    ``PartialUpdate.done`` is True only on the very last update - the
    stop-at-done consumer pattern must not drop later aggregates' groups.
    """
    pending: list[tuple[str, Any]] = []
    for key, agg in result.aggregates.items():
        order = [int(i) for i in agg.raw.inactive_order]
        if len(order) != len(agg.groups):  # defensive: fall back to input order
            order = list(range(len(agg.groups)))
        pending.extend((key, agg.groups[gid]) for gid in order)
    return [
        PartialUpdate(
            aggregate=key,
            group=group,
            emitted_so_far=n,
            total_groups=len(pending),
            live=False,
        )
        for n, (key, group) in enumerate(pending, start=1)
    ]


def stream_spec(
    spec: QuerySpec,
    catalog: Catalog,
    *,
    seed=None,
    runner_kwargs: dict | None = None,
    deadline: Deadline | None = None,
) -> ResultStream:
    """Incremental execution: yields one PartialUpdate per finalized group.

    Every workload streams.  Single-AVG IFOCUS queries (all guarantee modes)
    emit *live* through the executor's ``on_finalize``: each group surfaces
    the moment it leaves the active set, while contentious groups keep
    sampling on a background thread.  Other workloads (SUM, COUNT, multi-AVG,
    no-index, non-IFOCUS algorithms) compute the full answer first and then
    replay it in true finalization order (``PartialUpdate.live`` is False).
    Either way ``stream.result`` is the ``.run()`` Result, bit for bit.
    """
    if deadline is None and spec.deadline_ms is not None:
        deadline = Deadline.after_ms(spec.deadline_ms)
    ctx = _plan(spec, catalog)
    kwargs = dict(runner_kwargs or {})
    if _live_streamable(spec, ctx):
        return _stream_live(spec, ctx, seed, kwargs, deadline)
    try:
        with collect_query_events(ctx.shard_events):
            result = _execute_planned(spec, ctx, seed, kwargs, deadline=deadline)
    finally:
        ctx.release_engines()
    stream = ResultStream(iter(_replay_updates(result)))
    stream.result = result
    return stream


# --------------------------------------------------------------------------
# Explain
# --------------------------------------------------------------------------


def describe_spec(spec: QuerySpec) -> str:
    """A short textual plan: how the planner will dispatch this spec."""
    lines = [f"table: {spec.table}  group by: {', '.join(spec.group_by)}"]
    if spec.window is not None:
        w = spec.window
        shape = "sliding" if w.sliding else "tumbling"
        domain = f"on {w.on}" if w.by_time else "by row count"
        lines.append(
            f"window: {shape} size={w.size:g} every={w.stride:g} {domain} "
            f"(late={w.late}); continuous - run via Session.subscribe(...)"
        )
    lines.append(f"scan columns: {', '.join(spec.scan_columns())}")
    if spec.where is not None:
        form = _ENGINES.get(spec.engine)
        how = (
            "bitmap-index pushdown (§6.3.3)"
            if form is not None and form.predicate_form == "bitmap"
            else "pushed into the source scan"
        )
        lines.append(f"where: {spec.where!r}  [{how}]")
    sampled = _sampled_aggregates(spec)
    for agg in spec.aggregates:
        key = spec.agg_key(agg)
        if agg.func == "AVG":
            runner = (
                "noindex whole-table sampling"
                if _ENGINES[spec.engine].avg_runner == "noindex"
                else _algorithm(spec)
            )
            line = f"{key}: {runner} (guarantee mode: {spec.guarantee.mode})"
        elif agg.func == "SUM":
            line = f"{key}: IFOCUS-Sum, known group sizes (Algorithm 4)"
            if spec.guarantee.resolution > 0:
                line += f", resolution r={spec.guarantee.resolution:g} in sum units"
        else:
            line = f"{key}: exact from engine metadata, spends no δ"
        if agg in sampled and len(sampled) > 1:
            others = ", ".join(spec.agg_key(a) for a in sampled if a is not agg)
            line += (
                f"; δ/{len(sampled)} = {spec.guarantee.delta / len(sampled):g} "
                f"(Problem 8, rows shared with {others})"
            )
        lines.append(line)
    if spec.having is not None:
        h = spec.having
        lines.append(
            f"having: {spec.agg_key(h.agg)} {h.op} {h.value:g} (filters estimates)"
        )
    engine_line = f"engine: {spec.engine}"
    if spec.shards > 1 and _ENGINES[spec.engine].shardable:
        workers = spec.max_workers if spec.max_workers is not None else spec.shards
        engine_line += f" (sharded x{spec.shards}, {workers} workers"
        if spec.executor != "thread":
            engine_line += f", {spec.executor} executor"
        engine_line += ")"
    lines.append(f"{engine_line}   guarantee: {spec.guarantee.describe()}")
    if (
        spec.shards > 1
        and spec.executor == "process"
        and _ENGINES[spec.engine].shardable
    ):
        lines.append(
            "executor: one worker process per shard over mapped payload files, "
            "spawned once per catalog and build key and reused by later "
            "queries; falls back to the thread fan-out (with a caveat on the Result) "
            "when the population cannot cross the process boundary "
            "(e.g. rejection-sampled virtual groups)"
        )
    return "\n".join(lines)
