"""Fluent, immutable query builder - the programmatic front door.

Every method returns a *new* builder (the receiver is never mutated), so
partially-built queries can be shared and forked freely::

    base = session.table("flights").where("year >= 1995").group_by("carrier")
    by_delay = base.agg(avg("arrival_delay")).guarantee(delta=0.05)
    result = by_delay.run(seed=42)          # unified Result
    for update in by_delay.stream():        # incremental PartialUpdates
        print(update.group.label, update.group.estimate)

``spec()`` lowers the builder to the same declarative
:class:`~repro.session.spec.QuerySpec` the SQL parser produces, so the two
front doors are interchangeable and verified equal by the parity tests.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.catalog.schema import Schema
from repro.query.ast import Aggregate, And, Predicate
from repro.query.parser import parse_aggregate, parse_having, parse_predicate
from repro.session.result import Result, ResultStream
from repro.session.spec import GuaranteeSpec, HavingSpec, QuerySpec
from repro.streaming.window import WindowSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.session.session import Session
    from repro.streaming.continuous import ContinuousQuery

__all__ = ["QueryBuilder", "avg", "total", "sum_", "count"]


def avg(column: str) -> Aggregate:
    """``AVG(column)`` - the paper's canonical aggregate."""
    return Aggregate("AVG", column)


def total(column: str) -> Aggregate:
    """``SUM(column)`` (Algorithm 4)."""
    return Aggregate("SUM", column)


#: Alias for :func:`total`, for callers who prefer the SQL name.
sum_ = total


def count(column: str = "*") -> Aggregate:
    """``COUNT(column)`` / ``COUNT(*)`` - exact from engine metadata."""
    return Aggregate("COUNT", column)


def _as_aggregate(agg: Aggregate | str) -> Aggregate:
    return parse_aggregate(agg) if isinstance(agg, str) else agg


def _as_predicate(pred: Predicate | str) -> Predicate:
    return parse_predicate(pred) if isinstance(pred, str) else pred


@dataclass(frozen=True)
class QueryBuilder:
    """An immutable, chainable query under construction.

    Builders are created by :meth:`Session.table` / :meth:`Session.sql`;
    they carry their session so ``run()``/``stream()`` resolve against its
    catalog and defaults, plus the table's :class:`~repro.catalog.Schema`
    so column-existence and type errors raise at the call that introduced
    them (``.group_by("typo")`` raises there, not deep in the planner).
    """

    _session: "Session"
    _table: str
    _group_by: tuple[str, ...] = ()
    _aggregates: tuple[Aggregate, ...] = ()
    _where: tuple[Predicate, ...] = ()
    _having: HavingSpec | None = None
    _guarantee: GuaranteeSpec = dataclasses.field(default_factory=GuaranteeSpec)
    _algorithm: str = "ifocus"
    _engine: str = "needletail"
    _value_bound: float | None = None
    _shards: int = 1
    _max_workers: int | None = None
    _executor: str = "thread"
    _deadline_ms: float | None = None
    _max_retries: int = 2
    _window: WindowSpec | None = None
    _schema: Schema | None = None

    def _clone(self, **changes) -> "QueryBuilder":
        return dataclasses.replace(self, **changes)

    # -- query shape --------------------------------------------------------

    def group_by(self, *columns: str) -> "QueryBuilder":
        """Append grouping attributes (multiple columns form the §6.3.4
        cross-product composite key)."""
        if not columns:
            raise ValueError("group_by() needs at least one column")
        if self._schema is not None:
            self._schema.check_columns(columns, "GROUP BY", self._table)
        return self._clone(_group_by=self._group_by + tuple(columns))

    def agg(self, *aggregates: Aggregate | str) -> "QueryBuilder":
        """Append SELECT aggregates (:func:`avg` / :func:`total` /
        :func:`count` constructors, or strings like ``"AVG(delay)"``)."""
        if not aggregates:
            raise ValueError("agg() needs at least one aggregate")
        parsed = tuple(_as_aggregate(a) for a in aggregates)
        if self._schema is not None:
            for agg in parsed:
                self._schema.check_aggregate(agg, self._table)
        return self._clone(_aggregates=self._aggregates + parsed)

    def where(self, predicate: Predicate | str) -> "QueryBuilder":
        """Restrict rows; multiple calls AND together (§6.3.3).

        Accepts the shared predicate AST or SQL text like
        ``"year >= 1995 AND dist BETWEEN 300 AND 1500"``.  The predicate is
        pushed down into the source scan, so filtering happens before
        materialization.
        """
        pred = _as_predicate(predicate)
        if self._schema is not None:
            self._schema.check_predicate(pred, self._table)
        return self._clone(_where=self._where + (pred,))

    def having(
        self,
        condition: str | HavingSpec | tuple[Aggregate | str, str, float],
    ) -> "QueryBuilder":
        """Post-filter groups on an *estimated* aggregate (adds a caveat).

        Accepts ``"AVG(delay) > 20"``, a ``(aggregate, op, value)`` triple,
        or a ready :class:`HavingSpec`.
        """
        if isinstance(condition, HavingSpec):
            having = condition
        elif isinstance(condition, str):
            agg, op, value = parse_having(condition)
            having = HavingSpec(agg=agg, op=op, value=value)
        else:
            agg, op, value = condition
            having = HavingSpec(agg=_as_aggregate(agg), op=op, value=float(value))
        return self._clone(_having=having)

    # -- guarantee ----------------------------------------------------------

    def guarantee(
        self, delta: float | None = None, resolution: float | None = None
    ) -> "QueryBuilder":
        """Set the failure probability and/or the Problem-2 resolution."""
        changes = {}
        if delta is not None:
            changes["delta"] = delta
        if resolution is not None:
            changes["resolution"] = resolution
        return self._clone(
            _guarantee=dataclasses.replace(self._guarantee, **changes)
        )

    def top(self, t: int, largest: bool = True) -> "QueryBuilder":
        """Only the top-t groups must be identified and ordered (§6.1.2)."""
        return self._clone(
            _guarantee=dataclasses.replace(
                self._guarantee, mode="top", top_t=t, top_largest=largest
            )
        )

    def trends(
        self, neighbors: Sequence[Sequence[int]] | None = None
    ) -> "QueryBuilder":
        """Neighbor-only ordering for trend-lines/choropleths (§6.1.1)."""
        frozen = (
            tuple(tuple(int(j) for j in adj) for adj in neighbors)
            if neighbors is not None
            else None
        )
        return self._clone(
            _guarantee=dataclasses.replace(
                self._guarantee, mode="trends", neighbors=frozen
            )
        )

    def values(self, within: float) -> "QueryBuilder":
        """Every displayed estimate within ``within`` of its true value
        (§6.2.1)."""
        return self._clone(
            _guarantee=dataclasses.replace(
                self._guarantee, mode="values", value_tolerance=within
            )
        )

    def mistakes(self, min_correct_fraction: float) -> "QueryBuilder":
        """Tolerate misordering a fraction of group pairs (§6.1.3)."""
        return self._clone(
            _guarantee=dataclasses.replace(
                self._guarantee,
                mode="mistakes",
                min_correct_fraction=min_correct_fraction,
            )
        )

    # -- execution knobs ----------------------------------------------------

    def using(self, algorithm: str) -> "QueryBuilder":
        """Which core algorithm answers AVG aggregates (default ifocus)."""
        return self._clone(_algorithm=algorithm.lower())

    def on_engine(self, engine: str) -> "QueryBuilder":
        """Which registered execution substrate serves the query."""
        return self._clone(_engine=engine.lower())

    def bound(self, c: float) -> "QueryBuilder":
        """Declare the value upper bound c instead of inferring it."""
        return self._clone(_value_bound=float(c))

    def sharded(
        self,
        shards: int,
        max_workers: int | None = None,
        executor: str | None = None,
    ) -> "QueryBuilder":
        """Partition the engine into ``shards`` parallel shards.

        ``shards=1`` (the default everywhere) is bit-identical to the
        unsharded engine; higher counts fan ``draw_block`` out to per-shard
        workers and merge deterministically (see DESIGN_PERF.md).
        ``max_workers`` bounds the fan-out pool (``None``: one per shard).
        ``executor="process"`` runs one worker *process* per shard over
        mapped payload files - true multicore elapsed-time scaling; the planner
        falls back to threads (with a caveat) for populations that cannot
        cross the process boundary.  ``None`` keeps the session default.
        """
        changes = {"_shards": int(shards), "_max_workers": max_workers}
        if executor is not None:
            changes["_executor"] = executor.lower()
        return self._clone(**changes)

    def deadline(self, ms: float | None) -> "QueryBuilder":
        """Give the query a time budget of ``ms`` milliseconds.

        On expiry the run does not fail: every still-active group is
        finalized at its current estimate - the incremental estimators make
        this anytime behaviour free - and the :class:`Result` carries a
        ``deadline_exceeded`` caveat plus (typically) wider intervals.
        ``None`` removes a previously set budget.
        """
        return self._clone(_deadline_ms=None if ms is None else float(ms))

    def retries(self, max_retries: int) -> "QueryBuilder":
        """Retry budget for transient source-scan failures (default 2)."""
        return self._clone(_max_retries=int(max_retries))

    def window(
        self,
        size: float,
        *,
        every: float | None = None,
        on: str | None = None,
        late: str = "drop",
        allowed_lateness: float = 0.0,
        origin: float = 0.0,
    ) -> "QueryBuilder":
        """Make the query continuous: evaluate once per window of the stream.

        ``size``/``every`` count rows (default) or units of the numeric
        ``on`` column; ``every=None`` tumbles, ``every < size`` slides.
        Time windows track completeness with a watermark (``max(t seen) -
        allowed_lateness``) and apply ``late`` (``"drop"`` / ``"recompute"``
        / ``"error"``) to rows arriving after their windows closed.  Run a
        windowed query with :meth:`subscribe` / ``Session.subscribe`` - the
        one-shot ``run()``/``stream()`` paths reject it.  ``window(None)``
        is not a thing; to un-window, build a fresh query.
        """
        if on is not None and self._schema is not None:
            self._schema.check_columns((on,), "WINDOW ON", self._table)
        return self._clone(
            _window=WindowSpec(
                size=size,
                every=every,
                on=on,
                late=late,
                allowed_lateness=allowed_lateness,
                origin=origin,
            )
        )

    # -- lowering and execution ---------------------------------------------

    def spec(self) -> QuerySpec:
        """Lower to the declarative IR (validates the query shape)."""
        if len(self._where) == 0:
            where: Predicate | None = None
        elif len(self._where) == 1:
            where = self._where[0]
        else:
            where = And(self._where)
        return QuerySpec(
            table=self._table,
            group_by=self._group_by,
            aggregates=self._aggregates,
            where=where,
            having=self._having,
            guarantee=self._guarantee,
            algorithm=self._algorithm,
            engine=self._engine,
            value_bound=self._value_bound,
            shards=self._shards,
            max_workers=self._max_workers,
            executor=self._executor,
            deadline_ms=self._deadline_ms,
            max_retries=self._max_retries,
            window=self._window,
        )

    def explain(self) -> str:
        """The planner's dispatch description for this query."""
        from repro.session.planner import describe_spec

        return describe_spec(self.spec())

    def run(self, seed=None, **runner_kwargs) -> Result:
        """Execute and return the unified :class:`Result`."""
        return self._session.execute(self.spec(), seed=seed, **runner_kwargs)

    def stream(self, seed=None, **runner_kwargs) -> ResultStream:
        """Execute incrementally: PartialUpdates as groups finalize."""
        return self._session.stream(self.spec(), seed=seed, **runner_kwargs)

    def subscribe(self, seed=None, **kwargs) -> "ContinuousQuery":
        """Run the windowed query continuously (requires :meth:`window`).

        Sugar for ``session.subscribe(builder, ...)``; see
        :meth:`Session.subscribe` for ``max_windows`` / ``warm_start`` /
        ``emit_updates``.
        """
        return self._session.subscribe(self.spec(), seed=seed, **kwargs)
