"""The declarative query IR both front doors lower to.

A :class:`QuerySpec` is an immutable, fully-validated description of one
visualization query: what to aggregate, how to group, which rows qualify, and
what guarantee the answer must carry.  SQL text (via :mod:`repro.query`) and
the fluent builder (:mod:`repro.session.builder`) both compile to this type,
and :mod:`repro.session.planner` is the single component that turns a spec
into algorithm runs - so the two front doors cannot drift apart.

Specs are plain frozen dataclasses: two logically identical queries compare
equal regardless of which front door produced them (the parity test suite
relies on this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from repro._util import check_nonnegative, check_probability
from repro.query.ast import (
    COMPARISON_OPS,
    Aggregate,
    Predicate,
    Query,
    predicate_from_dict,
    predicate_to_dict,
)
from repro.streaming.window import WindowSpec

__all__ = [
    "Aggregate",
    "HavingSpec",
    "GuaranteeSpec",
    "QuerySpec",
    "GUARANTEE_MODES",
    "SHARD_EXECUTORS",
    "lower_query",
]

#: Shard fan-out executors (mirrors repro.engines.sharded.SHARD_EXECUTORS;
#: kept literal here so the spec layer stays import-light).
SHARD_EXECUTORS = ("thread", "process")

#: Guarantee modes the planner can dispatch (paper section in parentheses):
#: ordering (§3), top (§6.1.2), trends (§6.1.1), values (§6.2.1),
#: mistakes (§6.1.3).
GUARANTEE_MODES = ("ordering", "top", "trends", "values", "mistakes")


@dataclass(frozen=True)
class HavingSpec:
    """HAVING AGG(col) op literal - a post-filter on the estimated aggregate."""

    agg: Aggregate
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown HAVING operator {self.op!r}")
        object.__setattr__(self, "value", float(self.value))

    def to_dict(self) -> dict:
        return {
            "agg": {"func": self.agg.func, "column": self.agg.column},
            "op": self.op,
            "value": self.value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HavingSpec":
        return cls(
            agg=Aggregate(data["agg"]["func"], data["agg"]["column"]),
            op=data["op"],
            value=float(data["value"]),
        )


@dataclass(frozen=True)
class GuaranteeSpec:
    """The probabilistic promise attached to a query's answer.

    Attributes:
        delta: failure probability; the guarantee holds with prob >= 1-delta.
        resolution: Problem-2 visual resolution r (0 disables the relaxation).
        mode: which property must hold (see :data:`GUARANTEE_MODES`).
        top_t / top_largest: ``mode="top"`` - report the t best groups,
            correctly identified and internally ordered.
        neighbors: ``mode="trends"`` - adjacency list (tuple of tuples) for
            the neighbor-only ordering; ``None`` means the ordinal chain.
        value_tolerance: ``mode="values"`` - every displayed estimate is
            within this of its true value.
        min_correct_fraction: ``mode="mistakes"`` - the fraction of pairwise
            orderings that must be correct.
    """

    delta: float = 0.05
    resolution: float = 0.0
    mode: str = "ordering"
    top_t: int | None = None
    top_largest: bool = True
    neighbors: tuple[tuple[int, ...], ...] | None = None
    value_tolerance: float | None = None
    min_correct_fraction: float | None = None

    def __post_init__(self) -> None:
        check_probability(self.delta, "delta")
        check_nonnegative(self.resolution, "resolution")
        if self.mode not in GUARANTEE_MODES:
            raise ValueError(
                f"unknown guarantee mode {self.mode!r}; known: {GUARANTEE_MODES}"
            )
        if self.mode == "top" and (self.top_t is None or self.top_t < 1):
            raise ValueError("mode='top' requires top_t >= 1")
        if self.mode == "values":
            if self.value_tolerance is None or self.value_tolerance <= 0:
                raise ValueError("mode='values' requires value_tolerance > 0")
        if self.mode == "mistakes":
            if self.min_correct_fraction is None:
                raise ValueError("mode='mistakes' requires min_correct_fraction")
            if not 0.0 < self.min_correct_fraction <= 1.0:
                raise ValueError("min_correct_fraction must be in (0, 1]")

    def describe(self) -> str:
        """One-line human-readable statement of the promise."""
        p = f"with probability >= {1.0 - self.delta:g}"
        if self.mode == "ordering":
            return f"displayed order is correct {p}"
        if self.mode == "top":
            side = "largest" if self.top_largest else "smallest"
            return (
                f"the {self.top_t} {side} groups are correctly identified "
                f"and internally ordered {p}"
            )
        if self.mode == "trends":
            return f"all neighboring groups are correctly ordered {p}"
        if self.mode == "values":
            return (
                f"order is correct and every estimate is within "
                f"{self.value_tolerance:g} of its true value {p}"
            )
        return (
            f"at least {self.min_correct_fraction:.0%} of pairwise orderings "
            f"are correct {p}"
        )

    def to_dict(self) -> dict:
        """JSON-safe dict form (the server wire format)."""
        return {
            "delta": self.delta,
            "resolution": self.resolution,
            "mode": self.mode,
            "top_t": self.top_t,
            "top_largest": self.top_largest,
            "neighbors": (
                [list(adj) for adj in self.neighbors]
                if self.neighbors is not None
                else None
            ),
            "value_tolerance": self.value_tolerance,
            "min_correct_fraction": self.min_correct_fraction,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GuaranteeSpec":
        neighbors = data.get("neighbors")
        return cls(
            delta=float(data.get("delta", 0.05)),
            resolution=float(data.get("resolution", 0.0)),
            mode=data.get("mode", "ordering"),
            top_t=data.get("top_t"),
            top_largest=bool(data.get("top_largest", True)),
            neighbors=(
                tuple(tuple(int(i) for i in adj) for adj in neighbors)
                if neighbors is not None
                else None
            ),
            value_tolerance=data.get("value_tolerance"),
            min_correct_fraction=data.get("min_correct_fraction"),
        )


@dataclass(frozen=True)
class QuerySpec:
    """A fully-lowered visualization query, ready for the planner.

    Attributes:
        table: catalog name of the relation.
        group_by: one or more grouping attributes (multiple columns become
            the §6.3.4 cross-product composite key in the catalog scan).
        aggregates: SELECT-list aggregates, in SELECT order.
        where: optional row predicate (shared AST with the SQL parser).
        having: optional post-filter on one estimated aggregate.
        guarantee: the probabilistic promise (delta, resolution, mode).
        algorithm: which core algorithm answers AVG aggregates
            (``ifocus``, ``ifocusr``, ``irefine``, ``roundrobin``, ...).
        engine: registered execution substrate (``needletail``, ``memory``,
            ``noindex``; see :func:`repro.session.planner.register_engine`).
        value_bound: optional value upper bound c; inferred when omitted.
        shards: partition the engine into this many parallel shards
            (:class:`~repro.engines.sharded.ShardedEngine`); 1 (the default)
            runs the engine unwrapped, bit-identical to previous releases.
        max_workers: thread-pool width for the shard fan-out; ``None`` means
            one worker per shard, ``1`` forces a sequential fan-out.
        executor: shard fan-out executor - ``"thread"`` (in-process, default)
            or ``"process"`` (one worker process per shard over shared
            memory; the planner falls back to threads, with a caveat, when
            the population cannot cross the process boundary).
        deadline_ms: optional per-query time budget in milliseconds.  On
            expiry the sampling loops finalize every still-active group at
            its current estimate (anytime behaviour: valid, wider
            intervals) and the result carries a ``deadline_exceeded``
            caveat instead of an exception.
        max_retries: transient-failure retry budget for source-scan
            population builds (exponential backoff; see
            :mod:`repro.resilience.retry`).
        window: optional :class:`~repro.streaming.window.WindowSpec` turning
            the query continuous - the stream is carved into windows and
            every other field is evaluated once per window.  Windowed specs
            run through ``Session.subscribe(...)`` / the streaming runner;
            the one-shot ``execute``/``submit`` paths reject them loudly.
    """

    table: str
    group_by: tuple[str, ...]
    aggregates: tuple[Aggregate, ...]
    where: Predicate | None = None
    having: HavingSpec | None = None
    guarantee: GuaranteeSpec = field(default_factory=GuaranteeSpec)
    algorithm: str = "ifocus"
    engine: str = "needletail"
    value_bound: float | None = None
    shards: int = 1
    max_workers: int | None = None
    executor: str = "thread"
    deadline_ms: float | None = None
    max_retries: int = 2
    window: WindowSpec | None = None

    def __post_init__(self) -> None:
        if self.window is not None and not isinstance(self.window, WindowSpec):
            raise TypeError(
                f"window must be a WindowSpec (or None), got {self.window!r}"
            )
        if not self.table:
            raise ValueError("a query needs a table name")
        if int(self.shards) < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.max_workers is not None and int(self.max_workers) < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.executor not in SHARD_EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; known: {SHARD_EXECUTORS}"
            )
        if self.deadline_ms is not None and float(self.deadline_ms) <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {self.deadline_ms}")
        if int(self.max_retries) < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not self.group_by:
            raise ValueError("a visualization query requires at least one GROUP BY")
        if not self.aggregates:
            raise ValueError("need at least one aggregate in SELECT")
        seen: set[Aggregate] = set()
        for agg in self.aggregates:
            if agg in seen:
                raise ValueError(
                    f"duplicate aggregate {agg.func}({agg.column}) in SELECT"
                )
            seen.add(agg)
        avgs = [a for a in self.aggregates if a.func == "AVG"]
        if len(avgs) > 2:
            raise ValueError("at most two AVG aggregates are supported (Problem 8)")
        if self.having is not None and self.having.agg not in self.aggregates:
            key = f"{self.having.agg.func}({self.having.agg.column})"
            raise ValueError(f"HAVING references {key}, which is not in SELECT")
        if self.guarantee.mode != "ordering" and len(avgs) != 1:
            raise ValueError(
                f"guarantee mode {self.guarantee.mode!r} applies to queries "
                "with exactly one AVG aggregate"
            )

    @property
    def avg_aggregates(self) -> tuple[Aggregate, ...]:
        return tuple(a for a in self.aggregates if a.func == "AVG")

    def scan_columns(self) -> tuple[str, ...]:
        """Every source column this query touches, in first-use order.

        Group-by keys, aggregate targets (``COUNT(*)`` touches none), and
        WHERE columns - the projection a :class:`~repro.catalog.source.DataSource`
        scan needs to answer the query.  Used by the planner's population
        builds (scan only these, never the full relation) and surfaced by
        ``explain()``.
        """
        from repro.query.predicates import predicate_columns

        cols = list(self.group_by)
        cols += [a.column for a in self.aggregates if a.column != "*"]
        if self.where is not None:
            cols += sorted(predicate_columns(self.where))
        return tuple(dict.fromkeys(cols))

    def agg_key(self, agg: Aggregate) -> str:
        """Canonical result key for one aggregate, e.g. ``"AVG(delay)"``."""
        return f"{agg.func}({agg.column})"

    def with_guarantee(self, **changes) -> "QuerySpec":
        """A copy of the spec with guarantee fields replaced."""
        return replace(self, guarantee=replace(self.guarantee, **changes))

    def to_dict(self) -> dict:
        """JSON-safe dict form - the server wire format for specs.

        ``from_dict(to_dict())`` equals the original spec (frozen dataclass
        equality), so a spec can cross the HTTP boundary losslessly.
        """
        return {
            "table": self.table,
            "group_by": list(self.group_by),
            "aggregates": [
                {"func": a.func, "column": a.column} for a in self.aggregates
            ],
            "where": predicate_to_dict(self.where) if self.where is not None else None,
            "having": self.having.to_dict() if self.having is not None else None,
            "guarantee": self.guarantee.to_dict(),
            "algorithm": self.algorithm,
            "engine": self.engine,
            "value_bound": self.value_bound,
            "shards": self.shards,
            "max_workers": self.max_workers,
            "executor": self.executor,
            "deadline_ms": self.deadline_ms,
            "max_retries": self.max_retries,
            "window": self.window.to_dict() if self.window is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuerySpec":
        """Rebuild (and re-validate) a spec from its :meth:`to_dict` form."""
        where = data.get("where")
        having = data.get("having")
        guarantee = data.get("guarantee")
        window = data.get("window")
        return cls(
            table=data["table"],
            group_by=tuple(data["group_by"]),
            aggregates=tuple(
                Aggregate(a["func"], a["column"]) for a in data["aggregates"]
            ),
            where=predicate_from_dict(where) if where is not None else None,
            having=HavingSpec.from_dict(having) if having is not None else None,
            guarantee=(
                GuaranteeSpec.from_dict(guarantee)
                if guarantee is not None
                else GuaranteeSpec()
            ),
            algorithm=data.get("algorithm", "ifocus"),
            engine=data.get("engine", "needletail"),
            value_bound=data.get("value_bound"),
            shards=int(data.get("shards", 1)),
            max_workers=data.get("max_workers"),
            executor=data.get("executor", "thread"),
            deadline_ms=data.get("deadline_ms"),
            max_retries=int(data.get("max_retries", 2)),
            window=WindowSpec.from_dict(window) if window is not None else None,
        )

    def canonical_key(self) -> str:
        """A stable string identifying this exact query.

        Two specs compare equal iff their canonical keys match: the key is
        the sorted, separator-normalized JSON of :meth:`to_dict`, so it is
        independent of which front door (SQL text, builder, wire JSON)
        produced the spec.  The serving layer's result cache keys on
        ``(canonical_key, seed)``.
        """
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def lower_query(
    query: Query,
    *,
    guarantee: GuaranteeSpec | None = None,
    algorithm: str = "ifocus",
    engine: str = "needletail",
    value_bound: float | None = None,
    shards: int = 1,
    max_workers: int | None = None,
    executor: str = "thread",
    deadline_ms: float | None = None,
    max_retries: int = 2,
    window: WindowSpec | None = None,
) -> QuerySpec:
    """Lower a parsed SQL :class:`~repro.query.ast.Query` to a :class:`QuerySpec`.

    This is the SQL front door's half of the "both paths meet in the same IR"
    contract; the fluent builder's ``spec()`` is the other half.
    """
    having = None
    if query.having is not None:
        agg, op, value = query.having
        having = HavingSpec(agg=agg, op=op, value=float(value))
    return QuerySpec(
        table=query.table,
        group_by=tuple(query.group_by),
        aggregates=tuple(query.aggregates),
        where=query.where,
        having=having,
        guarantee=guarantee if guarantee is not None else GuaranteeSpec(),
        algorithm=algorithm,
        engine=engine,
        value_bound=value_bound,
        shards=shards,
        max_workers=max_workers,
        executor=executor,
        deadline_ms=deadline_ms,
        max_retries=max_retries,
        window=window,
    )
