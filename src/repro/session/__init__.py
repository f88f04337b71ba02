"""The Session API: one front door for every ordering-guarantee workload.

Layering (top to bottom):

* **Front doors** - :func:`connect` / :class:`Session` hand out fluent
  :class:`~repro.session.builder.QueryBuilder` objects (``session.table(...)``)
  and SQL builders (``session.sql(...)``).
* **IR** - both front doors lower to the declarative
  :class:`~repro.session.spec.QuerySpec`.
* **Planner** - :func:`~repro.session.planner.execute_spec` /
  :func:`~repro.session.planner.stream_spec` dispatch one spec across the
  core algorithms, every Section-6 extension, and any registered engine.
* **Results** - every path returns the unified
  :class:`~repro.session.result.Result`; ``.stream()`` yields
  :class:`~repro.session.result.PartialUpdate` objects for every workload.

The data side mirrors this layering in :mod:`repro.catalog`: sessions own a
:class:`~repro.catalog.Catalog` of pluggable
:class:`~repro.catalog.DataSource` objects (in-memory, chunked CSV, Parquet,
synthetic specs, iterators) with lazy, cached builds and WHERE pushdown into
the source scan.
"""

from repro.catalog import (
    Catalog,
    CSVSource,
    DataSource,
    IteratorSource,
    ParquetSource,
    Schema,
    SyntheticSource,
    TableSource,
)
from repro.session.builder import QueryBuilder, avg, count, sum_, total
from repro.session.planner import (
    EngineDef,
    describe_spec,
    engine_names,
    execute_spec,
    register_engine,
    stream_spec,
)
from repro.session.result import (
    AggregateResult,
    GroupEstimate,
    PartialUpdate,
    Result,
    ResultStream,
)
from repro.session.session import QueryFuture, Session, connect
from repro.session.spec import (
    Aggregate,
    GuaranteeSpec,
    HavingSpec,
    QuerySpec,
    lower_query,
)
from repro.streaming import WindowSpec

__all__ = [
    "connect",
    "Session",
    "QueryFuture",
    "QueryBuilder",
    "avg",
    "total",
    "sum_",
    "count",
    "QuerySpec",
    "GuaranteeSpec",
    "HavingSpec",
    "Aggregate",
    "lower_query",
    "WindowSpec",
    "Result",
    "AggregateResult",
    "GroupEstimate",
    "PartialUpdate",
    "ResultStream",
    "execute_spec",
    "stream_spec",
    "describe_spec",
    "register_engine",
    "engine_names",
    "EngineDef",
    # data layer (re-exported from repro.catalog)
    "Catalog",
    "DataSource",
    "Schema",
    "TableSource",
    "CSVSource",
    "ParquetSource",
    "SyntheticSource",
    "IteratorSource",
]
