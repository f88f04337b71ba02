"""repro - rapid sampling for visualizations with ordering guarantees.

A complete Python reproduction of "Rapid Sampling for Visualizations with
Ordering Guarantees" (Kim, Blais, Parameswaran, Indyk, Madden, Rubinfeld;
VLDB 2015): the IFOCUS family of sampling algorithms, the IREFINE and
ROUNDROBIN comparison points, the NEEDLETAIL bitmap-index sampling substrate,
the Section 6 extensions, and an experiment harness regenerating every figure
and table in the paper's evaluation.

The **Session API** is the primary surface: one front door for every
workload, with SQL text and a fluent builder lowering to the same query IR.
Data enters through the pluggable **catalog** (:mod:`repro.catalog`): lazy
:class:`DataSource` objects (in-memory, chunked CSV, Parquet, synthetic
specs, iterators) with cached builds and WHERE pushdown into the source
scan.

Quickstart::

    import numpy as np
    import repro

    rng = np.random.default_rng(0)
    session = repro.connect(delta=0.05)
    session.register("delays", {
        "airline": np.repeat(["AA", "JB", "UA"], 100_000),
        "delay": np.concatenate(
            [rng.normal(mu, 10, 100_000).clip(0, 100) for mu in (30, 15, 85)]
        ),
    })

    result = (
        session.table("delays")
        .group_by("airline")
        .agg(repro.avg("delay"))
        .run(seed=42)
    )
    print(result.first.order(), result.total_samples)

    # the SQL front door lowers to the same QuerySpec:
    same = session.sql(
        "SELECT airline, AVG(delay) FROM delays GROUP BY airline"
    ).run(seed=42)

    # every workload also streams - bars appear the moment they're trustworthy:
    for update in session.table("delays").group_by("airline").agg(
        repro.avg("delay")
    ).stream(seed=42):
        print(update.group.label, update.group.estimate)

Guarantee variants chain onto any query: ``.top(5)`` (§6.1.2), ``.trends()``
(§6.1.1), ``.values(within=2.0)`` (§6.2.1), ``.mistakes(0.9)`` (§6.1.3),
``.guarantee(delta=..., resolution=...)`` (Problem 2), and
``.on_engine("memory" | "needletail" | "noindex")`` picks the substrate.

The algorithm layer stays public, one name per implementation - it is what
the Session planner itself dispatches to, for engine-level work on hand-built
populations: ``run_algorithm`` plus ``run_ifocus``, ``run_irefine``,
``run_roundrobin``, ``run_scan`` and the ``run_ifocus_reference`` oracle
here, and the Section 6 variants (``run_ifocus_sum``, ``run_count_known``,
``run_ifocus_multi_avg``, ``run_ifocus_topt``, ``run_ifocus_trends``,
``run_ifocus_values``, ``run_ifocus_mistakes``, ``run_noindex``) in
:mod:`repro.extensions`.
"""

from repro.core import (
    OrderingResult,
    algorithm_names,
    run_algorithm,
    run_ifocus,
    run_ifocus_reference,
    run_irefine,
    run_roundrobin,
    run_scan,
)
from repro.catalog import (
    Catalog,
    CSVSource,
    DataSource,
    IteratorSource,
    ParquetSource,
    Schema,
    SourceSpec,
    SyntheticSource,
    TableSource,
)
from repro.storage import DurableCatalog, Store
from repro.data import Population
from repro.engines import InMemoryEngine, ShardedEngine
from repro.errors import (
    FatalError,
    QueryCancelled,
    ReproError,
    TransientError,
    WorkerCrashed,
)
from repro.session import (
    GroupEstimate,
    GuaranteeSpec,
    PartialUpdate,
    QueryBuilder,
    QueryFuture,
    QuerySpec,
    Result,
    ResultStream,
    Session,
    avg,
    connect,
    count,
    register_engine,
    sum_,
    total,
)
from repro.streaming import ContinuousQuery, WindowResult, WindowSpec

__version__ = "3.1.0"

__all__ = [
    # Session API (primary surface)
    "connect",
    "Session",
    "QueryBuilder",
    "QuerySpec",
    "GuaranteeSpec",
    "Result",
    "GroupEstimate",
    "PartialUpdate",
    "ResultStream",
    "avg",
    "total",
    "sum_",
    "count",
    "register_engine",
    "QueryFuture",
    # continuous windowed queries (repro.streaming)
    "WindowSpec",
    "WindowResult",
    "ContinuousQuery",
    # error taxonomy / resilience
    "ReproError",
    "TransientError",
    "FatalError",
    "WorkerCrashed",
    "QueryCancelled",
    # data layer (repro.catalog) + durable storage (repro.storage)
    "Catalog",
    "SourceSpec",
    "DurableCatalog",
    "Store",
    "DataSource",
    "Schema",
    "TableSource",
    "CSVSource",
    "ParquetSource",
    "SyntheticSource",
    "IteratorSource",
    # algorithm layer
    "OrderingResult",
    "algorithm_names",
    "run_algorithm",
    "run_ifocus",
    "run_ifocus_reference",
    "run_irefine",
    "run_roundrobin",
    "run_scan",
    "Population",
    "InMemoryEngine",
    "ShardedEngine",
    "__version__",
]
