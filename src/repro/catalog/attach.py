"""``attach()`` target dispatch: one polymorphic front door for data sources.

``Session.attach(name, target, **opts)`` and ``Catalog.attach(...)`` are a
single call that dispatches on what ``target`` *is*:

=====================================  =========================================
target                                 resolves to
=====================================  =========================================
a :class:`DataSource`                  itself (opts must be empty)
a :class:`~repro.needletail.table.Table`  :class:`TableSource`
a ``{column: ndarray}`` mapping        :class:`TableSource`
a DataFrame-like (``.columns`` +       :class:`TableSource` over its columns
``__getitem__``)
a path ending ``.csv``/``.tsv``        :class:`CSVSource` (``.tsv``: tab
                                       delimiter unless overridden)
a path ending ``.parquet``/``.pq``     :class:`ParquetSource`
a :class:`SourceSpec`                  its ``kind``'s source (``csv``,
                                       ``parquet``, ``synthetic``,
                                       ``flights``)
=====================================  =========================================

``SourceSpec`` names targets that have no natural filesystem or in-memory
form - a synthetic generator family, the paper's flights workload - and is
also how a :class:`~repro.storage.DurableCatalog` records *every* binding on
disk: each resolver here has an inverse in the durable catalog's reload path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.catalog.csv import CSVSource
from repro.catalog.parquet import ParquetSource
from repro.catalog.source import DataSource, TableSource
from repro.catalog.synthetic import SyntheticSource
from repro.needletail.table import Table

__all__ = ["SourceSpec", "resolve_target", "SUFFIX_SOURCES"]


@dataclass(frozen=True)
class SourceSpec:
    """A declarative attach target: a source kind plus its options.

    Examples::

        session.attach("bench", SourceSpec("synthetic", family="mixture", k=10))
        session.attach("flights", SourceSpec("flights", rows=50_000, seed=0))
        session.attach("t", SourceSpec("csv", path="t.data", delimiter="|"))
    """

    kind: str
    options: Mapping[str, Any] = field(default_factory=dict)

    def __init__(self, kind: str, **options) -> None:
        object.__setattr__(self, "kind", str(kind))
        object.__setattr__(self, "options", dict(options))


#: Path-suffix dispatch table: suffix -> (source kind, default extra opts).
SUFFIX_SOURCES = {
    ".csv": ("csv", {}),
    ".tsv": ("csv", {"delimiter": "\t"}),
    ".parquet": ("parquet", {}),
    ".pq": ("parquet", {}),
}


def _dataframe_columns(target) -> dict[str, np.ndarray] | None:
    """``{column: ndarray}`` for a DataFrame-like target, else ``None``.

    Duck-typed (no pandas import): anything exposing an iterable ``columns``
    of names and column access via ``__getitem__`` qualifies - which covers
    pandas/polars-style frames without depending on either.
    """
    columns = getattr(target, "columns", None)
    if columns is None or isinstance(target, (Table, Mapping)):
        return None
    try:
        names = [str(c) for c in list(columns)]
        return {name: np.asarray(target[name]) for name in names}
    except Exception:
        return None


def _from_spec(name: str, spec: SourceSpec, opts: dict) -> DataSource:
    options = {**spec.options, **opts}
    kind = spec.kind.lower()
    if kind == "csv":
        path = options.pop("path")
        source = CSVSource(path, **options)
        source.schema()  # surface file/typing errors at attach time
        return source
    if kind == "parquet":
        path = options.pop("path")
        return ParquetSource(path, **options)
    if kind == "synthetic":
        family = options.pop("family")
        return SyntheticSource(family, **options)
    if kind == "flights":
        from repro.data.flights import make_flights_table

        rows = int(options.pop("rows", 100_000))
        seed = options.pop("seed", 0)
        if options:
            raise TypeError(
                f"flights spec got unknown options {sorted(options)}; "
                "it takes rows= and seed="
            )
        return TableSource(make_flights_table(num_rows=rows, seed=seed), name=name)
    raise ValueError(
        f"unknown SourceSpec kind {spec.kind!r}; "
        "known: csv, parquet, synthetic, flights"
    )


def _from_path(path: str, opts: dict) -> DataSource:
    suffix = os.path.splitext(path)[1].lower()
    entry = SUFFIX_SOURCES.get(suffix)
    if entry is None:
        raise ValueError(
            f"cannot infer a source kind from {path!r} (suffix {suffix!r}); "
            f"known suffixes: {sorted(SUFFIX_SOURCES)}. Pass an explicit "
            "SourceSpec (e.g. SourceSpec('csv', path=...)) for other layouts"
        )
    kind, defaults = entry
    options = {**defaults, **opts}
    if kind == "csv":
        source = CSVSource(path, **options)
        source.schema()  # surface file/typing errors at attach time
        return source
    return ParquetSource(path, **options)


def resolve_target(name: str, target, opts: dict) -> DataSource:
    """Resolve one ``attach(name, target, **opts)`` call to a DataSource."""
    if isinstance(target, DataSource):
        if opts:
            raise TypeError(
                f"attach() options {sorted(opts)} cannot apply to an "
                "already-constructed DataSource; pass them to its constructor"
            )
        return target
    if isinstance(target, SourceSpec):
        return _from_spec(name, target, opts)
    if isinstance(target, Table):
        return TableSource(target, name=name, **opts)
    if isinstance(target, Mapping):
        return TableSource(target, name=name, **opts)
    if isinstance(target, (str, os.PathLike)):
        return _from_path(os.fspath(target), opts)
    frame = _dataframe_columns(target)
    if frame is not None:
        return TableSource(frame, name=name, **opts)
    raise TypeError(
        f"cannot attach a {type(target).__name__}: expected a DataSource, "
        "Table, {column: array} mapping, DataFrame-like, path, or SourceSpec"
    )
