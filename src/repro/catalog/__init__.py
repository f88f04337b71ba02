"""Pluggable data layer: schemas, sources, and the session catalog.

This package is the data-side counterpart of :mod:`repro.session`'s query
side: one abstraction (:class:`DataSource`) behind the front door, with the
:class:`Catalog` owning named sources and the lazy, cached builds engines
consume.  See the module docstrings for the contract details:

* :mod:`repro.catalog.schema` - column metadata and early validation;
* :mod:`repro.catalog.source` - the ``DataSource`` protocol, in-memory and
  iterator sources;
* :mod:`repro.catalog.csv` - chunked CSV scans;
* :mod:`repro.catalog.parquet` - Parquet/Arrow (optional ``pyarrow`` extra);
* :mod:`repro.catalog.synthetic` - generator-spec sources;
* :mod:`repro.catalog.catalog` - the catalog with predicate-pushdown
  population builds.
"""

from repro.catalog.attach import SourceSpec
from repro.catalog.catalog import (
    Catalog,
    EngineBuild,
    FanoutBuild,
    PopulationBuild,
    SourceInfo,
    population_from_chunks,
)
from repro.catalog.csv import CSVSource
from repro.catalog.parquet import HAVE_PYARROW, ParquetSource
from repro.catalog.schema import ColumnSchema, Schema
from repro.catalog.source import (
    DataSource,
    IteratorSource,
    MissingDependencyError,
    TableSource,
)
from repro.catalog.synthetic import SyntheticSource

__all__ = [
    "Catalog",
    "SourceSpec",
    "SourceInfo",
    "EngineBuild",
    "FanoutBuild",
    "PopulationBuild",
    "population_from_chunks",
    "Schema",
    "ColumnSchema",
    "DataSource",
    "TableSource",
    "IteratorSource",
    "CSVSource",
    "ParquetSource",
    "HAVE_PYARROW",
    "SyntheticSource",
    "MissingDependencyError",
]
