"""NEEDLETAIL: the sampling engine over a row-store table (paper Section 4).

NEEDLETAIL's job is to fetch a uniformly random row of a chosen group.  The
paper does it with a bitmap index on the group-by attribute: pick a uniform
rank within the group's bitmap, *select* the rowid, fetch the value.  In
memory the same rows in the same rank order are one gather away: the value
column grouped by a stable sort holds each group's values in rowid order, so
rank r of group g is the r-th value of g's chunk.  The engine samples that
grouped population (the one :func:`~repro.data.population.population_from_chunks`
builds for every population engine), and a without-replacement run's first m
draws are exactly a uniform m-subset.

The §4 :class:`~repro.needletail.index.BitmapIndex` stays as the paper's
index structure - its compressed footprint (:meth:`index_storage_bytes`),
its select kernels - built on first access to :attr:`NeedletailEngine.index`.

Runs count charged samples only; the paper's simulated I/O and CPU seconds
are priced from those counts by :mod:`repro.experiments.costmodel`.
"""

from __future__ import annotations

import numpy as np

from repro.data.population import population_from_chunks
from repro.engines.base import SamplingEngine
from repro.needletail.bitvector import BitVector
from repro.needletail.index import BitmapIndex
from repro.needletail.table import Table

__all__ = ["NeedletailEngine"]


class NeedletailEngine(SamplingEngine):
    """Sampling engine over a table grouped by one attribute."""

    def __init__(
        self,
        table: Table,
        group_by: str,
        value_column: str,
        c: float | None = None,
        predicate: BitVector | None = None,
    ) -> None:
        """Args:
            table: the row-store relation.
            group_by: grouping attribute X.
            value_column: aggregated attribute Y (values must lie in [0, c]).
            c: value upper bound; inferred from the whole column when omitted
                (metadata a real system would know, e.g. delays <= 24h) -
                also under a predicate.
            predicate: optional row bitmap (WHERE clause) restricting every
                group (Section 6.3.3); groups it empties are dropped.
        """
        values = np.asarray(table.column(value_column), dtype=np.float64)
        if c is None:
            c = max(float(values.max()), 1e-9) if values.size else 1.0
        keys = table.column(group_by)
        if predicate is not None:
            rows = predicate.set_positions()
            keys, values = keys[rows], values[rows]
        self.table = table
        self.group_by = group_by
        self.value_column = value_column
        self.predicate = predicate
        self._index: BitmapIndex | None = None
        super().__init__(
            population_from_chunks(
                [{group_by: keys, value_column: values}],
                group_by,
                value_column,
                c=c,
                name=table.name,
                filtered=predicate is not None,
            )
        )

    @property
    def index(self) -> BitmapIndex:
        """The §4 bitmap index on the group-by attribute (built on first use)."""
        if self._index is None:
            self._index = BitmapIndex(self.table, self.group_by)
        return self._index

    def index_storage_bytes(self, compressed: bool = True) -> int:
        """Footprint of the group-by bitmap index."""
        return self.index.storage_bytes(compressed=compressed)
