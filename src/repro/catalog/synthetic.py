"""Synthetic-spec sources: a generator family as a catalog relation.

The paper's synthetic workloads (:mod:`repro.data.synthetic`) build
:class:`~repro.data.population.Population` objects - usually *virtual*
(distribution-backed groups, no rows in memory, sizes up to 1e10).  A
:class:`SyntheticSource` wraps one generator spec so those workloads sit in
the same catalog as CSV and Parquet relations::

    session.attach("bench", SyntheticSource("mixture", k=10, seed=0))
    session.table("bench").group_by("g").agg(avg("value")).on_engine("memory").run()

Every engine door consumes the generated population directly -
:meth:`SyntheticSource.population` bypasses the scan-based build entirely,
which is the only sound route for virtual groups.  ``scan`` (and therefore
WHERE pushdown, composite GROUP BY keys and the row-store table) works only
when the spec materializes its rows (``materialize=True``); on a virtual
spec they raise a clear error instead of silently drawing unbounded
samples.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.catalog.schema import NUMERIC, STRING, ColumnSchema, Schema
from repro.catalog.source import Chunk, DataSource
from repro.data.population import MaterializedGroup, Population
from repro.data.synthetic import SYNTHETIC_FAMILIES
from repro.query.ast import Predicate

__all__ = ["SyntheticSource"]


class SyntheticSource(DataSource):
    """A catalog relation defined by a synthetic population generator.

    Args:
        family: a :data:`~repro.data.synthetic.SYNTHETIC_FAMILIES` key
            (``"mixture"``, ``"truncnorm"``, ...) or any callable returning a
            :class:`Population`.
        group_column / value_column: the two column names the pseudo-relation
            exposes (group label, aggregated value).
        **params: forwarded to the generator (``k``, ``total_size``,
            ``seed``, ``materialize``, ...).
    """

    kind = "synthetic"

    def __init__(
        self,
        family: str | Callable[..., Population],
        *,
        group_column: str = "g",
        value_column: str = "value",
        **params,
    ) -> None:
        if callable(family):
            self._factory = family
            self._family = getattr(family, "__name__", "custom")
        else:
            if family not in SYNTHETIC_FAMILIES:
                raise KeyError(
                    f"unknown synthetic family {family!r}; known: "
                    f"{sorted(SYNTHETIC_FAMILIES)}"
                )
            self._factory = SYNTHETIC_FAMILIES[family]
            self._family = family
        if group_column == value_column:
            raise ValueError("group_column and value_column must differ")
        self._group_column = group_column
        self._value_column = value_column
        self._params = dict(params)
        self._population: Population | None = None

    def describe(self) -> str:
        return f"synthetic {self._family!r}"

    def build(self) -> Population:
        """The generated population (built once, cached)."""
        if self._population is None:
            self._population = self._factory(**self._params)
        return self._population

    def refresh(self) -> None:
        """Drop the cached population; the next use regenerates it."""
        self._population = None

    @property
    def materialized(self) -> bool:
        """Whether every group's rows exist in memory (scannable)."""
        return all(isinstance(g, MaterializedGroup) for g in self.build().groups)

    def schema(self) -> Schema:
        return Schema(
            [
                ColumnSchema(self._group_column, STRING),
                ColumnSchema(self._value_column, NUMERIC),
            ]
        )

    def row_count_hint(self) -> int | None:
        """Nominal size, without generating the dataset.

        Answered from the already-built population or the spec's own
        ``total_size`` parameter; building 1e8 rows just to print a row
        count in ``repro describe`` would violate the hint contract.
        """
        if self._population is not None:
            return self._population.total_size
        if "total_size" in self._params:
            return int(self._params["total_size"])
        return None

    def population(
        self,
        group_col: str,
        value_col: str,
        predicate: Predicate | None,
        value_bound: float | None,
    ) -> Population | None:
        if (group_col, value_col) != (self._group_column, self._value_column):
            raise KeyError(
                f"synthetic source exposes columns "
                f"({self._group_column!r}, {self._value_column!r}); "
                f"requested ({group_col!r}, {value_col!r})"
            )
        if predicate is not None:
            if self.materialized:
                return None  # fall back to the scan-based (pushdown) build
            raise ValueError(
                "WHERE is not supported on a virtual synthetic source (there "
                "are no rows to filter); generate with materialize=True to "
                "enable predicates"
            )
        pop = self.build()
        if value_bound is not None and value_bound != pop.c:
            pop = Population(groups=pop.groups, c=float(value_bound), name=pop.name)
        return pop

    def _virtual_error(self, what: str) -> ValueError:
        return ValueError(
            f"cannot {what} a virtual synthetic source ({self.build().name}): "
            "its groups are distributions, not rows; generate with "
            "materialize=True, or query it on a population engine "
            "(.on_engine('memory'))"
        )

    def _chunks(self, columns: tuple[str, ...]) -> Iterator[Chunk]:
        pop = self.build()
        if not self.materialized:
            raise self._virtual_error("scan")
        # One common string dtype so chunk concatenation never narrows labels.
        label_dtype = np.array([g.name for g in pop.groups]).dtype
        for group in pop.groups:
            values = np.asarray(group.values, dtype=np.float64)  # type: ignore[attr-defined]
            chunk = {
                self._group_column: np.full(values.shape[0], group.name, dtype=label_dtype),
                self._value_column: values,
            }
            yield {c: chunk[c] for c in columns}

    def to_table(self, name: str):
        if not self.materialized:
            raise self._virtual_error("materialize")
        return super().to_table(name)
