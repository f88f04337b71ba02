"""Pack engines/populations/tables into segment arrays - and map them back.

This is the serializer layer between the live objects the planner builds
(:class:`~repro.needletail.engine.NeedletailEngine`, materialized
:class:`~repro.data.population.Population` objects, row-store
:class:`~repro.needletail.table.Table` objects) and the flat arrays a
:class:`~repro.storage.store.Store` persists as segments.  It mirrors the
packing discipline of :func:`repro.engines.payload.build_shard_payloads`: bitmap
words concatenate into one uint64 array with per-group word ranges, group
values concatenate into one float64 array with per-group offsets, and the
deduped row-store value column is stored exactly once.

The reverse direction constructs *zero-copy* over read-only ``np.memmap``
arrays: :meth:`BitVector.from_mapped` adopts each group's word slice plus
its persisted cumulative-popcount slice (the rank/select acceleration
table), so a :class:`MappedNeedletailEngine` answers selects without ever
re-scanning - and without a :class:`BitmapIndex` rebuild.  Mapped engines
are bit-identical to RAM-built ones by construction: identical words mean
identical select results, and ranks come from per-run seeded permutations
that never look at the selector.
"""

from __future__ import annotations

import numpy as np

from repro.data.population import MaterializedGroup, Population
from repro.engines.base import CostModel, SamplingEngine
from repro.errors import StorageError
from repro.needletail.bitvector import BitVector
from repro.needletail.cost import NeedletailCostModel
from repro.needletail.engine import BUILD_COUNTS, IndexedGroup, base_bitvector
from repro.needletail.table import Column, Table

__all__ = [
    "MappedNeedletailEngine",
    "pack_index",
    "unpack_index",
    "pack_population",
    "unpack_population",
    "pack_table",
    "unpack_table",
]


class MappedNeedletailEngine(SamplingEngine):
    """A NEEDLETAIL engine whose index words live in mapped storage segments.

    Behaviourally identical to :class:`NeedletailEngine` - same
    :class:`IndexedGroup` retrieval path (rank -> select -> row-store
    fetch), same default cost model - but constructed from persisted
    arrays in O(mapped pages touched), with no :class:`BitmapIndex`
    build.  ``BUILD_COUNTS["mapped"]`` counts these constructions; the
    warm-reopen tests assert they replace (not add to) "needletail" ones.
    """

    def __init__(
        self,
        population: Population,
        *,
        group_by: str,
        value_column: str,
        row_bytes: int,
        cost_model: CostModel | None = None,
    ) -> None:
        BUILD_COUNTS["mapped"] += 1
        self.group_by = group_by
        self.value_column = value_column
        super().__init__(
            population,
            cost_model=cost_model if cost_model is not None else NeedletailCostModel(),
            row_bytes=int(row_bytes),
        )


# ---------------------------------------------------------------------------
# NEEDLETAIL index <-> segments
# ---------------------------------------------------------------------------


def pack_index(engine) -> tuple[dict, dict[str, np.ndarray]] | None:
    """Flatten a built engine's index into (meta, arrays), or None.

    Packs only engines whose every group selector exposes flat bitmap words
    (:func:`base_bitvector` - the same shareability predicate
    :mod:`repro.engines.payload` uses) and whose groups share one value column.
    Arrays: ``words`` (uint64, all groups' words concatenated), ``cum``
    (int64 per-group cumulative popcounts, slice-aligned with ``words`` -
    the persisted rank/select acceleration table), ``values`` (the deduped
    row-store value column).  Meta records each group's name and
    ``[word_lo, word_hi, length]`` window plus ``c`` and ``row_bytes``.
    """
    groups = engine.population.groups
    bases = [base_bitvector(g._selector) for g in groups]
    if any(base is None for base in bases):
        return None
    values = groups[0]._values
    if not all(g._values is values for g in groups):
        return None
    word_arrays = [np.asarray(base.words) for base in bases]
    word_counts = [w.shape[0] for w in word_arrays]
    offsets = np.concatenate([[0], np.cumsum(word_counts)]).astype(np.int64)
    specs = [
        [g.name, int(offsets[i]), int(offsets[i + 1]), len(bases[i])]
        for i, g in enumerate(groups)
    ]
    words = np.concatenate(word_arrays) if word_arrays else np.zeros(0, dtype=np.uint64)
    pops = np.bitwise_count(words).astype(np.int64)
    cum = np.zeros(words.shape[0], dtype=np.int64)
    for _, lo, hi, _length in specs:
        np.cumsum(pops[lo:hi], out=cum[lo:hi])
    meta = {
        "groups": specs,
        "c": float(engine.population.c),
        "row_bytes": int(engine.row_bytes),
        "population_name": engine.population.name,
    }
    arrays = {
        "words": words,
        "cum": cum,
        "values": np.asarray(values, dtype=np.float64),
    }
    return meta, arrays


def unpack_index(
    meta: dict,
    arrays: dict[str, np.ndarray],
    *,
    group_by: str,
    value_column: str,
) -> MappedNeedletailEngine:
    """Rebuild a sampling engine over mapped index segments (zero-copy)."""
    try:
        words, cum, values = arrays["words"], arrays["cum"], arrays["values"]
        specs, c, row_bytes = meta["groups"], float(meta["c"]), int(meta["row_bytes"])
    except KeyError as exc:
        raise StorageError(f"needletail build is missing {exc} - rebuild the store") from exc
    groups: list[IndexedGroup] = []
    for name, lo, hi, length in specs:
        selector = BitVector.from_mapped(words[lo:hi], int(length), cum[lo:hi])
        groups.append(IndexedGroup(str(name), selector, values))
    population = Population(
        groups=groups, c=c, name=str(meta.get("population_name", "population"))
    )
    return MappedNeedletailEngine(
        population, group_by=group_by, value_column=value_column, row_bytes=row_bytes
    )


# ---------------------------------------------------------------------------
# Materialized population <-> segments
# ---------------------------------------------------------------------------


def pack_population(population: Population) -> tuple[dict, dict[str, np.ndarray]] | None:
    """Flatten a fully materialized population, or None if any group isn't.

    Virtual (distribution-backed) groups have nothing to persist - their
    sources rebuild in O(1) anyway - and indexed groups are persisted as
    index builds instead, so only :class:`MaterializedGroup` populations
    pack.  Layout matches ``_MaterializedSpec`` in the payload packing: one
    concatenated ``values`` array plus per-group ``[name, lo, hi]`` windows.
    """
    groups = population.groups
    if not all(isinstance(g, MaterializedGroup) for g in groups):
        return None
    sizes = [g.size for g in groups]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    specs = [
        [g.name, int(offsets[i]), int(offsets[i + 1])] for i, g in enumerate(groups)
    ]
    values = np.concatenate([np.asarray(g.values, dtype=np.float64) for g in groups])
    meta = {"groups": specs, "c": float(population.c), "name": population.name}
    return meta, {"values": values}


def unpack_population(meta: dict, arrays: dict[str, np.ndarray]) -> Population:
    """Rebuild a materialized population over a mapped values segment."""
    try:
        values = arrays["values"]
        specs, c = meta["groups"], float(meta["c"])
    except KeyError as exc:
        raise StorageError(f"population build is missing {exc} - rebuild the store") from exc
    groups = [MaterializedGroup(str(name), values[lo:hi]) for name, lo, hi in specs]
    return Population(groups=groups, c=c, name=str(meta.get("name", "population")))


# ---------------------------------------------------------------------------
# Row-store table <-> segments
# ---------------------------------------------------------------------------


def pack_table(table: Table) -> tuple[dict, dict[str, np.ndarray]] | None:
    """Flatten a row-store table into one segment array per column.

    Object-dtype columns cannot be stored (no stable byte form); such
    tables return None and stay memory-only.
    """
    columns = []
    arrays: dict[str, np.ndarray] = {}
    for i, name in enumerate(table.column_names):
        values = np.asarray(table.column(name))
        if values.dtype.hasobject:
            return None
        width = table._columns[name].byte_width
        columns.append([name, int(width)])
        arrays[f"col{i}"] = values
    meta = {"columns": columns, "num_rows": int(table.num_rows)}
    return meta, arrays


def unpack_table(meta: dict, arrays: dict[str, np.ndarray], name: str) -> Table:
    """Rebuild a table over mapped column segments (zero-copy)."""
    try:
        specs = meta["columns"]
        columns = [
            Column(str(col_name), arrays[f"col{i}"], int(width))
            for i, (col_name, width) in enumerate(specs)
        ]
    except KeyError as exc:
        raise StorageError(f"table build is missing {exc} - rebuild the store") from exc
    return Table(str(name), columns)
