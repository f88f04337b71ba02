"""The one packed layout of a population - and the way back.

A packed population is a ``(kind, meta, buffers)`` triple.  The durable
:class:`~repro.storage.store.Store` persists it as a build (one segment per
buffer), and the process executor ships it to its workers as files
(:func:`repro.engines.payload.build_shard_payloads`).  There are two kinds:

* ``"needletail"`` - NEEDLETAIL indexed groups: ``words`` (uint64, every
  group's bitmap words end to end), ``cum`` (int64 per-group cumulative
  popcounts, slice-aligned with ``words`` - the rank/select acceleration
  table) and ``values`` (the groups' one row-store value column); meta
  groups are ``[name, word_lo, word_hi, length]``;
* ``"population"`` - materialized groups: ``values`` (float64, every
  group's values end to end); meta groups are ``[name, lo, hi]``.

Meta also holds ``c`` and the population ``name``.  Packing copies nothing
it need not: when a buffer's per-group chunks already lie end to end in one
array - a segment that was unpacked, a column that
:func:`~repro.catalog.catalog.population_from_chunks` split - the buffer is a
view of that array; otherwise it is the list of chunks, which the store
joins (:func:`concatenated`) and a pool directory streams into one file.

The reverse direction, :func:`unpack_population`, builds every group as a
view of the arrays - zero-copy over read-only ``np.memmap`` arrays:
:meth:`BitVector.from_mapped` adopts each group's word slice plus its
``cum`` slice, so a mapped group answers selects without re-scanning and
without a :class:`BitmapIndex` rebuild.  Unpacked groups are bit-identical
to the packed ones by construction: identical words mean identical select
results, and ranks come from per-run seeded permutations that never look at
the selector.
"""

from __future__ import annotations

import numpy as np

from repro.data.population import MaterializedGroup, Population
from repro.engines.base import SamplingEngine
from repro.errors import StorageError
from repro.needletail.bitvector import BitVector
from repro.needletail.engine import BUILD_COUNTS, IndexedGroup, base_bitvector
from repro.needletail.table import Column, Table

__all__ = [
    "MappedNeedletailEngine",
    "concatenated",
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
    fetch), same sample counts - but constructed from persisted
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
    ) -> None:
        BUILD_COUNTS["mapped"] += 1
        self.group_by = group_by
        self.value_column = value_column
        super().__init__(population)


# ---------------------------------------------------------------------------
# Population <-> packed buffers
# ---------------------------------------------------------------------------


def _root(array: np.ndarray) -> np.ndarray:
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def _address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


def _joined(chunks: list[np.ndarray]) -> np.ndarray | list[np.ndarray]:
    """One view of ``chunks`` if they lie end to end in one array, else them.

    The chunks qualify when they are C-contiguous 1-D windows of the same
    C-contiguous root array, of one dtype, each starting where the previous
    one ends - then a window of the root spans them all, no copy made.
    """
    if len(chunks) == 1:
        return chunks[0]
    first, root = chunks[0], _root(chunks[0])
    end = _address(first)
    for chunk in chunks:
        if (
            chunk.ndim != 1
            or chunk.dtype != first.dtype
            or not chunk.flags.c_contiguous
            or _root(chunk) is not root
            or _address(chunk) != end
        ):
            return chunks
        end += chunk.nbytes
    if not root.flags.c_contiguous:
        return chunks
    lo = _address(first) - _address(root)
    flat = root.reshape(-1).view(np.uint8)
    return flat[lo : lo + end - _address(first)].view(first.dtype)


def concatenated(buffers: dict) -> dict[str, np.ndarray]:
    """``buffers`` with every chunk list joined into one array."""
    return {
        role: buffer if isinstance(buffer, np.ndarray) else np.concatenate(buffer)
        for role, buffer in buffers.items()
    }


def _offsets(sizes: list[int]) -> list[int]:
    """Where each of ``sizes``' chunks starts when laid end to end, plus the end."""
    return np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64).tolist()


def pack_population(population: Population) -> tuple[str, dict, dict] | None:
    """Pack ``population`` as ``(kind, meta, buffers)``, or None.

    Packs populations of only materialized groups (kind ``"population"``)
    or only indexed groups whose selectors expose flat bitmap words
    (:func:`base_bitvector`) and share one value column (kind
    ``"needletail"``).  Virtual (distribution-backed) groups have nothing
    to pack.  Each buffer is an array or a list of per-group chunks (see
    the module docstring).
    """
    groups = population.groups
    names = [g.name for g in groups]
    meta = {"c": float(population.c), "name": population.name}
    if all(isinstance(g, MaterializedGroup) for g in groups):
        chunks = [np.asarray(g.values, dtype=np.float64) for g in groups]
        off = _offsets([chunk.size for chunk in chunks])
        meta["groups"] = [list(spec) for spec in zip(names, off, off[1:])]
        return "population", meta, {"values": _joined(chunks)}
    if not all(isinstance(g, IndexedGroup) for g in groups):
        return None
    bases = [base_bitvector(g._selector) for g in groups]
    values = groups[0]._values
    if any(base is None for base in bases) or any(g._values is not values for g in groups):
        return None
    words = [np.asarray(base.words) for base in bases]
    cum = [
        base._cum
        if base._cum is not None
        else np.cumsum(np.bitwise_count(w).astype(np.int64))
        for base, w in zip(bases, words)
    ]
    off = _offsets([w.size for w in words])
    lengths = [len(base) for base in bases]
    meta["groups"] = [list(spec) for spec in zip(names, off, off[1:], lengths)]
    buffers = {
        "words": _joined(words),
        "cum": _joined(cum),
        "values": np.asarray(values, dtype=np.float64),
    }
    return "needletail", meta, buffers


def unpack_population(kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> Population:
    """Rebuild a packed population as views of ``arrays`` (zero-copy)."""
    try:
        values, specs, c = arrays["values"], meta["groups"], float(meta["c"])
        if kind == "needletail":
            words, cum = arrays["words"], arrays["cum"]
            groups = [
                IndexedGroup(
                    str(name),
                    BitVector.from_mapped(words[lo:hi], int(length), cum[lo:hi]),
                    values,
                )
                for name, lo, hi, length in specs
            ]
        else:
            groups = [MaterializedGroup(str(name), values[lo:hi]) for name, lo, hi in specs]
    except KeyError as exc:
        raise StorageError(f"{kind} build is missing {exc} - rebuild the store") from exc
    # Needletail builds written by earlier versions call it "population_name".
    name = meta.get("name", meta.get("population_name", "population"))
    return Population(groups=groups, c=c, name=str(name))


def pack_index(engine) -> tuple[dict, dict[str, np.ndarray]] | None:
    """A built engine's index as store ``(meta, arrays)``, or None.

    The ``"needletail"`` packing of its population, joined.  (Stores
    written before 4.0 carry one more meta key, which readers ignore.)
    """
    packed = pack_population(engine.population)
    if packed is None or packed[0] != "needletail":
        return None
    _, meta, buffers = packed
    return meta, concatenated(buffers)


def unpack_index(
    meta: dict,
    arrays: dict[str, np.ndarray],
    *,
    group_by: str,
    value_column: str,
) -> MappedNeedletailEngine:
    """Rebuild a sampling engine over mapped index segments (zero-copy)."""
    population = unpack_population("needletail", meta, arrays)
    return MappedNeedletailEngine(
        population, group_by=group_by, value_column=value_column
    )


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
