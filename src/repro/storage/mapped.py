"""The one packed layout of a population - and the way back.

A packed population is a ``(kind, meta, buffers)`` triple.  The durable
:class:`~repro.storage.store.Store` persists it as a build (one segment per
buffer), and the process executor ships it to its workers as files
(:func:`repro.engines.payload.build_shard_payloads`).  There is one kind,
``"population"``: materialized groups, one buffer ``values`` (float64, every
group's values end to end) and meta groups ``[name, lo, hi]``.  Meta also
holds ``c`` and the population ``name``.  (Stores written before 5.0 also
hold ``"needletail"`` builds - bitmap words plus the value column - which
nothing reads any more; ``Store.drop_builds(table, "needletail")`` reclaims
their space.)

Packing copies nothing it need not: when the groups' chunks already lie end
to end in one array - a segment that was unpacked, a column that
:func:`~repro.data.population.population_from_chunks` split - the buffer is
a view of that array; otherwise it is the list of chunks, which the store
joins (:func:`concatenated`) and a pool directory streams into one file.

The reverse direction, :func:`unpack_population`, builds every group as a
view of the array - zero-copy over a read-only ``np.memmap`` - so a
re-opened or worker-side population is bit-identical to the packed one.
"""

from __future__ import annotations

import numpy as np

from repro.data.population import MaterializedGroup, Population
from repro.errors import StorageError
from repro.needletail.table import Column, Table

__all__ = [
    "concatenated",
    "pack_population",
    "unpack_population",
    "pack_table",
    "unpack_table",
]


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

    Packs populations of only materialized groups (kind ``"population"``);
    virtual (distribution-backed) groups have nothing to pack.  The buffer
    is an array or a list of per-group chunks (see the module docstring).
    """
    groups = population.groups
    if not all(isinstance(g, MaterializedGroup) for g in groups):
        return None
    chunks = [np.asarray(g.values, dtype=np.float64) for g in groups]
    off = _offsets([chunk.size for chunk in chunks])
    meta = {
        "c": float(population.c),
        "name": population.name,
        "groups": [list(spec) for spec in zip([g.name for g in groups], off, off[1:])],
    }
    return "population", meta, {"values": _joined(chunks)}


def unpack_population(kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> Population:
    """Rebuild a packed population as views of ``arrays`` (zero-copy)."""
    try:
        values, specs, c = arrays["values"], meta["groups"], float(meta["c"])
        groups = [MaterializedGroup(str(name), values[lo:hi]) for name, lo, hi in specs]
    except KeyError as exc:
        raise StorageError(f"{kind} build is missing {exc} - rebuild the store") from exc
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
