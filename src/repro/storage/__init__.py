"""Durable storage tier: mmap'd population segments + a persistent catalog.

Three layers, bottom-up:

* :mod:`repro.storage.segment` - the on-disk format for exactly one ndarray
  (versioned header, crc32, 64-byte-aligned payload, atomic temp-file +
  rename writes, zero-copy ``np.memmap`` reads);
* :mod:`repro.storage.store` - a directory of segments plus a SQLite (WAL)
  catalog of table bindings and cached builds, keyed the same way the
  in-memory :class:`~repro.catalog.Catalog` keys its caches;
* :mod:`repro.storage.mapped` / :mod:`repro.storage.durable` - the
  serializers between populations/tables and segment arrays, and the
  :class:`DurableCatalog` that answers cache lookups from disk (O(1)
  re-open across restarts, bit-identical query results).

Open a durable session with ``repro.connect(store="path/to/store")``;
maintain a store with ``repro store build|ls|verify|gc``.
"""

from repro.storage.durable import DurableCatalog
from repro.storage.mapped import (
    pack_population,
    pack_table,
    unpack_population,
    unpack_table,
)
from repro.storage.segment import (
    FORMAT_VERSION,
    MAGIC,
    SegmentInfo,
    read_segment,
    verify_segment,
    write_segment,
)
from repro.storage.store import STORE_FORMAT_VERSION, Store

__all__ = [
    "DurableCatalog",
    "Store",
    "STORE_FORMAT_VERSION",
    "pack_population",
    "unpack_population",
    "pack_table",
    "unpack_table",
    "MAGIC",
    "FORMAT_VERSION",
    "SegmentInfo",
    "write_segment",
    "read_segment",
    "verify_segment",
]
