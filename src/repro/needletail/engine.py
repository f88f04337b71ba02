"""NEEDLETAIL: the bitmap-indexed sampling engine (paper Section 4).

The engine wraps a row-store :class:`~repro.needletail.table.Table`, builds a
:class:`~repro.needletail.index.BitmapIndex` on the group-by attribute, and
exposes the standard :class:`~repro.engines.base.SamplingEngine` interface:
every sample is a genuine index operation - pick a uniform rank within the
group's (optionally predicate-restricted) bitmap, *select* the rowid through
the hierarchical bitmap, and fetch the value from the row store.  Sampling
without replacement uses a per-run random permutation of ranks, so the first
m draws are exactly a uniform m-subset.

Runs count charged samples only; the paper's simulated I/O and CPU seconds
are priced from those counts by :mod:`repro.experiments.costmodel`.

Sharding: a NEEDLETAIL engine partitions cleanly under
:class:`~repro.engines.sharded.ShardedEngine` because draw-time state is
per group - each :class:`IndexedGroup` owns its selector bitmap, and lazy
structures (the :class:`~repro.needletail.bitvector.BitVector` select
directory, the cached ``true_mean``) are built inside the one shard thread
that owns the group.  The row-store value column is shared across shards
read-only.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.data.population import BlockKernel, Group, GroupSampler, Population
from repro.engines.base import SamplingEngine
from repro.needletail.bitvector import BitVector
from repro.needletail.index import BitmapIndex
from repro.needletail.table import Table

__all__ = ["IndexedGroup", "NeedletailEngine", "base_bitvector", "BUILD_COUNTS"]

#: Process-wide instrumentation: how many bitmap-index engines were built
#: from scratch ("needletail": a full BitmapIndex construction over the row
#: store) versus opened from memory-mapped storage segments ("mapped", see
#: :mod:`repro.storage`).  The durable-storage tests assert a warm re-open
#: serves queries with *zero* new "needletail" builds - O(1) across
#: restarts, no index rebuild.
BUILD_COUNTS = {"needletail": 0, "mapped": 0}


def base_bitvector(selector) -> BitVector | None:
    """The flat :class:`BitVector` under a selector, or ``None``.

    The one definition of the "has flat bitmap words" predicate: the fused
    select kernel gates fusion on it, and :mod:`repro.engines.payload` gates
    process-shareability on it - the two must never drift.
    """
    base = getattr(selector, "bits", selector)
    return base if isinstance(base, BitVector) else None


class _FusedSelect:
    """One offset-adjusted batched select over many groups' bitmaps.

    The groups' flat bitmap words are concatenated (word-aligned) into one
    long :class:`BitVector`, so a multi-group select becomes a *single*
    vectorized ``select_many``: group j's rank ``r`` maps to combined rank
    ``r + set_offset[j]``, and the combined position maps back to a rowid by
    subtracting ``64 * word_offset[j]``.  Bit-exact with per-group selects -
    each group's word range holds exactly its own bits (tails are already
    masked), so positions and ranks never cross group boundaries.

    The concatenation copies the bitmap words once per *engine* (selectors
    are immutable engine-level state, so the structure is cached across runs
    in ``_FUSED_CACHE``, built lazily on the first fused draw) - the trade
    the fused-sampling fast paths make everywhere: one up-front vectorized
    build buys the removal of a Python-level call per group per batch.
    """

    def __init__(self, selectors: list) -> None:
        bases = [base_bitvector(sel) for sel in selectors]
        self.ok = all(base is not None for base in bases)
        if not self.ok:
            return
        words = [np.asarray(base.words) for base in bases]
        word_counts = np.array([w.shape[0] for w in words], dtype=np.int64)
        set_counts = np.array([base.count() for base in bases], dtype=np.int64)
        self._word_offsets = np.zeros(len(bases), dtype=np.int64)
        np.cumsum(word_counts[:-1], out=self._word_offsets[1:])
        self._set_offsets = np.zeros(len(bases), dtype=np.int64)
        np.cumsum(set_counts[:-1], out=self._set_offsets[1:])
        combined_words = np.concatenate(words)
        self._combined = BitVector(combined_words, combined_words.shape[0] * 64)

    def select(self, slots: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """Rowids for ``ranks`` (shape ``(m, count)``, row j = slot j's ranks)."""
        adjusted = ranks + self._set_offsets[slots][:, None]
        positions = self._combined.select_many(adjusted.reshape(-1))
        return positions.reshape(ranks.shape) - 64 * self._word_offsets[slots][:, None]


#: Engine-level cache of combined select structures: first IndexedGroup ->
#: (selector list, _FusedSelect).  Weak keys tie each entry's lifetime to
#: its engine's groups; see ``_IndexedBlockKernel._fused_select``.
_FUSED_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class _IndexedBlockKernel(BlockKernel):
    """Fused rank -> select -> fetch for a batch of indexed groups.

    Rank streams stay per group (each group owns its permutation), but both
    halves of the retrieval fuse: all groups' ranks concatenate into one
    offset-adjusted batched select over the combined bitmap
    (:class:`_FusedSelect` - one ``select_many`` per batch instead of one
    Python-level call per group), and the row-store fetch is one gather
    (every group of an engine shares the same value column, so the
    ``(count, m)`` rowid matrix indexes it in one go).  Bit-exact with
    per-group draws - identical ranks, selects, and values, asserted in
    tests - with a per-group fallback for selectors without flat words.
    """

    def __init__(self, samplers: list[GroupSampler], gids: np.ndarray) -> None:
        super().__init__(gids)
        self._samplers = samplers
        self._values = samplers[0]._group._values  # type: ignore[attr-defined]
        self._shared_values = all(
            s._group._values is self._values for s in samplers  # type: ignore[attr-defined]
        )
        self._fused: _FusedSelect | None = None  # resolved on first fused draw

    def _fused_select(self) -> _FusedSelect:
        """The combined select structure, cached per engine across runs.

        Selectors live on the engine's :class:`IndexedGroup` objects and
        never change, so the (word-copying) concatenation is paid once per
        group set, not once per run.  The cache is keyed weakly by the
        first group and stores the selector list alongside the structure,
        so it can only be reused for the identical selectors (entries die
        with their engine; the strong selector refs inside share the
        group's lifetime anyway).
        """
        if self._fused is not None:
            return self._fused
        group0 = self._samplers[0]._group  # type: ignore[attr-defined]
        selectors = [s._group._selector for s in self._samplers]  # type: ignore[attr-defined]
        cached = _FUSED_CACHE.get(group0)
        if cached is not None:
            cached_selectors, fused = cached
            if len(cached_selectors) == len(selectors) and all(
                a is b for a, b in zip(cached_selectors, selectors)
            ):
                self._fused = fused
                return fused
        fused = _FusedSelect(selectors)
        _FUSED_CACHE[group0] = (selectors, fused)
        self._fused = fused
        return fused

    def draw_into(
        self, out: np.ndarray, cols: np.ndarray, gids: np.ndarray, count: int
    ) -> None:
        slots = self.slots(gids)
        fused = self._fused_select() if self._shared_values else None
        if fused is None or not fused.ok:
            for slot, col in zip(slots, cols):
                out[:, col] = self._samplers[int(slot)].draw(count)
            return
        ranks = np.empty((cols.size, count), dtype=np.int64)
        for j, slot in enumerate(slots):
            sampler = self._samplers[int(slot)]
            ranks[j] = sampler._next_ranks(count)  # type: ignore[attr-defined]
        rowids = fused.select(slots, ranks)
        out[:, cols] = self._values[rowids.T]


class _IndexedWithoutReplacement(GroupSampler):
    def __init__(self, group: "IndexedGroup", rng: np.random.Generator) -> None:
        super().__init__(group.size)
        self._group = group
        self._perm = rng.permutation(group.size)

    def _next_ranks(self, count: int) -> np.ndarray:
        end = self._consumed + count
        if end > self._perm.shape[0]:
            raise ValueError(
                f"group {self._group.name!r} exhausted: requested {count} more "
                f"samples after {self._consumed} of {self._perm.shape[0]}"
            )
        ranks = self._perm[self._consumed : end]
        self._consumed = end
        return ranks

    def draw(self, count: int) -> np.ndarray:
        return self._group.fetch_by_rank(self._next_ranks(count))

    @classmethod
    def make_block_kernel(
        cls, samplers: list[GroupSampler], gids: np.ndarray
    ) -> BlockKernel | None:
        return _IndexedBlockKernel(samplers, gids)


class _IndexedWithReplacement(GroupSampler):
    def __init__(self, group: "IndexedGroup", rng: np.random.Generator) -> None:
        super().__init__(group.size)
        self._group = group
        self._rng = rng

    def _next_ranks(self, count: int) -> np.ndarray:
        self._consumed += count
        return self._rng.integers(0, self._group.size, size=count)

    def draw(self, count: int) -> np.ndarray:
        return self._group.fetch_by_rank(self._next_ranks(count))

    @classmethod
    def make_block_kernel(
        cls, samplers: list[GroupSampler], gids: np.ndarray
    ) -> BlockKernel | None:
        return _IndexedBlockKernel(samplers, gids)


class IndexedGroup(Group):
    """A group backed by a bitmap (value bitmap, optionally AND predicate).

    ``fetch_by_rank`` is the NEEDLETAIL retrieval path: rank -> select ->
    rowid -> row-store fetch.
    """

    def __init__(self, name: str, selector, values: np.ndarray) -> None:
        self.name = str(name)
        self._selector = selector  # HierarchicalBitmap or BitVector
        self._values = values
        self._size = int(selector.count())
        if self._size == 0:
            raise ValueError(f"group {name!r} matches no rows")
        self._mean: float | None = None

    @property
    def size(self) -> int:
        return self._size

    @property
    def true_mean(self) -> float:
        if self._mean is None:
            rowids = self._all_rowids()
            self._mean = float(self._values[rowids].mean())
        return self._mean

    def _all_rowids(self) -> np.ndarray:
        bits = self._selector.bits if hasattr(self._selector, "bits") else self._selector
        return bits.set_positions()

    def fetch_by_rank(self, ranks: np.ndarray) -> np.ndarray:
        """Values of the rows at the given ranks within the group's bitmap."""
        rowids = self._selector.select_many(np.asarray(ranks, dtype=np.int64))
        return np.asarray(self._values[rowids], dtype=np.float64)

    def sampler(self, rng: np.random.Generator, without_replacement: bool) -> GroupSampler:
        if without_replacement:
            return _IndexedWithoutReplacement(self, rng)
        return _IndexedWithReplacement(self, rng)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IndexedGroup({self.name!r}, n={self._size})"


class NeedletailEngine(SamplingEngine):
    """Sampling engine over a table with a bitmap index on the group-by column."""

    def __init__(
        self,
        table: Table,
        group_by: str,
        value_column: str,
        c: float | None = None,
        predicate: BitVector | None = None,
        fanout: int = 64,
    ) -> None:
        """Args:
            table: the row-store relation.
            group_by: indexed attribute X.
            value_column: aggregated attribute Y (values must lie in [0, c]).
            c: value upper bound; inferred from the column when omitted
                (metadata a real system would know, e.g. delays <= 24h).
            predicate: optional row bitmap (WHERE clause) restricting every
                group (Section 6.3.3).
            fanout: hierarchical bitmap fanout.
        """
        BUILD_COUNTS["needletail"] += 1
        values = np.asarray(table.column(value_column), dtype=np.float64)
        if c is None:
            c = float(values.max()) if values.size else 1.0
            c = max(c, 1e-9)
        self.table = table
        self.group_by = group_by
        self.value_column = value_column
        self.index = BitmapIndex(table, group_by, fanout=fanout)
        self.predicate = predicate

        groups: list[Group] = []
        for key in self.index.keys:
            if predicate is None:
                selector = self.index.bitmap_for(key)
            else:
                selector = self.index.restricted_bitvector(key, predicate)
            if selector.count() == 0:
                continue  # no rows satisfy the predicate for this group
            groups.append(IndexedGroup(str(key), selector, values))
        if not groups:
            raise ValueError("no group matches the predicate")
        population = Population(groups=groups, c=float(c), name=table.name)
        super().__init__(population)

    def index_storage_bytes(self, compressed: bool = True) -> int:
        """Footprint of the group-by bitmap index."""
        return self.index.storage_bytes(compressed=compressed)
