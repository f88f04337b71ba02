"""Group and population abstractions.

A *population* is the full dataset the analyst's query runs over: k groups
(one per distinct value of the group-by attribute X), each a multiset S_i of
n_i values of the aggregated attribute Y, all within [0, c].

Two group representations:

* :class:`MaterializedGroup` - the n_i values exist as a numpy array.  This is
  the faithful representation; sampling without replacement is a true random
  permutation of the array, and the group's true mean is the empirical mean of
  the array.  Used for populations up to ~1e7 values.
* :class:`VirtualGroup` - the group is *defined* by a generating distribution
  and a nominal size n_i; draws come from the distribution.  This is the
  documented substitution for the paper's 1e8-1e10-row on-disk tables (see
  DESIGN.md section 4): for m << n_i, with/without-replacement draws are
  statistically indistinguishable, and a group that is sampled to exhaustion
  (m = n_i) is finalized at its analytic mean, exactly as a full scan of the
  group would be.

Both kinds expose a per-run :class:`GroupSampler` so repeated algorithm runs
over one population draw independent samples.

Fused block sampling
--------------------

Batched executors ask the engine for a whole ``(count, k_active)`` matrix at
once (:meth:`repro.engines.base.EngineRun.draw_block`).  To serve that without
one Python call per group, sampler classes may provide a *block kernel* via
:meth:`GroupSampler.make_block_kernel`:

* :class:`_ColumnarPermutations` - materialized without-replacement groups
  store their per-run permutations in one contiguous ``perm_flat`` array
  (lazily materialized per group from the group's own stream), so a batch is
  a single fancy-index gather across all active groups.  Bit-exact with the
  sequential per-group path: the permutation of each group is produced by
  exactly the same ``rng.permutation`` call.
* :class:`_VirtualBlockKernel` - virtual groups whose distribution is
  ``fusable`` (an elementwise inverse-CDF transform of uniforms) share one
  stream: ``rng.random((groups, count))`` plus one vectorized transform per
  distribution family.  Row ``j`` of the uniform matrix is exactly what the
  ``j``-th sequential single-group draw would have consumed, so fused and
  sequential draws are bit-identical.  Non-fusable distributions (rejection
  samplers) keep their per-group streams and per-group draws.

Materialized *with*-replacement samplers intentionally have no fused kernel:
their draws must consume each group's own stream to stay bit-exact with the
reference executor, so they use the engine's generic per-column fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.distributions import Distribution

__all__ = [
    "GroupSampler",
    "Group",
    "MaterializedGroup",
    "VirtualGroup",
    "Population",
    "BlockKernel",
]


class GroupSampler:
    """A per-run sampling stream for one group.

    ``draw(count)`` returns the next ``count`` samples of the stream.  For
    without-replacement materialized groups the stream is a fixed uniform
    random permutation of the group's values, so "the first m draws" is
    exactly "a uniform m-subset in random order" - and pre-drawing samples
    that a batched executor later discards does not disturb the semantics.
    """

    def __init__(self, size: int) -> None:
        self._size = int(size)
        self._consumed = 0

    @property
    def size(self) -> int:
        return self._size

    @property
    def consumed(self) -> int:
        return self._consumed

    def draw(self, count: int) -> np.ndarray:
        raise NotImplementedError

    @classmethod
    def make_block_kernel(
        cls, samplers: list["GroupSampler"], gids: np.ndarray
    ) -> "BlockKernel | None":
        """Build a fused multi-group kernel for samplers of this class.

        ``None`` (the default) means the engine falls back to drawing the
        groups one column at a time through :meth:`draw`.
        """
        return None


class BlockKernel:
    """A fused drawing plan for a fixed set of same-kind group samplers.

    ``draw_into(out, cols, gids, count)`` fills ``out[:, cols]`` with the next
    ``count`` samples of each group in ``gids`` (parallel to ``cols``).
    Kernels own whatever shared per-run state the fusion needs; samplers they
    *bind* delegate their single-group ``draw`` to the same state so the
    per-group and fused paths can be interleaved freely.
    """

    def __init__(self, gids: np.ndarray) -> None:
        # Dense gid -> local-slot map; kernels are per-run and k-bounded.
        self._slot_of = np.full(int(gids.max()) + 1, -1, dtype=np.int64)
        self._slot_of[gids] = np.arange(gids.size)

    def slots(self, gids: np.ndarray) -> np.ndarray:
        return self._slot_of[gids]

    def draw_into(
        self, out: np.ndarray, cols: np.ndarray, gids: np.ndarray, count: int
    ) -> None:
        raise NotImplementedError

    def draw_matrix(self, gids: np.ndarray, count: int) -> np.ndarray:
        """Draw a fresh ``(count, len(gids))`` matrix for all of ``gids``.

        Used when one kernel covers the whole request; kernels whose fused
        draw already produces a fresh matrix override this to skip the copy
        into a preallocated output.
        """
        out = np.empty((count, gids.size), dtype=np.float64)
        self.draw_into(out, np.arange(gids.size, dtype=np.int64), gids, count)
        return out


class _ColumnarPermutations(BlockKernel):
    """Per-run columnar store of without-replacement permutations.

    One contiguous float64 buffer holds every group's permuted values at
    ``offsets[slot] : offsets[slot] + size[slot]``; a fused draw of ``count``
    rounds from m active groups is one fancy-index gather of shape
    ``(count, m)``.  Permutations are materialized lazily, each from its
    group's own independent stream, which keeps the values bit-identical to
    the sequential per-group sampler.
    """

    def __init__(self, samplers: list["_MaterializedWithoutReplacement"], gids: np.ndarray) -> None:
        super().__init__(gids)
        # The samplers' columns and streams, not the samplers: they point
        # back here once bound, and that cycle would keep this run's buffer
        # alive until a cyclic GC - unbounded growth in a long-lived worker.
        self._columns = [s._values for s in samplers]
        self._rngs = [s._rng for s in samplers]
        self._sizes = np.array([s.size for s in samplers], dtype=np.int64)
        self._offsets = np.zeros(len(samplers) + 1, dtype=np.int64)
        np.cumsum(self._sizes, out=self._offsets[1:])
        self._perm_flat = np.empty(int(self._offsets[-1]), dtype=np.float64)
        self._filled = False
        self._ready = np.zeros(len(samplers), dtype=bool)
        self.consumed = np.zeros(len(samplers), dtype=np.int64)
        for slot, sampler in enumerate(samplers):
            sampler._bind(self, slot)

    def _ensure(self, slots: np.ndarray) -> None:
        missing = slots[~self._ready[slots]]
        if missing.size == 0:
            return
        if not self._filled:
            # One vectorized copy of the columnar values; the per-group
            # in-place shuffle below then consumes each group's stream
            # exactly like ``rng.permutation(values)`` (numpy's permutation
            # is copy-then-shuffle, asserted in the test suite).
            np.concatenate(self._columns, out=self._perm_flat)
            self._filled = True
        for slot in missing:
            slot = int(slot)
            lo, hi = int(self._offsets[slot]), int(self._offsets[slot + 1])
            self._rngs[slot].shuffle(self._perm_flat[lo:hi])
            self._ready[slot] = True

    def _check_capacity(self, slots: np.ndarray, count: int) -> None:
        over = self.consumed[slots] + count > self._sizes[slots]
        if np.any(over):
            slot = int(slots[np.argmax(over)])
            raise ValueError(
                f"group exhausted: requested {count} more samples after "
                f"{int(self.consumed[slot])} of {int(self._sizes[slot])}"
            )

    def draw_one(self, slot: int, count: int) -> np.ndarray:
        """Sequential single-group draw (read-only view of the permutation)."""
        slots = np.array([slot], dtype=np.int64)
        self._ensure(slots)
        self._check_capacity(slots, count)
        start = int(self._offsets[slot] + self.consumed[slot])
        out = self._perm_flat[start : start + count].view()
        out.flags.writeable = False
        self.consumed[slot] += count
        return out

    def _gather(self, slots: np.ndarray, count: int) -> np.ndarray:
        self._ensure(slots)
        self._check_capacity(slots, count)
        starts = self._offsets[slots] + self.consumed[slots]
        # One gather for the whole batch across all active groups.
        block = self._perm_flat[
            starts[None, :] + np.arange(count, dtype=np.int64)[:, None]
        ]
        self.consumed[slots] += count
        return block

    def draw_into(
        self, out: np.ndarray, cols: np.ndarray, gids: np.ndarray, count: int
    ) -> None:
        out[:, cols] = self._gather(self.slots(gids), count)

    def draw_matrix(self, gids: np.ndarray, count: int) -> np.ndarray:
        return self._gather(self.slots(gids), count)


class _VirtualBlockKernel(BlockKernel):
    """Family-batched sampling for distribution-backed groups.

    All fusable groups share one uniform stream (the stream of the first
    fusable group): a fused draw of ``count`` samples from m groups consumes
    ``rng.random((m, count))`` - row ``j`` is exactly the chunk the ``j``-th
    sequential single-group draw would consume, so fused and sequential draws
    are bit-identical.  Each distribution family transforms its rows with one
    vectorized inverse-CDF expression.  Non-fusable samplers (rejection-based
    distributions) keep their own streams and per-group ``draw``.
    """

    def __init__(self, samplers: list["_VirtualSampler"], gids: np.ndarray) -> None:
        super().__init__(gids)
        self._fused = np.array([s._dist.fusable for s in samplers], dtype=bool)
        # Only the unbound (non-fusable) samplers: bound ones point back
        # here, and holding them would make every run a reference cycle.
        self._unfused = {
            slot: s for slot, s in enumerate(samplers) if not self._fused[slot]
        }
        self.consumed = np.zeros(len(samplers), dtype=np.int64)
        fused_slots = np.flatnonzero(self._fused)
        self._rng = samplers[int(fused_slots[0])]._rng if fused_slots.size else None
        # family type -> (transformer, family-local index per slot)
        self._family_of = np.full(len(samplers), -1, dtype=np.int64)
        self._fam_index = np.zeros(len(samplers), dtype=np.int64)
        self._transformers: list = []
        by_type: dict[type, list[int]] = {}
        for slot in fused_slots:
            by_type.setdefault(type(samplers[int(slot)]._dist), []).append(int(slot))
        for dist_cls, slots in by_type.items():
            fam = len(self._transformers)
            dists = [samplers[s]._dist for s in slots]
            self._transformers.append(dist_cls.block_transformer(dists))
            for j, s in enumerate(slots):
                self._family_of[s] = fam
                self._fam_index[s] = j
        for slot in fused_slots:
            samplers[int(slot)]._bind(self, int(slot))

    def draw_one(self, slot: int, count: int) -> np.ndarray:
        """Sequential draw for one bound (fusable) group."""
        u = self._rng.random((1, count))
        fam = int(self._family_of[slot])
        idx = self._fam_index[slot : slot + 1]
        self.consumed[slot] += count
        return self._transformers[fam](u, idx)[0]

    def draw_into(
        self, out: np.ndarray, cols: np.ndarray, gids: np.ndarray, count: int
    ) -> None:
        slots = self.slots(gids)
        fused = self._fused[slots]
        if fused.any():
            fslots = slots[fused]
            fcols = cols[fused]
            # One RNG call serves every fusable group in this batch; rows are
            # handed to each family's vectorized transform.
            u = self._rng.random((fslots.size, count))
            fams = self._family_of[fslots]
            for fam in np.unique(fams):
                rows = np.flatnonzero(fams == fam)
                vals = self._transformers[int(fam)](
                    u[rows], self._fam_index[fslots[rows]]
                )
                out[:, fcols[rows]] = vals.T
            self.consumed[fslots] += count
        if not fused.all():
            for slot, col in zip(slots[~fused], cols[~fused]):
                out[:, col] = self._unfused[int(slot)].draw(count)


class _MaterializedWithReplacement(GroupSampler):
    def __init__(self, values: np.ndarray, rng: np.random.Generator) -> None:
        super().__init__(values.shape[0])
        self._values = values
        self._rng = rng

    def draw(self, count: int) -> np.ndarray:
        idx = self._rng.integers(0, self._values.shape[0], size=count)
        self._consumed += count
        return self._values[idx]


class _MaterializedWithoutReplacement(GroupSampler):
    """Without-replacement stream: a lazily materialized random permutation.

    Standalone (unbound) samplers keep a private permutation; samplers bound
    to a :class:`_ColumnarPermutations` kernel delegate to its shared
    columnar buffer so sequential and fused draws advance the same state.
    ``draw`` returns a *read-only* view - a caller mutating the returned
    block would otherwise silently corrupt every later draw of the run.
    """

    def __init__(self, values: np.ndarray, rng: np.random.Generator) -> None:
        super().__init__(values.shape[0])
        self._values = values
        self._rng = rng
        self._perm: np.ndarray | None = None
        self._store: _ColumnarPermutations | None = None
        self._slot = -1

    def _bind(self, store: _ColumnarPermutations, slot: int) -> None:
        self._store = store
        self._slot = slot

    @property
    def consumed(self) -> int:
        if self._store is not None:
            return int(self._store.consumed[self._slot])
        return self._consumed

    def draw(self, count: int) -> np.ndarray:
        if self._store is not None:
            return self._store.draw_one(self._slot, count)
        if self._perm is None:
            self._perm = self._rng.permutation(self._values)
        end = self._consumed + count
        if end > self._perm.shape[0]:
            raise ValueError(
                f"group exhausted: requested {count} more samples after "
                f"{self._consumed} of {self._perm.shape[0]}"
            )
        out = self._perm[self._consumed : end].view()
        out.flags.writeable = False
        self._consumed = end
        return out

    @classmethod
    def make_block_kernel(
        cls, samplers: list[GroupSampler], gids: np.ndarray
    ) -> BlockKernel | None:
        return _ColumnarPermutations(samplers, gids)  # type: ignore[arg-type]


class _VirtualSampler(GroupSampler):
    def __init__(self, dist: Distribution, size: int, rng: np.random.Generator) -> None:
        super().__init__(size)
        self._dist = dist
        self._rng = rng
        self._store: _VirtualBlockKernel | None = None
        self._slot = -1

    def _bind(self, store: _VirtualBlockKernel, slot: int) -> None:
        self._store = store
        self._slot = slot

    @property
    def consumed(self) -> int:
        if self._store is not None:
            return int(self._store.consumed[self._slot])
        return self._consumed

    def draw(self, count: int) -> np.ndarray:
        if self._store is not None:
            return self._store.draw_one(self._slot, count)
        self._consumed += count
        return self._dist.sample(self._rng, count)

    @classmethod
    def make_block_kernel(
        cls, samplers: list[GroupSampler], gids: np.ndarray
    ) -> BlockKernel | None:
        return _VirtualBlockKernel(samplers, gids)  # type: ignore[arg-type]


class Group:
    """Abstract group S_i: a named multiset of n_i bounded values."""

    name: str

    @property
    def size(self) -> int:
        raise NotImplementedError

    @property
    def true_mean(self) -> float:
        """The population average mu_i (ground truth for evaluation)."""
        raise NotImplementedError

    def sampler(self, rng: np.random.Generator, without_replacement: bool) -> GroupSampler:
        """Open a fresh sampling stream over this group."""
        raise NotImplementedError


class MaterializedGroup(Group):
    """A group whose values are held in memory as a numpy array."""

    def __init__(self, name: str, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or values.shape[0] == 0:
            raise ValueError(f"group {name!r} needs a non-empty 1-D value array")
        self.name = str(name)
        self.values = values
        self._mean = float(values.mean())

    @property
    def size(self) -> int:
        return int(self.values.shape[0])

    @property
    def true_mean(self) -> float:
        return self._mean

    def sampler(self, rng: np.random.Generator, without_replacement: bool) -> GroupSampler:
        if without_replacement:
            return _MaterializedWithoutReplacement(self.values, rng)
        return _MaterializedWithReplacement(self.values, rng)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MaterializedGroup({self.name!r}, n={self.size}, mean={self._mean:.4g})"


class VirtualGroup(Group):
    """A distribution-backed group with a nominal size.

    Draws are with replacement from the generating distribution regardless of
    the requested mode; the nominal size still drives the finite-population
    epsilon and the exhaustion rule.  See DESIGN.md section 4 for why this
    substitution preserves the paper's behaviour.
    """

    def __init__(self, name: str, dist: Distribution, size: int) -> None:
        if size <= 0:
            raise ValueError(f"group {name!r} needs size >= 1, got {size}")
        self.name = str(name)
        self.dist = dist
        self._size = int(size)

    @property
    def size(self) -> int:
        return self._size

    @property
    def true_mean(self) -> float:
        return self.dist.mean

    def sampler(self, rng: np.random.Generator, without_replacement: bool) -> GroupSampler:
        return _VirtualSampler(self.dist, self._size, rng)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualGroup({self.name!r}, n={self._size}, mean={self.true_mean:.4g})"


@dataclass
class Population:
    """A named collection of groups plus the value bound c.

    This is the dataset object every engine wraps.  ``c`` is the upper bound
    of the value domain [0, c] that the confidence intervals scale with
    (paper Section 2.1: e.g. flight delays bounded by 24 hours).
    """

    groups: list[Group]
    c: float
    name: str = "population"

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("a population needs at least one group")
        if self.c <= 0:
            raise ValueError(f"value bound c must be > 0, got {self.c}")
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise ValueError("group names must be unique")

    @property
    def k(self) -> int:
        return len(self.groups)

    @property
    def group_names(self) -> list[str]:
        return [g.name for g in self.groups]

    def sizes(self) -> np.ndarray:
        return np.array([g.size for g in self.groups], dtype=np.int64)

    @property
    def total_size(self) -> int:
        return int(self.sizes().sum())

    def true_means(self) -> np.ndarray:
        return np.array([g.true_mean for g in self.groups], dtype=np.float64)

    def eta(self) -> np.ndarray:
        """Minimal distances eta_i = min_{j != i} |mu_i - mu_j| (Table 2)."""
        mu = self.true_means()
        if self.k == 1:
            return np.array([np.inf])
        dist = np.abs(mu[:, None] - mu[None, :])
        np.fill_diagonal(dist, np.inf)
        return dist.min(axis=1)

    def difficulty(self) -> float:
        """The paper's difficulty proxy c^2 / eta^2 with eta = min_i eta_i."""
        eta = float(self.eta().min())
        if eta == 0.0:
            return float("inf")
        return (self.c / eta) ** 2

    @classmethod
    def from_arrays(
        cls, names: Sequence[str], arrays: Sequence[np.ndarray], c: float, name: str = "population"
    ) -> "Population":
        """Build a fully materialized population from parallel name/array lists."""
        if len(names) != len(arrays):
            raise ValueError("names and arrays must have the same length")
        groups: list[Group] = [MaterializedGroup(n, a) for n, a in zip(names, arrays)]
        return cls(groups=groups, c=c, name=name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Population({self.name!r}, k={self.k}, N={self.total_size}, c={self.c})"
