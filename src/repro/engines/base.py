"""Sampling-engine protocol shared by every engine.

An *engine* wraps a :class:`~repro.data.population.Population` and provides
per-run sampling streams plus sample accounting.  The paper's setting (Section
2.1) assumes "an engine that allows us to efficiently retrieve random samples
from R corresponding to different values of X" at uniform cost per sample;
:class:`repro.engines.memory.InMemoryEngine` is the pure version of that, and
:class:`repro.needletail.engine.NeedletailEngine` builds the same kind of
population from a row-store table (grouped by a stable sort, so a group's
rank r is its r-th row, as the §4 bitmap select would find it).  Every
planner door - ``memory``, ``needletail``, ``noindex`` - samples a
population of materialized groups through the one columnar kernel.

Accounting is *explicit* and counts only: algorithms call
``run.draw(gid, count)`` to obtain sample values (uncharged - batched
executors may discard a pre-drawn suffix) and then ``run.charge(gid, count)``
for the samples actually consumed by the algorithm.  Only charged samples
appear in :class:`RunStats`.  The paper's simulated runtimes are a function
of those counts, priced by the experiments (:mod:`repro.experiments.costmodel`).

The fused fast path: ``run.draw_block(active_idx, count)`` returns a
``(count, k_active)`` matrix in one call, served by per-sampler-kind block
kernels (see :mod:`repro.data.population`), and ``run.charge_block`` accounts
for a whole batch of consumed samples at once.  Both are semantically
identical to the per-group loops they replace - ``draw_block`` is bit-exact
for every sampler kind - so executors can adopt them without changing
results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import spawn_group_rngs
from repro.data.population import BlockKernel, GroupSampler, Population

__all__ = ["RunStats", "EngineRun", "SamplingEngine"]


@dataclass
class RunStats:
    """Charged work for one algorithm run."""

    samples_per_group: np.ndarray
    scanned_rows: int = 0

    @property
    def total_samples(self) -> int:
        return int(self.samples_per_group.sum())

    def merge(self, other: "RunStats") -> "RunStats":
        """Combine two runs' accounting (used by multi-phase algorithms)."""
        return RunStats(
            samples_per_group=self.samples_per_group + other.samples_per_group,
            scanned_rows=self.scanned_rows + other.scanned_rows,
        )


class _SequentialBlockKernel(BlockKernel):
    """Fallback kernel: per-column draws, no ``np.stack`` temporaries.

    Used for sampler kinds without a fused implementation (e.g. materialized
    with-replacement streams, whose bit-exactness requires one RNG call per
    group stream).
    """

    def __init__(self, samplers: list[GroupSampler], gids: np.ndarray) -> None:
        super().__init__(gids)
        self._samplers = samplers

    def draw_into(
        self, out: np.ndarray, cols: np.ndarray, gids: np.ndarray, count: int
    ) -> None:
        slots = self.slots(gids)
        for slot, col in zip(slots, cols):
            out[:, col] = self._samplers[int(slot)].draw(count)


def _build_block_kernels(
    samplers: list[GroupSampler],
) -> tuple[list[BlockKernel], np.ndarray]:
    """Partition samplers by class and build one block kernel per kind."""
    kind_of = np.zeros(len(samplers), dtype=np.int64)
    kernels: list[BlockKernel] = []
    by_cls: dict[type, list[int]] = {}
    for gid, sampler in enumerate(samplers):
        by_cls.setdefault(type(sampler), []).append(gid)
    for cls, gids in by_cls.items():
        gid_arr = np.asarray(gids, dtype=np.int64)
        subs = [samplers[g] for g in gids]
        kernel = cls.make_block_kernel(subs, gid_arr)
        if kernel is None:
            kernel = _SequentialBlockKernel(subs, gid_arr)
        kind_of[gid_arr] = len(kernels)
        kernels.append(kernel)
    return kernels, kind_of


class EngineRun:
    """One algorithm run's view of the engine: streams + sample counts.

    Concurrency contract: a run is *single-consumer* - its samplers and
    stats are mutable state owned by the one query driving it.  Runs share
    no sampling state with each other, so concurrent runs over one engine
    need no locks.  The sharded backend
    (:class:`repro.engines.sharded.ShardedRun`) parallelizes *within* one
    run by giving each shard its own private ``EngineRun``.
    """

    def __init__(
        self,
        population: Population,
        samplers: list[GroupSampler],
    ) -> None:
        self._population = population
        self._samplers = samplers
        self._kernels, self._kind_of = _build_block_kernels(samplers)
        self.stats = RunStats(samples_per_group=np.zeros(population.k, dtype=np.int64))

    @property
    def k(self) -> int:
        return self._population.k

    @property
    def c(self) -> float:
        return self._population.c

    def sizes(self) -> np.ndarray:
        return self._population.sizes()

    def group_names(self) -> list[str]:
        return self._population.group_names

    def draw(self, gid: int, count: int) -> np.ndarray:
        """Next ``count`` samples of group ``gid``'s stream (uncharged)."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count == 0:
            return np.empty(0, dtype=np.float64)
        return self._samplers[gid].draw(count)

    def draw_block(self, gids: np.ndarray, count: int) -> np.ndarray:
        """Next ``count`` samples of every group in ``gids``, as one matrix.

        Returns a float64 array of shape ``(count, len(gids))`` whose column
        ``j`` holds exactly the values ``draw(gids[j], count)`` would have
        returned - the fused kernels are bit-exact with the sequential
        per-group path for every sampler kind.  Uncharged, like ``draw``.
        ``gids`` must not contain duplicates (a duplicated group would
        receive the same stream chunk twice and desync its consumed count).
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        gids = np.asarray(gids, dtype=np.int64)
        if count == 0 or gids.size == 0:
            return np.empty((count, gids.size), dtype=np.float64)
        if len(self._kernels) == 1:
            return self._kernels[0].draw_matrix(gids, count)
        out = np.empty((count, gids.size), dtype=np.float64)
        kinds = self._kind_of[gids]
        for kid in np.unique(kinds):
            cols = np.flatnonzero(kinds == kid)
            self._kernels[int(kid)].draw_into(out, cols, gids[cols], count)
        return out

    def charge(self, gid: int, count: int) -> None:
        """Account for ``count`` samples of group ``gid`` actually consumed."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count == 0:
            return
        self.stats.samples_per_group[gid] += count

    def charge_block(self, gids: np.ndarray, count: int) -> None:
        """Vectorized ``charge``: ``count`` consumed samples per group in ``gids``.

        Identical to ``for g in gids: charge(g, count)``.  ``gids`` must not
        contain duplicates.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        gids = np.asarray(gids, dtype=np.int64)
        if count == 0 or gids.size == 0:
            return
        self.stats.samples_per_group[gids] += count

    def exact_mean(self, gid: int) -> float:
        """The exact group mean, used when a group is sampled to exhaustion.

        No extra cost is charged: the n_i samples that were drawn to reach
        exhaustion have already been charged.
        """
        return self._population.groups[gid].true_mean

    def charge_scan(self) -> None:
        """Account for a full sequential scan of the dataset (SCAN baseline)."""
        self.stats.scanned_rows += int(self._population.sizes().sum())


class SamplingEngine:
    """Base engine: open per-run streams over a population."""

    def __init__(self, population: Population) -> None:
        self.population = population

    @property
    def k(self) -> int:
        return self.population.k

    @property
    def c(self) -> float:
        return self.population.c

    def open_run(
        self,
        seed: int | np.random.Generator | None = None,
        without_replacement: bool = True,
    ) -> EngineRun:
        """Open a fresh run: one independent sampling stream per group."""
        rngs = spawn_group_rngs(seed, self.population.k)
        samplers = [
            group.sampler(rng, without_replacement)
            for group, rng in zip(self.population.groups, rngs)
        ]
        return EngineRun(self.population, samplers)

    def scan_means(self) -> tuple[np.ndarray, RunStats]:
        """Exact group means via a full sequential scan, with accounting."""
        run = EngineRun(self.population, [])
        run.charge_scan()
        return self.population.true_means(), run.stats
