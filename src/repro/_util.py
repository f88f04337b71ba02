"""Shared small utilities: RNG stream management and argument validation.

The algorithms in :mod:`repro.core` are batched/vectorized but must remain
bit-for-bit equivalent to the paper's sample-at-a-time loops.  We get this by
giving every group its *own* independent random stream (spawned from one seed
sequence), so that the order in which groups are sampled never changes the
values any single group observes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "spawn_group_rngs",
    "spawn_group_seed_seqs",
    "rngs_from_seed_seqs",
    "as_rng",
    "reusable_seed",
    "check_probability",
    "check_positive",
    "check_nonnegative",
]


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a numpy Generator from a seed, an existing Generator, or None."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_group_seed_seqs(
    seed: int | np.random.Generator | None, k: int
) -> list[np.random.SeedSequence]:
    """Spawn ``k`` independent per-group ``SeedSequence`` children.

    This is the seed half of :func:`spawn_group_rngs`, split out so the
    process-parallel shard executor can ship the (picklable) children to
    worker processes and rebuild *the same* per-group streams in-worker.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    root = as_rng(seed)
    return root.bit_generator.seed_seq.spawn(k)  # type: ignore[union-attr]


def rngs_from_seed_seqs(
    seed_seqs: list[np.random.SeedSequence],
) -> list[np.random.Generator]:
    """Per-group Generators from spawned children - THE stream construction.

    Every consumer (plain engines, thread shards in-process, process-shard
    workers rebuilding streams from pickled children) must build generators
    through this one function: the bit-generator choice is the determinism
    contract, and two copies of this expression could silently drift.
    """
    return [np.random.Generator(np.random.PCG64(s)) for s in seed_seqs]


def spawn_group_rngs(seed: int | np.random.Generator | None, k: int) -> list[np.random.Generator]:
    """Create ``k`` independent random streams, one per group.

    Streams are spawned from a single root so the whole experiment is
    reproducible from one integer seed, yet each group's draw sequence is
    independent of how draws to other groups are interleaved.
    """
    return rngs_from_seed_seqs(spawn_group_seed_seqs(seed, k))


def reusable_seed(seed: int | np.random.Generator | None) -> int:
    """``seed`` as a value that yields the same streams on every use.

    An int seed already does; ``None`` (fresh entropy) and a Generator (whose
    seed sequence advances on each spawn) are pinned to one drawn int, so
    several runs given the result read the same per-group permutations.
    """
    if seed is None or isinstance(seed, np.random.Generator):
        return int(as_rng(seed).integers(2**63))
    return seed


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` is a probability in the open interval (0, 1)."""
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value}")
    return value


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive."""
    value = float(value)
    if not value > 0.0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def check_nonnegative(value: float, name: str) -> float:
    """Validate that ``value`` is >= 0."""
    value = float(value)
    if value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value
