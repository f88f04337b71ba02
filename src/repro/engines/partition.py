"""Group partitioning for the sharded execution backend.

:func:`range_partition` assigns every group id of a population to one of N
shards as contiguous, balanced gid ranges.  It is a deterministic function
of the group count alone - no process-local salt, no RNG - so a partition
computed on one machine (or in one worker) is identical everywhere, which
the shard-merge determinism contract relies on (see DESIGN_PERF.md), and
it preserves group order within a shard, so the stable merge is a plain
column gather.

Empty shards are legal (``shards > k`` leaves trailing ranges empty);
:class:`~repro.engines.sharded.ShardedEngine` simply skips them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["range_partition"]


def range_partition(k: int, shards: int) -> list[np.ndarray]:
    """Split group ids 0..k-1 into ``shards`` contiguous, balanced ranges.

    Returns one int64 gid array per shard, each sorted ascending, covering
    every group exactly once; the first ``k % shards`` shards receive one
    extra group.  With ``shards > k`` the trailing shards are empty.
    """
    if k < 1:
        raise ValueError(f"need at least one group to partition, got {k}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return [np.asarray(part, dtype=np.int64) for part in np.array_split(np.arange(k), shards)]
