"""Sampling engines: the substrate the ordering algorithms draw samples from."""

from repro.engines.base import EngineRun, RunStats, SamplingEngine
from repro.engines.memory import InMemoryEngine
from repro.engines.partition import hash_partition, partition_groups, range_partition
from repro.engines.sharded import (
    SHARD_EXECUTORS,
    ProcessShardedRun,
    ShardedEngine,
    ShardedRun,
)

__all__ = [
    "EngineRun",
    "RunStats",
    "SamplingEngine",
    "InMemoryEngine",
    "SHARD_EXECUTORS",
    "ShardedEngine",
    "ShardedRun",
    "ProcessShardedRun",
    "partition_groups",
    "range_partition",
    "hash_partition",
]
