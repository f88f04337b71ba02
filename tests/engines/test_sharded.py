"""Shard determinism contract for :mod:`repro.engines.sharded`.

The guarantees under test (see the module docstring and DESIGN_PERF.md):

* ``ShardedEngine(shards=1)`` is bit-identical to the wrapped engine for
  **every** sampler kind - materialized with/without replacement, virtual
  (fusable and rejection-based), and NEEDLETAIL indexed groups - in draws,
  fused draws, accounting, and full algorithm runs.
* For per-group-stream samplers (materialized, indexed, rejection-based
  virtual), **any** shard count is bit-identical to the plain engine, no
  matter how the fan-out is scheduled (pool, sequential, hash partition).
* Fusable virtual groups draw reproducibly at ``shards>1`` (fixed seed ->
  identical values) and produce the same ordering as the plain engine.
* The whole matrix holds for **both executors**: the thread fan-out and the
  process fan-out (``executor="process"``, worker processes over shared
  memory) are interchangeable bit-for-bit wherever the population can cross
  the process boundary.  Rejection-sampled virtual populations cannot (the
  engine refuses them loudly; the planner falls back to threads - see the
  session suite), so their process legs are skipped here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.registry import run_algorithm
from repro.data.distributions import (
    Mixture,
    PointMass,
    TruncatedNormal,
    TwoPoint,
    UniformValues,
)
from repro.data.population import Population, VirtualGroup
from repro.engines.memory import InMemoryEngine
from repro.engines.partition import hash_partition, partition_groups, range_partition
from repro.engines.sharded import ShardedEngine
from repro.needletail.engine import NeedletailEngine
from repro.needletail.table import Column, Table
from tests.conftest import make_materialized_population

K = 12


def _materialized_engine() -> InMemoryEngine:
    pop = make_materialized_population(
        [10.0 + 6.0 * i for i in range(K)], sizes=500, seed=3
    )
    return InMemoryEngine(pop)


def _virtual_engine() -> InMemoryEngine:
    """One group per distribution kind, fusable and not, in one population."""
    groups = [
        VirtualGroup("uniform", UniformValues(10.0, 90.0), 10**6),
        VirtualGroup("twopoint", TwoPoint(0.4, 0.0, 100.0), 10**6),
        VirtualGroup("point", PointMass(42.0), 10**6),
        VirtualGroup("truncnorm", TruncatedNormal(70.0, 5.0, 0.0, 100.0), 10**6),
        VirtualGroup(
            "mixture",
            Mixture([UniformValues(0.0, 10.0), TwoPoint(0.5, 0.0, 100.0)]),
            10**6,
        ),
    ]
    return InMemoryEngine(Population(groups=groups, c=100.0))


def _fusable_virtual_engine() -> InMemoryEngine:
    """Only fusable distributions: the virtual population a process worker
    can rebuild (parameters pickle; no rejection-sampled state)."""
    groups = [
        VirtualGroup("uniform", UniformValues(10.0, 90.0), 10**6),
        VirtualGroup("twopoint", TwoPoint(0.4, 0.0, 100.0), 10**6),
        VirtualGroup("point", PointMass(42.0), 10**6),
        VirtualGroup(
            "mixture",
            Mixture([UniformValues(0.0, 10.0), TwoPoint(0.5, 0.0, 100.0)]),
            10**6,
        ),
    ]
    return InMemoryEngine(Population(groups=groups, c=100.0))


#: Both fan-out executors; the full determinism matrix runs against each.
EXECUTORS = ("thread", "process")


def _sharded(kind: str, shards: int, executor: str, **kwargs) -> ShardedEngine:
    """A sharded engine over a fresh builder engine, skipping impossible legs."""
    if executor == "process" and kind == "virtual":
        pytest.skip(
            "rejection-sampled virtual populations are not process-shareable "
            "(refusal and planner fallback are tested separately)"
        )
    return ShardedEngine(
        ENGINE_BUILDERS[kind](), shards=shards, executor=executor, **kwargs
    )


def _needletail_engine() -> NeedletailEngine:
    rng = np.random.default_rng(11)
    n = 6000
    table = Table(
        "t",
        [
            Column("grp", rng.integers(0, 6, size=n), 4),
            Column("val", rng.uniform(0.0, 100.0, size=n), 8),
        ],
    )
    return NeedletailEngine(table, group_by="grp", value_column="val", c=100.0)


def _drain(run, k: int, seedless_pattern=((3, 7), (0, 2), (1, 1))) -> list[np.ndarray]:
    """A fixed interleaving of sequential and fused draws plus charges."""
    out = []
    gids = np.arange(k)
    out.append(np.array(run.draw_block(gids, 5)))
    run.charge_block(gids, 5)
    for gid, count in seedless_pattern:
        out.append(np.array(run.draw(gid, count)))
        run.charge(gid, count)
    out.append(np.array(run.draw_block(gids[::2], 4)))
    run.charge_block(gids[::2], 4)
    return out


# ---------------------------------------------------------------------------
# Partition utilities
# ---------------------------------------------------------------------------


class TestPartition:
    def test_range_partition_is_contiguous_balanced_and_covering(self):
        parts = range_partition(10, 3)
        assert [p.tolist() for p in parts] == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert np.array_equal(np.concatenate(parts), np.arange(10))

    def test_range_partition_more_shards_than_groups(self):
        parts = range_partition(2, 5)
        assert sum(p.size for p in parts) == 2
        assert sum(1 for p in parts if p.size) == 2

    def test_hash_partition_is_stable_and_covering(self):
        names = [f"g{i}" for i in range(20)]
        a = hash_partition(names, 4)
        b = hash_partition(names, 4)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert np.array_equal(np.sort(np.concatenate(a)), np.arange(20))

    def test_partition_groups_rejects_unknown_strategy(self):
        with pytest.raises(KeyError, match="unknown partitioner"):
            partition_groups(["a", "b"], 2, strategy="zigzag")

    @pytest.mark.parametrize("bad", [0, -1])
    def test_invalid_shards_rejected(self, bad):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            range_partition(4, bad)
        with pytest.raises(ValueError, match="shards must be >= 1"):
            ShardedEngine(_materialized_engine(), shards=bad)

    def test_invalid_max_workers_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            ShardedEngine(_materialized_engine(), shards=2, max_workers=0)


# ---------------------------------------------------------------------------
# shards=1: bit-identical to the wrapped engine, every sampler kind
# ---------------------------------------------------------------------------


ENGINE_BUILDERS = {
    "materialized": _materialized_engine,
    "virtual": _virtual_engine,
    "fusable_virtual": _fusable_virtual_engine,
    "needletail": _needletail_engine,
}


class TestSingleShardBitIdentical:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("kind", sorted(ENGINE_BUILDERS))
    @pytest.mark.parametrize("without_replacement", [True, False])
    def test_draws_and_accounting_match(self, kind, without_replacement, executor):
        plain = ENGINE_BUILDERS[kind]()
        sharded = _sharded(kind, 1, executor)
        r_plain = plain.open_run(seed=7, without_replacement=without_replacement)
        r_shard = sharded.open_run(seed=7, without_replacement=without_replacement)
        for a, b in zip(_drain(r_plain, plain.k), _drain(r_shard, plain.k)):
            assert np.array_equal(a, b)
        assert np.array_equal(
            r_plain.stats.samples_per_group, r_shard.stats.samples_per_group
        )
        assert r_plain.stats.scanned_rows == r_shard.stats.scanned_rows
        sharded.close()

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("kind", sorted(ENGINE_BUILDERS))
    def test_full_ifocus_run_matches(self, kind, executor):
        plain = ENGINE_BUILDERS[kind]()
        sharded = _sharded(kind, 1, executor)
        a = run_algorithm("ifocus", plain, delta=0.05, seed=13)
        b = run_algorithm("ifocus", sharded, delta=0.05, seed=13)
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.samples_per_group, b.samples_per_group)
        assert np.array_equal(a.stats.samples_per_group, b.stats.samples_per_group)
        assert a.stats.scanned_rows == b.stats.scanned_rows
        sharded.close()

    def test_exact_mean_and_sizes_delegate_to_population(self):
        plain = _materialized_engine()
        sharded = ShardedEngine(_materialized_engine(), shards=1)
        run_p = plain.open_run(seed=0)
        run_s = sharded.open_run(seed=0)
        assert np.array_equal(run_p.sizes(), run_s.sizes())
        assert run_p.group_names() == run_s.group_names()
        assert run_p.exact_mean(3) == run_s.exact_mean(3)


# ---------------------------------------------------------------------------
# shards>1: per-group-stream samplers stay bit-identical; merges are stable
# ---------------------------------------------------------------------------


class TestMultiShardDeterminism:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("shards", [2, 3, 4, K])
    @pytest.mark.parametrize("builder", ["materialized", "needletail"])
    def test_per_group_stream_kinds_bit_identical_to_plain(
        self, shards, builder, executor
    ):
        plain = ENGINE_BUILDERS[builder]()
        sharded = _sharded(builder, shards, executor)
        r_plain = plain.open_run(seed=21)
        r_shard = sharded.open_run(seed=21)
        for a, b in zip(_drain(r_plain, plain.k), _drain(r_shard, plain.k)):
            assert np.array_equal(a, b)
        sharded.close()

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("builder", ["materialized", "needletail"])
    def test_full_run_bit_identical_to_plain_at_four_shards(self, builder, executor):
        plain = ENGINE_BUILDERS[builder]()
        with _sharded(builder, 4, executor) as sharded:
            a = run_algorithm("ifocus", plain, delta=0.05, seed=5)
            b = run_algorithm("ifocus", sharded, delta=0.05, seed=5)
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.samples_per_group, b.samples_per_group)
        assert np.array_equal(a.stats.samples_per_group, b.stats.samples_per_group)
        assert a.stats.scanned_rows == b.stats.scanned_rows

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_sequential_fanout_equals_pooled(self, executor):
        pooled = _sharded("materialized", 4, executor)
        sequential = _sharded("materialized", 4, executor, max_workers=1)
        a = pooled.open_run(seed=2).draw_block(np.arange(K), 40)
        b = sequential.open_run(seed=2).draw_block(np.arange(K), 40)
        assert np.array_equal(a, b)
        pooled.close()
        sequential.close()

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_hash_partitioner_equals_range_for_per_group_streams(self, executor):
        by_range = _sharded("materialized", 3, executor, partitioner="range")
        by_hash = _sharded("materialized", 3, executor, partitioner="hash")
        gids = np.arange(K)
        a = by_range.open_run(seed=4).draw_block(gids, 25)
        b = by_hash.open_run(seed=4).draw_block(gids, 25)
        assert np.array_equal(a, b)
        by_range.close()
        by_hash.close()

    @pytest.mark.parametrize(
        "executor,kind",
        [("thread", "virtual"), ("process", "fusable_virtual")],
    )
    def test_virtual_groups_reproducible_and_same_ordering(self, executor, kind):
        plain = ENGINE_BUILDERS[kind]()
        sharded = _sharded(kind, 3, executor)
        gids = np.arange(plain.k)
        x = sharded.open_run(seed=11).draw_block(gids, 30)
        y = sharded.open_run(seed=11).draw_block(gids, 30)
        assert np.array_equal(x, y)  # fixed seed -> identical fan-out draws
        a = run_algorithm("ifocus", plain, delta=0.05, seed=6)
        b = run_algorithm("ifocus", sharded, delta=0.05, seed=6)
        assert np.array_equal(np.argsort(a.estimates), np.argsort(b.estimates))
        sharded.close()

    def test_thread_and_process_executors_bit_identical(self):
        """The two fan-outs are interchangeable, not merely each correct."""
        by_thread = _sharded("materialized", 4, "thread")
        by_process = _sharded("materialized", 4, "process")
        gids = np.arange(K)
        a = by_thread.open_run(seed=15).draw_block(gids, 33)
        b = by_process.open_run(seed=15).draw_block(gids, 33)
        assert np.array_equal(a, b)
        by_thread.close()
        by_process.close()

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_partial_blocks_touching_a_shard_subset(self, executor):
        plain = _materialized_engine()
        sharded = _sharded("materialized", 4, executor)
        subset = np.array([1, 5, 9])  # spans three range shards
        a = plain.open_run(seed=8).draw_block(subset, 17)
        b = sharded.open_run(seed=8).draw_block(subset, 17)
        assert np.array_equal(a, b)
        sharded.close()

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_charge_accounting_matches_plain(self, executor):
        plain = _materialized_engine()
        sharded = ShardedEngine(_materialized_engine(), shards=4, executor=executor)
        r_plain = plain.open_run(seed=1)
        r_shard = sharded.open_run(seed=1)
        for run in (r_plain, r_shard):
            run.draw_block(np.arange(K), 8)
            run.charge_block(np.arange(K), 8)
            run.charge(2, 3)
            run.charge_scan()
        assert np.array_equal(
            r_plain.stats.samples_per_group, r_shard.stats.samples_per_group
        )
        assert r_plain.stats.scanned_rows == r_shard.stats.scanned_rows > 0
        sharded.close()


# ---------------------------------------------------------------------------
# Lifecycle and failure propagation
# ---------------------------------------------------------------------------


class TestLifecycle:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_exhaustion_error_propagates_through_fanout(self, executor):
        pop = make_materialized_population([10.0, 30.0, 50.0, 70.0], sizes=20, seed=0)
        sharded = ShardedEngine(InMemoryEngine(pop), shards=4, executor=executor)
        run = sharded.open_run(seed=0)
        with pytest.raises(ValueError, match="exhausted"):
            run.draw_block(np.arange(4), 21)
        sharded.close()

    def test_close_is_idempotent_and_blocks_new_fanouts(self):
        sharded = ShardedEngine(_materialized_engine(), shards=4)
        run = sharded.open_run(seed=0)
        run.draw_block(np.arange(K), 3)  # spins the pool up
        sharded.close()
        sharded.close()
        with pytest.raises(RuntimeError, match="closed"):
            sharded.open_run(seed=1).draw_block(np.arange(K), 3)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_record_timings_accumulates_per_shard(self, executor):
        sharded = ShardedEngine(
            _materialized_engine(), shards=4, record_timings=True, executor=executor
        )
        run = sharded.open_run(seed=0)
        assert run.shard_seconds.shape == (4,)
        run.draw_block(np.arange(K), 50)
        assert np.all(run.shard_seconds >= 0.0)
        assert run.num_shards == 4
        sharded.close()

    def test_release_pool_is_nonterminal(self):
        sharded = ShardedEngine(_materialized_engine(), shards=4)
        a = sharded.open_run(seed=0).draw_block(np.arange(K), 5)
        sharded.release_pool()
        b = sharded.open_run(seed=0).draw_block(np.arange(K), 5)  # recreates pool
        assert np.array_equal(a, b)
        sharded.close()

    def test_rejects_backend_with_custom_open_run(self):
        class CustomEngine(InMemoryEngine):
            def open_run(self, seed=None, without_replacement=True):
                return super().open_run(seed, without_replacement)

        backend = CustomEngine(make_materialized_population([10.0, 20.0], sizes=50))
        with pytest.raises(TypeError, match="overrides open_run"):
            ShardedEngine(backend, shards=2)

    def test_effective_shards_capped_by_group_count(self):
        sharded = ShardedEngine(_materialized_engine(), shards=K + 10)
        assert sharded.shards == K
        plain = _materialized_engine()
        a = plain.open_run(seed=3).draw_block(np.arange(K), 9)
        b = sharded.open_run(seed=3).draw_block(np.arange(K), 9)
        assert np.array_equal(a, b)
        sharded.close()
