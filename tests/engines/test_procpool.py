"""Lifecycle, payload-file hygiene, and crash paths of the process executor.

The contract under test:

* no pool directory outlives ``close()``/``release_pool()`` -
  :func:`repro.engines.payload.live_pool_dirs` is the leak oracle;
* the directory is removed *even when a worker is killed* mid-run (the
  kill-the-worker test), and a SIGKILLed parent's directory is swept by the
  next pool any process creates;
* a released engine is still usable (workers and payload files are rebuilt
  lazily, draws stay bit-identical), while runs opened before the release
  fail loudly instead of hanging;
* populations that cannot cross the process boundary are rejected loudly at
  the engine layer (the planner's thread fallback is tested in the session
  suite).
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.data.distributions import TruncatedNormal, TwoPoint, UniformValues
from repro.data.population import Group, Population, VirtualGroup
from repro.engines.memory import InMemoryEngine
from repro.engines import procpool
from repro.engines.payload import PoolDir, build_shard_payloads, live_pool_dirs, shareable
from repro.engines.sharded import ShardedEngine
from tests.conftest import make_materialized_population

K = 8


def _engine() -> InMemoryEngine:
    pop = make_materialized_population(
        [10.0 + 8.0 * i for i in range(K)], sizes=400, seed=5
    )
    return InMemoryEngine(pop)


def _process_engine(shards: int = 2, **kwargs) -> ShardedEngine:
    return ShardedEngine(_engine(), shards=shards, executor="process", **kwargs)


@pytest.fixture(autouse=True)
def no_pool_dir_leaks():
    """Every test must leave this process's pool directories as it found them."""
    baseline = live_pool_dirs()
    yield
    assert live_pool_dirs() == baseline, "leaked pool directories"


class TestLifecycle:
    def test_close_removes_the_pool_directory(self):
        engine = _process_engine(shards=2)
        run = engine.open_run(seed=0)
        run.draw_block(np.arange(K), 5)
        (path,) = live_pool_dirs()
        assert len(os.listdir(path)) == 3  # 1 packed values + 2 output files
        engine.close()
        assert live_pool_dirs() == [] and not os.path.exists(path)

    def test_close_is_idempotent(self):
        engine = _process_engine(shards=2)
        engine.open_run(seed=0).draw_block(np.arange(K), 3)
        engine.close()
        engine.close()
        assert live_pool_dirs() == []

    def test_release_pool_frees_workers_and_files_but_not_the_engine(self):
        engine = _process_engine(shards=2)
        a = engine.open_run(seed=3).draw_block(np.arange(K), 6)
        engine.release_pool()
        assert live_pool_dirs() == []  # nothing pinned between queries
        b = engine.open_run(seed=3).draw_block(np.arange(K), 6)  # fresh workers
        assert np.array_equal(a, b)
        engine.close()

    def test_run_opened_before_release_fails_loudly_after_it(self):
        engine = _process_engine(shards=2)
        run = engine.open_run(seed=1)
        run.draw_block(np.arange(K), 2)
        engine.release_pool()
        with pytest.raises(RuntimeError, match="shut down"):
            run.draw_block(np.arange(K), 2)
        engine.close()

    def test_closed_engine_refuses_new_runs(self):
        engine = _process_engine(shards=2)
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.open_run(seed=0)

    def test_output_buffer_grows_for_large_draws(self):
        """A draw bigger than the initial out file grows it geometrically
        (old file unlinked, a new one created) and stays bit-exact."""
        pop = make_materialized_population(
            [10.0 + 8.0 * i for i in range(K)], sizes=5000, seed=5
        )
        plain = InMemoryEngine(pop)
        engine = ShardedEngine(InMemoryEngine(pop), shards=2, executor="process")
        r_plain = plain.open_run(seed=9)
        r_proc = engine.open_run(seed=9)
        small = r_proc.draw_block(np.arange(K), 4)
        assert np.array_equal(small, r_plain.draw_block(np.arange(K), 4))
        (path,) = live_pool_dirs()
        before = set(os.listdir(path))
        big = r_proc.draw_block(np.arange(K), 4096)  # > 64 KiB per worker
        assert np.array_equal(big, r_plain.draw_block(np.arange(K), 4096))
        after = set(os.listdir(path))
        assert len(after) == len(before) and after != before  # 2 outs replaced
        engine.close()

    def test_draw_zero_count_skips_the_pipe(self):
        engine = _process_engine(shards=2)
        run = engine.open_run(seed=0)
        assert run.draw(0, 0).size == 0
        engine.close()

    def test_isolated_runs_on_one_engine(self):
        """Two live runs on one engine own independent worker-side streams."""
        plain = _engine()
        engine = _process_engine(shards=2)
        run_a = engine.open_run(seed=11)
        run_b = engine.open_run(seed=22)
        ref_a = plain.open_run(seed=11)
        ref_b = plain.open_run(seed=22)
        gids = np.arange(K)
        assert np.array_equal(run_a.draw_block(gids, 5), ref_a.draw_block(gids, 5))
        assert np.array_equal(run_b.draw_block(gids, 7), ref_b.draw_block(gids, 7))
        assert np.array_equal(run_a.draw_block(gids, 3), ref_a.draw_block(gids, 3))
        engine.close()


class TestWorkerCrash:
    def test_killed_worker_surfaces_and_files_are_reclaimed(self):
        """With recovery disabled (max_restarts=0), SIGKILL keeps the
        pre-resilience contract: the next draw raises instead of hanging,
        and close() still removes the pool directory."""
        engine = _process_engine(shards=2, max_restarts=0)
        run = engine.open_run(seed=0)
        run.draw_block(np.arange(K), 4)
        pool = engine._procpool
        victim = pool._workers[0].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        deadline = time.time() + 10
        with pytest.raises(RuntimeError, match="died"):
            while time.time() < deadline:  # the pipe may drain buffered data
                run.draw_block(np.arange(K), 4)
            raise AssertionError("killed worker never surfaced")
        engine.close()
        assert live_pool_dirs() == []

    def test_killed_worker_recovers_bit_identically(self):
        """Default contract: a SIGKILLed worker is respawned, its command
        log replayed, and the run continues bit-identical to an uninjured
        twin."""
        baseline_engine = _process_engine(shards=2)
        baseline_run = baseline_engine.open_run(seed=0)
        expected = [baseline_run.draw_block(np.arange(K), 4) for _ in range(6)]
        baseline_engine.close()

        engine = _process_engine(shards=2)
        run = engine.open_run(seed=0)
        got = [run.draw_block(np.arange(K), 4) for _ in range(3)]
        pool = engine._procpool
        os.kill(pool._workers[0].process.pid, signal.SIGKILL)
        pool._workers[0].process.join(timeout=10)
        got.extend(run.draw_block(np.arange(K), 4) for _ in range(3))
        for want, have in zip(expected, got):
            np.testing.assert_array_equal(want, have)
        assert any("respawned" in e for e in engine.resilience_events())
        engine.close()
        assert live_pool_dirs() == []

    def test_surviving_shards_unaffected_until_close(self):
        engine = _process_engine(shards=2, max_restarts=0)
        run = engine.open_run(seed=0)
        pool = engine._procpool
        os.kill(pool._workers[0].process.pid, signal.SIGKILL)
        pool._workers[0].process.join(timeout=10)
        # Shard 1 owns the upper half of the gids; it still answers.
        upper = engine.shard_gids[1]
        block = run.draw_block(upper, 3)
        assert block.shape == (3, upper.size)
        engine.close()
        assert live_pool_dirs() == []


class TestShareability:
    def test_rejection_sampled_virtual_rejected_loudly(self):
        groups = [VirtualGroup("g0", TruncatedNormal(50.0, 5.0, 0.0, 100.0), 10**6)]
        engine = InMemoryEngine(Population(groups=groups, c=100.0))
        assert "rejection-sampled" in shareable(engine.population)
        with pytest.raises(ValueError, match="rejection-sampled"):
            ShardedEngine(engine, shards=2, executor="process")

    def test_unknown_group_kind_rejected(self):
        class OpaqueGroup(Group):
            name = "opaque"

            @property
            def size(self):
                return 10

            @property
            def true_mean(self):
                return 1.0

        pop = Population(groups=[OpaqueGroup()], c=10.0)
        assert "unknown kind" in shareable(pop)
        directory = PoolDir()
        try:
            with pytest.raises(ValueError, match="not process-shareable"):
                build_shard_payloads(pop, [np.array([0])], directory)
        finally:
            directory.close()

    def test_mixed_group_kinds_rejected(self):
        materialized = _engine().population.groups[0]
        virtual = VirtualGroup("u", UniformValues(0.0, 50.0), 10**6)
        pop = Population(groups=[materialized, virtual], c=100.0)
        assert "mixes group kinds" in shareable(pop)

    def test_fusable_virtual_is_shareable(self):
        groups = [
            VirtualGroup("u", UniformValues(0.0, 50.0), 10**6),
            VirtualGroup("t", TwoPoint(0.3, 0.0, 100.0), 10**6),
        ]
        assert shareable(Population(groups=groups, c=100.0)) is None

    def test_materialized_is_shareable(self):
        assert shareable(_engine().population) is None

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            ShardedEngine(_engine(), shards=2, executor="fiber")


class TestPayloadCleanupOnError:
    def test_failed_build_leaves_no_directory(self, monkeypatch):
        """An error *after* some payload files were written must remove
        them with the pool's directory."""
        from repro.needletail.engine import NeedletailEngine
        from repro.needletail.table import Column, Table

        rng = np.random.default_rng(2)
        table = Table("t", [Column("g", rng.integers(0, 3, 300), 8),
                            Column("v", rng.uniform(0, 100, 300), 8)])
        pop = NeedletailEngine(table, "g", "v").population  # one values buffer
        created = []

        class FailingPoolDir(PoolDir):
            def __init__(self):
                super().__init__()
                created.append(self.path)

            def write(self, buffer):
                super().write(buffer)
                assert os.listdir(self.path)  # the file is on disk
                raise OSError("disk full")

        monkeypatch.setattr(procpool, "PoolDir", FailingPoolDir)
        with pytest.raises(OSError, match="disk full"):
            procpool.ProcessShardPool(pop, [np.array([0, 1, 2])])
        assert len(created) == 1 and not os.path.exists(created[0])
        assert live_pool_dirs() == []
