"""Chaos suite: seeded fault plans against the process executor.

The acceptance bar (ISSUE 6):

* a seeded ``kill_worker`` plan fired against every process-shareable
  sampler kind yields **bit-identical** draws to an uninjured twin, with
  no pool directory left afterwards;
* ``kill_mid_command`` - SIGKILL while the parent is blocked on the result
  pipe - recovers (or raises) but never hangs;
* a corrupted build handshake is retried with a fresh worker;
* a worker that never completes its handshake trips the timeout instead of
  blocking pool construction forever;
* ``shutdown(timeout=...)`` escalates terminate -> kill against ONE shared
  deadline, so even SIGSTOPped workers cannot stall teardown;
* repeated crashes open the circuit breaker (new runs degrade to threads)
  and an exhausted restart budget degrades the *current* run per-shard -
  both still bit-identical, both surfaced via ``resilience_events()``.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.data.distributions import Mixture, PointMass, TwoPoint, UniformValues
from repro.data.population import Population, VirtualGroup
from repro.engines.memory import InMemoryEngine
from repro.engines.procpool import ProcessShardPool
from repro.engines.sharded import ShardedEngine
from repro.engines.payload import live_pool_dirs
from repro.errors import WorkerCrashed
from repro.needletail.engine import NeedletailEngine
from repro.needletail.table import Column, Table
from repro.resilience.faults import Fault, FaultPlan, inject, seed_from_env
from tests.conftest import make_materialized_population

K = 8


def _materialized_engine() -> InMemoryEngine:
    pop = make_materialized_population(
        [10.0 + 8.0 * i for i in range(K)], sizes=400, seed=5
    )
    return InMemoryEngine(pop)


def _fusable_virtual_engine() -> InMemoryEngine:
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


#: Every sampler kind that can cross the process boundary (the chaos matrix).
SHAREABLE_BUILDERS = {
    "materialized": _materialized_engine,
    "fusable_virtual": _fusable_virtual_engine,
    "needletail": _needletail_engine,
}


def _sharded(kind: str, **kwargs) -> ShardedEngine:
    return ShardedEngine(
        SHAREABLE_BUILDERS[kind](), shards=2, executor="process", **kwargs
    )


def _drain(run, k: int) -> list[np.ndarray]:
    """Enough commands that any seeded ``at < 5`` is guaranteed to fire
    (open_run is command index 0, then six fused draws per shard)."""
    gids = np.arange(k)
    out = [np.array(run.draw_block(gids, 4)) for _ in range(6)]
    out.append(np.array(run.draw(1, 2)))
    out.append(np.array(run.draw(0, 3)))
    return out


@pytest.fixture(autouse=True)
def no_pool_dir_leaks():
    """Every chaos test must leave the pool directories exactly as found."""
    baseline = live_pool_dirs()
    yield
    assert live_pool_dirs() == baseline, "leaked pool directories"


class TestSeededKills:
    @pytest.mark.parametrize("kind", sorted(SHAREABLE_BUILDERS))
    def test_seeded_kill_recovers_bit_identically(self, kind):
        """The headline chaos invariant: a seeded SIGKILL mid-query changes
        *nothing* about the answer, for every shareable sampler kind."""
        seed = seed_from_env(default=20260807)
        plan = FaultPlan.seeded(seed, kind="kill_worker", shards=2, max_at=5)

        baseline = _sharded(kind)
        expected = _drain(baseline.open_run(seed=0), baseline.k)
        baseline.close()

        engine = _sharded(kind)
        with inject(plan):
            got = _drain(engine.open_run(seed=0), engine.k)
        assert plan.fired(), "the seeded fault never triggered"
        assert any("respawned" in e for e in engine.resilience_events())
        engine.close()

        for want, have in zip(expected, got):
            np.testing.assert_array_equal(want, have)

    def test_kill_mid_command_never_hangs(self):
        """SIGKILL *after* the command was sent, while the parent is blocked
        on the result pipe: the reply must come from log replay, never from
        waiting on a dead worker."""
        baseline = _sharded("materialized")
        expected = _drain(baseline.open_run(seed=0), baseline.k)
        baseline.close()

        plan = FaultPlan([Fault("kill_mid_command", shard=0, at=2)])
        results: dict = {}

        def work():
            engine = _sharded("materialized")
            results["got"] = _drain(engine.open_run(seed=0), engine.k)
            results["events"] = engine.resilience_events()
            engine.close()

        with inject(plan):
            t = threading.Thread(target=work, daemon=True)
            t.start()
            t.join(timeout=60)
            assert not t.is_alive(), "parent hung on a SIGKILLed worker's pipe"
        assert plan.fired() == [("kill_mid_command", 0, 2)]
        assert any("respawned" in e for e in results["events"])
        for want, have in zip(expected, results["got"]):
            np.testing.assert_array_equal(want, have)


class TestHandshake:
    def test_corrupt_handshake_is_retried_with_a_fresh_worker(self):
        """Spawn 0 of shard 0 sends a garbled handshake; the pool respawns
        (spawn index 1 handshakes cleanly) and the engine is unharmed."""
        baseline = _sharded("materialized")
        expected = _drain(baseline.open_run(seed=3), baseline.k)
        baseline.close()

        plan = FaultPlan([Fault("corrupt_handshake", shard=0, at=0)])
        with inject(plan):
            engine = _sharded("materialized")
            got = _drain(engine.open_run(seed=3), engine.k)
        assert any("respawned" in e for e in engine.resilience_events())
        engine.close()
        for want, have in zip(expected, got):
            np.testing.assert_array_equal(want, have)

    def test_handshake_timeout_fails_fast_not_forever(self):
        """A worker that cannot finish its build inside the timeout is
        killed and surfaced; pool construction never blocks indefinitely
        and the partial pool is torn down (registry stays clean)."""
        pop = _materialized_engine().population
        gids = [np.arange(0, K // 2), np.arange(K // 2, K)]
        # Spawning an interpreter + importing numpy takes far longer than
        # 50 ms, so the timeout always fires before the handshake lands.
        with pytest.raises(WorkerCrashed, match="handshake"):
            ProcessShardPool(pop, gids, max_restarts=0, handshake_timeout=0.05)


class TestShutdownEscalation:
    def test_sigstopped_workers_cannot_stall_shutdown(self):
        """All workers join against ONE shared deadline; a stopped process
        ignores SIGTERM (it stays pending), so only the post-grace SIGKILL
        can reclaim it.  Shutdown must still finish in bounded time."""
        engine = _sharded("materialized")
        run = engine.open_run(seed=0)
        run.draw_block(np.arange(engine.k), 4)
        pool = engine._procpool
        victims = [w.process for w in pool._workers]
        for worker in pool._workers:
            os.kill(worker.process.pid, signal.SIGSTOP)
            worker.alive = False  # skip the stop-message handshake
        start = time.monotonic()
        pool.shutdown(timeout=0.5)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"shutdown took {elapsed:.1f}s against stopped workers"
        for process in victims:
            process.join(timeout=5)
            assert not process.is_alive()
        engine.close()


class TestDegradation:
    def test_repeated_crashes_open_the_breaker_and_new_runs_use_threads(self):
        """Three crashes hit the default breaker threshold: the pool keeps
        recovering the current run, but the *next* run routes to the thread
        executor - and both stay bit-identical."""
        baseline = _sharded("materialized")
        expected_a = _drain(baseline.open_run(seed=0), baseline.k)
        expected_b = _drain(baseline.open_run(seed=1), baseline.k)
        baseline.close()

        plan = FaultPlan([Fault("kill_worker", times=3)])
        engine = _sharded("materialized")
        with inject(plan):
            got_a = _drain(engine.open_run(seed=0), engine.k)
        assert len(plan.fired()) == 3
        assert engine.breaker.open
        assert any("circuit breaker opened" in e for e in engine.resilience_events())
        # The breaker is open: this run is served by the thread executor.
        got_b = _drain(engine.open_run(seed=1), engine.k)
        engine.close()

        for want, have in zip(expected_a + expected_b, got_a + got_b):
            np.testing.assert_array_equal(want, have)

    def test_exhausted_restart_budget_degrades_the_shard_mid_run(self):
        """Two kills against a budget of one: the second crash cannot be
        recovered in-process, so the run rebuilds that shard on threads
        from its seeds, replays its draw history, and continues - still
        bit-identical to the uninjured twin."""
        baseline = _sharded("materialized")
        expected = _drain(baseline.open_run(seed=0), baseline.k)
        baseline.close()

        plan = FaultPlan([Fault("kill_worker", shard=0, times=2)])
        engine = _sharded("materialized", max_restarts=1)
        with inject(plan):
            run = engine.open_run(seed=0)
            got = _drain(run, engine.k)
        assert len(plan.fired()) == 2
        assert run.degraded_shards == [0]
        assert any("degraded" in e for e in engine.resilience_events())
        engine.close()

        for want, have in zip(expected, got):
            np.testing.assert_array_equal(want, have)
