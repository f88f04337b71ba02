"""The fan-out cache: sharded engines (and their workers) belong to the catalog.

``Catalog.fanout`` lends one :class:`~repro.engines.sharded.ShardedEngine`
per build key to every query over that key, so ``executor="process"`` spawns
once per session and key instead of once per query.  The contract:

* repeat queries spawn nothing (same worker PIDs, one ``ProcessShardPool``)
  and answer bit-identically to a fresh catalog and to the unsharded run;
* every key coordinate that changes the engine gets its own entry; a
  non-cacheable source still spawns and releases per query;
* worker-side run state stays bounded over many queries, and so do live
  workers and pool directories under key churn (at most ``MAX_CACHED_FANOUTS``
  entries);
* re-registering an engine name never serves the old factory's build;
* a dropped entry (invalidate, rebinding, LRU eviction) is shut down only
  after the query leasing it finishes; ``Session.close()``, per-window
  catalogs and garbage collection leave no worker process or pool
  directory;
* resilience caveats belong to the query that observed them, and an engine
  whose breaker opened is replaced for the next query.
"""

from __future__ import annotations

import gc
import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro import SourceSpec, avg, connect, register_engine, sum_
from repro.catalog import Catalog, IteratorSource
from repro.data.population import MaterializedGroup, Population
from repro.engines.memory import InMemoryEngine
from repro.engines.procpool import ProcessShardPool
from repro.engines.payload import live_pool_dirs
from repro.resilience.faults import Fault, FaultPlan, inject
from repro.session import planner
from repro.streaming import WindowResult, WindowRunner

ROWS = 10_000


def _session(**kwargs):
    session = connect(delta=0.1, seed=0, engine=kwargs.pop("engine", "memory"), **kwargs)
    session.attach("flights", SourceSpec("flights", rows=ROWS, seed=0))
    return session


def _query(session, shards=2, executor="process", **kwargs):
    return (
        session.table("flights")
        .group_by("carrier")
        .agg(avg("arrival_delay"))
        .sharded(shards, executor=executor, **kwargs)
    )


def _fingerprint(result):
    return tuple(
        (
            key,
            tuple(result.labels),
            tuple(float(v) for v in agg.raw.estimates),
            tuple(int(s) for s in agg.raw.samples_per_group),
        )
        for key, agg in result.aggregates.items()
    ) + (result.total_samples,)


def _pids(result) -> list[int]:
    return sorted(w.process.pid for w in result.engine._procpool._workers)


def _children() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _resilience(result) -> list[str]:
    return [c for c in result.caveats if c.startswith("resilience:")]


@pytest.fixture(autouse=True)
def nothing_left_behind():
    baseline = live_pool_dirs()
    yield
    assert live_pool_dirs() == baseline, "leaked pool directories"
    assert multiprocessing.active_children() == []


class TestReuse:
    def test_repeat_queries_spawn_nothing(self, monkeypatch):
        pools = []
        init = ProcessShardPool.__init__

        def counting_init(self, *args, **kwargs):
            pools.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ProcessShardPool, "__init__", counting_init)
        with _session() as session:
            query = _query(session)
            first = query.run(seed=0)
            pids = _pids(first)
            for seed in range(1, 4):
                again = query.run(seed=seed)
                assert again.engine is first.engine
                assert _pids(again) == pids
            assert len(pools) == 1
            (fan,) = session.describe_table("flights").cached_fanouts
            assert (fan.shards, fan.executor, fan.workers) == (2, "process", 2)

    @pytest.mark.parametrize("engine", ["memory", "needletail"])
    @pytest.mark.parametrize("executor", ["thread", "process"])
    @pytest.mark.parametrize("where", [None, "distance > 800"])
    def test_cached_equals_fresh_and_unsharded(self, engine, executor, where):
        def build(session):
            query = _query(session, executor=executor)
            return query.where(where) if where else query

        with _session(engine=engine) as warm:
            build(warm).run(seed=5)  # fills the fan-out cache
            cached = build(warm).run(seed=7)
        with _session(engine=engine) as fresh:
            cold = build(fresh).run(seed=7)
            plain = build(fresh).sharded(1).run(seed=7)
        assert _fingerprint(cached) == _fingerprint(cold) == _fingerprint(plain)

    def test_each_key_coordinate_gets_its_own_entry(self, monkeypatch):
        monkeypatch.setattr(Catalog, "MAX_CACHED_FANOUTS", 8)
        with _session() as session:
            variants = [
                _query(session, executor="thread"),
                _query(session, executor="thread", shards=3),
                _query(session, executor="thread", max_workers=1),
                _query(session, executor="thread").where("distance > 800"),
                _query(session),
            ]
            engines = [v.run(seed=0).engine for v in variants]
            assert len({id(e) for e in engines}) == len(variants)
            assert len(session.describe_table("flights").cached_fanouts) == len(variants)
            for variant, engine in zip(variants, engines):
                assert variant.run(seed=1).engine is engine

    def test_uncached_source_spawns_and_releases_per_query(self):
        rng = np.random.default_rng(0)
        data = {
            "g": np.repeat(["a", "b", "c"], 2_000),
            "v": rng.uniform(0.0, 100.0, 6_000),
        }
        with connect(delta=0.1, engine="memory") as session:
            session.attach("feed", IteratorSource(lambda: iter([data])))
            query = session.table("feed").group_by("g").agg(avg("v")).sharded(
                2, executor="process"
            )
            first = query.run(seed=0)
            assert first.engine._procpool is None  # released with the query
            assert multiprocessing.active_children() == []
            second = query.run(seed=0)
            assert second.engine is not first.engine
            assert session.describe_table("feed").cached_fanouts == ()
            assert _fingerprint(first) == _fingerprint(second)

    def test_run_state_stays_bounded_over_many_queries(self):
        with _session() as session:
            query = _query(session)
            for seed in range(50):
                query.run(seed=seed)
            pool = query.run(seed=50).engine._procpool
            # A run's worker-side state is closed by the same acknowledged
            # close_run that drops its replay entries, so the runs a worker
            # can still hold are the logged ones plus any not yet drained.
            retired = set(pool._retired)
            assert len(retired) <= 1
            for worker in pool._workers:
                assert len({entry[1] for entry in worker.log} | retired) <= 1

    def test_key_churn_keeps_at_most_the_cap_alive(self):
        """Distinct WHERE literals (a moving ``ts > <now>``) each miss; the
        LRU cap, not the population bound, limits live workers and pool
        directories (one per cached process fan-out)."""
        cap = Catalog.MAX_CACHED_FANOUTS
        with _session() as session:
            query = _query(session)
            query.run(seed=0)
            for cut in range(100, 1_300, 200):
                query.where(f"distance > {cut}").run(seed=0)
                assert len(multiprocessing.active_children()) <= 2 * cap
                assert len(session.describe_table("flights").cached_fanouts) <= cap
                assert len(live_pool_dirs()) <= cap

    def test_re_registering_an_engine_serves_the_new_factory(self):
        original = planner._ENGINES["memory"]

        def constant_groups(ctx, value_column):
            groups = original.factory(ctx, value_column).population.groups
            return InMemoryEngine(Population(
                groups=[
                    MaterializedGroup(g.name, np.full(50, float(i)))
                    for i, g in enumerate(groups)
                ],
                c=float(len(groups)),
            ))

        with _session() as session:
            query = _query(session, executor="thread")
            first = query.run(seed=0)
            try:
                register_engine("memory", constant_groups, overwrite=True)
                second = query.run(seed=0)
            finally:
                planner._ENGINES["memory"] = original
            assert second.engine is not first.engine
            (agg,) = second.aggregates.values()
            np.testing.assert_array_equal(
                agg.raw.estimates, np.arange(len(agg.raw.estimates), dtype=float)
            )

    def test_a_closed_cached_engine_is_never_served(self):
        with _session() as session:
            query = _query(session)
            first = query.run(seed=0)
            first.engine.close()
            again = query.run(seed=0)
            assert again.engine is not first.engine
            assert _fingerprint(again) == _fingerprint(first)


class TestLifecycle:
    def test_session_close_reaps_workers_and_pool_dirs(self):
        baseline = live_pool_dirs()
        session = _session()
        _query(session).run(seed=0)
        _query(session, executor="thread").run(seed=0)
        assert len(multiprocessing.active_children()) == 2
        session.close()
        assert multiprocessing.active_children() == []
        assert live_pool_dirs() == baseline

    @pytest.mark.parametrize("drop", ["invalidate", "rebind", "evict"])
    def test_drop_during_an_inflight_query_waits_for_it(self, drop, monkeypatch):
        with _session(submit_workers=2) as session:
            query = _query(session)
            want = _fingerprint(query.sharded(1).run(seed=3))
            plan = FaultPlan([Fault("delay_shard", delay_s=0.02, times=100_000)])
            with inject(plan):
                future = session.submit(query, seed=3)
                deadline = time.monotonic() + 60
                while not plan.fired() and time.monotonic() < deadline:
                    time.sleep(0.005)
                workers = _children()
                assert len(workers) == 2 and not future.done()
                if drop == "invalidate":
                    session.invalidate("flights")
                elif drop == "rebind":
                    session.attach("flights", SourceSpec("flights", rows=1_000, seed=9))
                else:
                    monkeypatch.setattr(Catalog, "MAX_CACHED_FANOUTS", 1)
                    _query(session, executor="thread").run(seed=0)
                assert not future.done()
                assert _children() == workers  # still leased: not shut down
                got = future.result(timeout=120)
            assert _fingerprint(got) == want
            assert not _children() & workers
            assert got.engine.closed

    def test_five_window_process_subscription_holds_one_pool(self, monkeypatch):
        pools = []
        init = ProcessShardPool.__init__

        def tracking_init(self, *args, **kwargs):
            pools.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ProcessShardPool, "__init__", tracking_init)
        rng = np.random.default_rng(1)
        n = 10_000
        data = {
            "g": np.tile(np.array(["a", "b", "c"]), n // 2)[:n],
            "v": rng.uniform(0.0, 100.0, n),
            "ts": np.arange(n, dtype=np.float64),
        }
        with connect(engine="memory", seed=0, delta=0.1) as session:
            session.register("events", data)
            spec = (
                session.table("events").group_by("g").agg("AVG(v)")
                .sharded(2, executor="process")
                .window(n / 5, on="ts").spec()
            )
            runner = WindowRunner(spec, session.catalog, seed=0, emit_updates=True)
            windows = 0
            for event in runner.run():
                live = sum(not pool._closed for pool in pools)
                assert live <= 1 and len(multiprocessing.active_children()) <= 2
                windows += isinstance(event, WindowResult)
            assert windows == 5 and len(pools) == 5
            assert all(pool._closed for pool in pools)

    def test_collected_catalog_releases_its_pools(self):
        baseline = live_pool_dirs()
        catalog = Catalog()
        catalog.attach("flights", SourceSpec("flights", rows=ROWS, seed=0))
        session = connect(delta=0.1, engine="memory", catalog=catalog)
        result = _query(session).run(seed=0)
        session.close()  # an injected catalog stays open...
        assert len(multiprocessing.active_children()) == 2
        del session, catalog
        gc.collect()  # ...until it is collected
        assert multiprocessing.active_children() == []
        assert live_pool_dirs() == baseline
        assert result.engine.closed


class TestResilienceAttribution:
    def test_a_crash_is_a_caveat_on_the_query_that_saw_it_only(self):
        with _session() as session:
            query = _query(session)
            with inject(FaultPlan([Fault("kill_worker", shard=0, at=2)])):
                first = query.run(seed=1)
            second = query.run(seed=2)
            assert second.engine is first.engine
            assert len([c for c in _resilience(first) if "respawned" in c]) == 1
            assert _resilience(second) == []
            assert _fingerprint(second) == _fingerprint(query.sharded(1).run(seed=2))
            assert _fingerprint(first) == _fingerprint(query.sharded(1).run(seed=1))

    def test_an_open_breaker_gets_a_fresh_pool_next_query(self):
        with _session() as session:
            query = _query(session)
            with inject(FaultPlan([Fault("kill_worker", shard=0, times=3)])):
                first = query.run(seed=1)
            assert any("circuit breaker opened" in c for c in first.caveats)
            assert first.engine.closed  # dropped after the query, then shut down
            second = query.run(seed=1)
            assert second.engine is not first.engine
            assert second.engine.breaker.closed
            assert _resilience(second) == []
            assert _fingerprint(second) == _fingerprint(first)

    def test_a_run_on_an_open_breaker_says_it_ran_thread_side(self):
        """AVG trips the shared engine's breaker; the same query's SUM run
        then opens on it thread-side and carries exactly one caveat."""
        with _session() as session:
            both = (
                session.table("flights")
                .group_by("carrier")
                .agg(avg("arrival_delay"), sum_("arrival_delay"))
            )
            with inject(FaultPlan([Fault("kill_worker", shard=0, times=3)])):
                hurt = both.sharded(2, executor="process").run(seed=4)
            thread_side = [c for c in hurt.caveats if "ran thread-side" in c]
            assert len(thread_side) == 1
            assert _fingerprint(hurt) == _fingerprint(both.run(seed=4))
            again = both.sharded(2, executor="process").run(seed=4)
            assert _resilience(again) == []


def test_concurrent_queries_share_one_engine_and_return_every_lease():
    """Racing queries on one key end up on one cached engine, and the lease
    count (a read-modify-write under the catalog lock) returns to zero."""
    import sys

    with _session() as session:
        query = _query(session, executor="thread")
        barrier = threading.Barrier(8)
        out: list = []

        def run(seed):
            barrier.wait(timeout=30)
            out.extend(query.run(seed=seed + i) for i in range(3))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(10 * s,)) for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(out) == 24 and len({id(r.engine) for r in out}) == 1
        (entry,) = session.catalog._fanouts.entries.values()
        assert entry.leases == 0
