"""Concurrent-session and sharded-query tests for the Session API.

``Session.submit()`` must let one session serve many queries at once with
fully isolated run state: every worker plans against a catalog snapshot and
builds its own engine and :class:`EngineRun`, so concurrent results are
bit-identical to serial ones.  ``.sharded(n)`` must thread through the spec,
the planner, and the engine wrap without changing any answer for
materialized tables.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import SourceSpec, avg, connect
from repro.engines.shm import REGISTRY
from repro.engines.sharded import ShardedEngine
from repro.session.spec import Aggregate, QuerySpec


def _flights_session(**kwargs):
    session = connect(delta=0.1, seed=0, **kwargs)
    session.attach("flights", SourceSpec("flights", rows=30_000, seed=0))
    return session


def _result_fingerprint(result):
    agg = result.first
    return (
        tuple(result.labels),
        tuple(float(v) for v in agg.raw.estimates),
        tuple(int(s) for s in agg.raw.samples_per_group),
        result.total_samples,
    )


class TestSubmit:
    def test_submit_returns_future_matching_execute(self):
        with _flights_session(engine="memory") as session:
            builder = session.table("flights").group_by("carrier").agg(avg("arrival_delay"))
            future = session.submit(builder, seed=42)
            assert _result_fingerprint(future.result(timeout=60)) == _result_fingerprint(
                builder.run(seed=42)
            )

    def test_eight_concurrent_queries_have_isolated_accounting(self):
        """The ISSUE's thread-stress bar: 8 in-flight queries, one session.

        Accounting isolation means every concurrent result carries exactly
        the samples *its own* run charged - bit-identical to the same query
        run serially - with no cross-talk between the 8 runs' stats.
        """
        with _flights_session(engine="memory", submit_workers=8) as session:
            base = session.table("flights").group_by("carrier").agg(avg("arrival_delay"))
            jobs = [(base, seed) for seed in range(4)]
            jobs += [(base.sharded(3), 100), (base.sharded(3, max_workers=2), 100)]
            jobs += [(base.guarantee(delta=0.2), 7), (base.top(3), 7)]
            assert len(jobs) == 8
            futures = [session.submit(b, seed=s) for b, s in jobs]
            concurrent = [f.result(timeout=120) for f in futures]
            serial = [b.run(seed=s) for b, s in jobs]
            for got, want in zip(concurrent, serial):
                assert _result_fingerprint(got) == _result_fingerprint(want)

    def test_eight_concurrent_process_queries_leak_nothing(self):
        """The ISSUE-5 stress bar: 8 in-flight ``executor="process"`` queries
        on one session.

        Every worker builds an isolated process engine (own spawn workers,
        own shared-memory segments, own run state), results are bit-identical
        to the same queries run serially through the *unsharded* engine
        (materialized tables: any shard count and executor matches), and the
        shm registry is empty once the queries and the session are done -
        no segment outlives its query.
        """
        baseline = REGISTRY.active_count()
        with _flights_session(engine="memory", submit_workers=8) as session:
            base = session.table("flights").group_by("carrier").agg(avg("arrival_delay"))
            jobs = [(base.sharded(2, executor="process"), seed) for seed in range(4)]
            jobs += [
                (base.sharded(3, executor="process"), 100),
                (base.sharded(2, max_workers=1, executor="process"), 100),
                (base.sharded(2, executor="process").guarantee(delta=0.2), 7),
                (base.sharded(2, executor="process").guarantee(delta=0.15), 9),
            ]
            assert len(jobs) == 8
            futures = [session.submit(b, seed=s) for b, s in jobs]
            concurrent = [f.result(timeout=300) for f in futures]
            serial = [b.sharded(1).run(seed=s) for b, s in jobs]
            for got, want in zip(concurrent, serial):
                assert _result_fingerprint(got) == _result_fingerprint(want)
            for got in concurrent:
                assert isinstance(got.engine, ShardedEngine)
                assert got.engine.executor == "process"
        assert REGISTRY.active_count() == baseline, (
            f"process queries leaked segments: {REGISTRY.active_names()}"
        )

    def test_submit_sql_text(self):
        with _flights_session() as session:
            future = session.submit(
                "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier",
                seed=3,
            )
            result = future.result(timeout=60)
            assert result.labels  # a real Result came back

    def test_submit_snapshots_catalog(self):
        """register() after submit never affects a query already in flight."""
        session = _flights_session(engine="memory")
        builder = session.table("flights").group_by("carrier").agg(avg("arrival_delay"))
        expected = _result_fingerprint(builder.run(seed=1))
        future = session.submit(builder, seed=1)
        session.attach("flights", SourceSpec("flights", rows=1_000, seed=99))  # rebind the name
        assert _result_fingerprint(future.result(timeout=60)) == expected
        session.close()

    def test_submit_validates_on_calling_thread(self):
        with _flights_session() as session:
            with pytest.raises(KeyError, match="unknown table"):
                session.submit("SELECT x, AVG(y) FROM nope GROUP BY x")

    def test_sequential_shard_fanout_does_not_serialize_submit(self):
        """max_workers=1 tunes the shard fan-out, not submit concurrency."""
        with _flights_session(engine="memory", shards=2, max_workers=1) as session:
            assert session._submit_pool()._max_workers == session.DEFAULT_SUBMIT_WORKERS

    def test_invalid_submit_workers_rejected(self):
        with pytest.raises(ValueError, match="submit_workers"):
            connect(submit_workers=0)

    def test_submit_after_close_raises(self):
        session = _flights_session()
        builder = session.table("flights").group_by("carrier").agg(avg("arrival_delay"))
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.submit(builder)


class TestShardedQueries:
    @pytest.mark.parametrize("engine", ["memory", "needletail"])
    def test_sharded_run_bit_identical_to_unsharded(self, engine):
        """Materialized tables: shards=4 answers are bit-identical."""
        with _flights_session(engine=engine) as session:
            base = session.table("flights").group_by("carrier").agg(avg("arrival_delay"))
            plain = base.run(seed=42)
            sharded = base.sharded(4).run(seed=42)
            assert _result_fingerprint(plain) == _result_fingerprint(sharded)
            assert isinstance(sharded.engine, ShardedEngine)
            assert not isinstance(plain.engine, ShardedEngine)

    def test_session_level_shards_default_applies(self):
        with _flights_session(engine="memory", shards=4) as session:
            result = (
                session.table("flights").group_by("carrier").agg(avg("arrival_delay")).run(seed=1)
            )
            assert isinstance(result.engine, ShardedEngine)
            assert result.engine.shards == 4

    def test_sharded_stream_bit_identical_to_unsharded_stream(self):
        with _flights_session(engine="memory") as session:
            builder = session.table("flights").group_by("carrier").agg(avg("arrival_delay"))
            sharded = builder.sharded(4).stream(seed=5)
            updates = list(sharded)
            assert updates and updates[-1].done
            plain = builder.stream(seed=5)
            list(plain)
            assert _result_fingerprint(sharded.result) == _result_fingerprint(plain.result)

    def test_explain_mentions_sharding(self):
        with _flights_session() as session:
            text = (
                session.table("flights")
                .group_by("carrier")
                .agg(avg("arrival_delay"))
                .sharded(4, max_workers=2)
                .explain()
            )
            assert "sharded x4" in text and "2 workers" in text

    def test_sharded_queries_release_their_pool_threads(self):
        """Retained Results must not pin idle fan-out threads (leak guard)."""
        import threading

        with _flights_session(engine="memory") as session:
            builder = (
                session.table("flights").group_by("carrier").agg(avg("arrival_delay")).sharded(4)
            )
            before = threading.active_count()
            results = [builder.run(seed=s) for s in range(3)]
            assert len(results) == 3  # Results (and their engines) stay alive
            assert threading.active_count() == before

    def test_multi_avg_rejects_sharding_loudly(self):
        with _flights_session() as session:
            builder = (
                session.table("flights")
                .group_by("carrier")
                .agg(avg("arrival_delay"), avg("departure_delay"))
                .sharded(2)
            )
            with pytest.raises(ValueError, match="do not support sharding"):
                builder.run(seed=0)

    def test_sql_door_carries_session_shards(self):
        with _flights_session(shards=3) as session:
            spec = session.sql(
                "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier"
            ).spec()
            assert spec.shards == 3

    def test_sql_door_carries_session_executor(self):
        with _flights_session(shards=2, executor="process") as session:
            spec = session.sql(
                "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier"
            ).spec()
            assert spec.executor == "process"

    @pytest.mark.parametrize("engine", ["memory", "needletail"])
    def test_process_sharded_run_bit_identical_to_unsharded(self, engine):
        """Materialized tables: process shards=2 answers are bit-identical,
        and the query pins no worker processes or segments once done."""
        baseline = REGISTRY.active_count()
        with _flights_session(engine=engine) as session:
            base = session.table("flights").group_by("carrier").agg(avg("arrival_delay"))
            plain = base.run(seed=42)
            proc = base.sharded(2, executor="process").run(seed=42)
            assert _result_fingerprint(plain) == _result_fingerprint(proc)
            assert isinstance(proc.engine, ShardedEngine)
            assert proc.engine.executor == "process"
        assert REGISTRY.active_count() == baseline

    def test_process_falls_back_to_threads_for_rejection_virtual(self):
        """Non-shareable populations downgrade with an explicit caveat."""
        with connect(delta=0.1, seed=0, engine="memory") as session:
            session.attach(
                "syn",
                SourceSpec(
                    "synthetic",
                    family="mixture",
                    k=4,
                    total_size=40_000,
                    seed=1,
                    materialize=False,
                ),
            )
            result = (
                session.table("syn")
                .group_by("g")
                .agg(avg("value"))
                .sharded(2, executor="process")
                .run(seed=1)
            )
            assert any("fell back to the thread fan-out" in c for c in result.caveats)
            assert isinstance(result.engine, ShardedEngine)
            assert result.engine.executor == "thread"

    def test_explain_mentions_process_executor(self):
        with _flights_session() as session:
            text = (
                session.table("flights")
                .group_by("carrier")
                .agg(avg("arrival_delay"))
                .sharded(4, executor="process")
                .explain()
            )
            assert "process executor" in text
            assert "falls back to the thread fan-out" in text


class TestSpecValidation:
    def _spec(self, **overrides):
        fields = dict(
            table="t",
            group_by=("x",),
            aggregates=(Aggregate("AVG", "y"),),
        )
        fields.update(overrides)
        return QuerySpec(**fields)

    def test_defaults_are_unsharded(self):
        spec = self._spec()
        assert spec.shards == 1 and spec.max_workers is None
        assert spec.executor == "thread"

    def test_invalid_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            self._spec(executor="fiber")

    def test_builder_executor_reaches_spec(self):
        with _flights_session() as session:
            spec = (
                session.table("flights")
                .group_by("carrier")
                .agg(avg("arrival_delay"))
                .sharded(4, executor="process")
                .spec()
            )
            assert spec.shards == 4 and spec.executor == "process"

    @pytest.mark.parametrize("bad", [0, -2])
    def test_invalid_shards_rejected(self, bad):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            self._spec(shards=bad)

    def test_invalid_max_workers_rejected(self):
        with pytest.raises(ValueError, match="max_workers must be >= 1"):
            self._spec(max_workers=0)

    def test_with_guarantee_preserves_shards(self):
        spec = dataclasses.replace(self._spec(), shards=4, max_workers=2)
        assert spec.with_guarantee(delta=0.2).shards == 4
