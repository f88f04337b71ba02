"""ContinuousQuery lifecycle: subscribe, cancel, errors, source seams."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from streamutil import DATA, SCHEMA, chunk_factory, make_session
from repro.catalog import IteratorSource
from repro.session import connect
from repro.streaming import ContinuousQuery, WindowResult
from repro.streaming.runner import WindowRunner


class TestSubscribe:
    def test_builder_subscribe_roundtrip(self, stream_session):
        cq = (
            stream_session.table("events").group_by("g").agg("AVG(v)")
            .window(200.0, on="ts")
            .subscribe(seed=0, emit_updates=False)
        )
        results = list(cq.results())
        assert [r.window.index for r in results] == [0, 1, 2]
        assert cq.done and not cq.cancelled

    def test_session_subscribe_accepts_spec(self, stream_session):
        spec = (
            stream_session.table("events").group_by("g").agg("AVG(v)")
            .window(300.0, on="ts").spec()
        )
        cq = stream_session.subscribe(spec, seed=4, emit_updates=False)
        assert len(list(cq.results())) == 2

    def test_subscribe_rejects_windowless_queries(self, stream_session):
        plain = stream_session.table("events").group_by("g").agg("AVG(v)")
        with pytest.raises(ValueError, match="window"):
            stream_session.subscribe(plain)

    def test_subscribe_rejects_unknown_table(self, stream_session):
        spec = (
            stream_session.table("events").group_by("g").agg("AVG(v)")
            .window(100.0, on="ts").spec()
        )
        import dataclasses

        bad = dataclasses.replace(spec, table="nope")
        with pytest.raises(KeyError, match="nope"):
            stream_session.subscribe(bad)

    def test_catalog_snapshot_isolates_re_registration(self, stream_session):
        """Re-registering the table mid-subscription never swaps the stream."""
        cq = (
            stream_session.table("events").group_by("g").agg("AVG(v)")
            .window(200.0, on="ts")
            .subscribe(seed=0, emit_updates=False)
        )
        stream_session.register("events", {k: v[:10] for k, v in DATA.items()})
        results = list(cq.results())
        assert sum(r.rows for r in results) == len(DATA["ts"])

    def test_single_consumer(self, stream_session):
        cq = (
            stream_session.table("events").group_by("g").agg("AVG(v)")
            .window(200.0, on="ts")
            .subscribe(seed=0, emit_updates=False)
        )
        list(cq.updates())
        with pytest.raises(RuntimeError, match="single-consumer"):
            next(iter(cq.updates()))


class TestCancel:
    def _paced_session(self, gate: threading.Event):
        """An unbounded stream that waits on ``gate`` between chunks."""

        def chunks():
            base = 0
            while True:
                yield {
                    "g": DATA["g"][:100],
                    "v": DATA["v"][:100],
                    "ts": np.arange(base, base + 100, dtype=np.float64),
                }
                base += 100
                gate.wait(5.0)

        session = connect(engine="memory", seed=0, delta=0.1)
        session.register("events", IteratorSource(chunks, schema=SCHEMA))
        return session

    def test_cancel_mid_stream_ends_cleanly(self):
        gate = threading.Event()
        session = self._paced_session(gate)
        cq = (
            session.table("events").group_by("g").agg("AVG(v)")
            .window(100.0, on="ts")
            .subscribe(seed=0, emit_updates=False)
        )
        events = cq.updates()
        first = next(e for e in events if isinstance(e, WindowResult))
        assert first.window.index == 0
        cq.cancel()
        gate.set()
        remaining = list(events)  # ends without raising
        assert cq.join(timeout=30)
        assert cq.cancelled and cq.done
        assert all(isinstance(e, WindowResult) for e in remaining)
        session.close()

    def test_cancel_is_idempotent(self, stream_session):
        cq = (
            stream_session.table("events").group_by("g").agg("AVG(v)")
            .window(200.0, on="ts")
            .subscribe(seed=0, emit_updates=False)
        )
        list(cq.updates())
        cq.cancel()
        cq.cancel()
        assert not cq.cancelled  # finished before cancel: a clean run


class TestErrors:
    def test_runner_failure_re_raises_from_updates(self):
        def chunks():
            yield {k: v[:100] for k, v in DATA.items()}
            raise OSError("stream socket dropped")

        session = connect(engine="memory", seed=0, delta=0.1)
        session.register("events", IteratorSource(chunks, schema=SCHEMA))
        cq = (
            session.table("events").group_by("g").agg("AVG(v)")
            .window(50.0, on="ts")
            .subscribe(seed=0, emit_updates=False)
        )
        with pytest.raises(OSError, match="socket dropped"):
            list(cq.updates())
        assert cq.done and not cq.cancelled
        session.close()


class TestSingleUseSource:
    """Regression tests for the documented replay/tail seam."""

    def test_single_use_feeds_one_subscription(self):
        source = IteratorSource.single_use(chunk_factory()(), schema=SCHEMA)
        session = connect(engine="memory", seed=0, delta=0.1)
        session.register("events", source)
        cq = (
            session.table("events").group_by("g").agg("AVG(v)")
            .window(200.0, on="ts")
            .subscribe(seed=0, emit_updates=False)
        )
        assert len(list(cq.results())) == 3
        session.close()

    def test_second_scan_raises_loudly(self):
        source = IteratorSource.single_use(chunk_factory()(), schema=SCHEMA)
        list(source.scan())
        with pytest.raises(RuntimeError, match="already\\s+scanned once"):
            list(source.scan())

    def test_schema_is_required(self):
        with pytest.raises(TypeError, match="explicit Schema"):
            IteratorSource.single_use(chunk_factory()(), schema=None)

    def test_factory_reuse_guard_still_pinned(self):
        """The pre-existing same-iterator-twice TypeError is unchanged."""
        gen = chunk_factory()()
        source = IteratorSource(lambda: gen, schema=SCHEMA)
        list(source.scan())
        with pytest.raises(TypeError, match="same iterator twice"):
            list(source.scan())


class TestStartClassmethod:
    def test_start_builds_and_runs_a_runner(self, stream_session):
        spec = (
            stream_session.table("events").group_by("g").agg("AVG(v)")
            .window(300.0, on="ts").spec()
        )
        cq = ContinuousQuery.start(
            spec, stream_session.catalog.snapshot(), seed=2, emit_updates=False
        )
        assert len(list(cq.results())) == 2
        stats = cq.stats()
        assert stats["windows_emitted"] == 2

    def test_runner_cancel_interrupts_inflight_window(self):
        """cancel() fires the active window's deadline token: sampling
        already in flight raises QueryCancelled at its next round instead
        of running the window to completion."""
        from repro.errors import QueryCancelled
        from repro.resilience.faults import Fault, FaultPlan, inject
        from repro.streaming.runner import WindowUpdate

        rng = np.random.default_rng(0)
        # Group "a" separates (and finalizes) almost immediately; "b"/"c"
        # have nearly equal means and need many more rounds.  Every shard
        # draw sleeps first, so the window is still sampling - not just not
        # yet reported - when cancel() fires.
        data = {
            "g": np.concatenate(
                [np.repeat("a", 2_000), np.tile(np.array(["b", "c"]), 20_000)]
            ),
            "v": np.concatenate(
                [rng.normal(5.0, 1.0, 2_000), rng.normal(25.0, 1.0, 40_000)]
            ).clip(0, 50),
        }
        data["ts"] = np.arange(len(data["g"]), dtype=np.float64)
        session = connect(engine="memory", seed=0, delta=0.01, shards=2, executor="process")
        session.register("events", data)
        spec = (
            session.table("events").group_by("g").agg("AVG(v)")
            .window(float(len(data["g"])), on="ts").spec()
        )
        plan = FaultPlan([Fault("delay_shard", delay_s=0.1, times=1_000)])
        with inject(plan):
            runner = WindowRunner(spec, session.catalog, seed=0, emit_updates=True)
            events = runner.run()
            # The generator suspends at the first per-group update: the
            # window is genuinely mid-evaluation when cancel() fires.
            first = next(e for e in events if isinstance(e, WindowUpdate))
            assert first.update.group.label == "a"
            fired_at_cancel = len(plan.fired())
            runner.cancel()
            with pytest.raises(QueryCancelled):
                list(events)
        # At most the batch in flight finished drawing after the cancel.
        assert len(plan.fired()) <= fired_at_cancel + 2
        session.close()
