"""WindowRunner guarantees: bit-identity, lateness, deadlines, warm start.

The correctness anchor of the streaming subsystem: every tumbling window's
result is BIT-IDENTICAL (canonical dict equality minus wall-clock fields)
to a one-shot Session query over exactly that window's rows with the same
per-window seed - across engines and shard counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from streamutil import (
    DATA,
    N,
    SCHEMA,
    canon,
    make_session,
    oneshot_session,
    window_rows,
)
from repro.catalog import Catalog, IteratorSource
from repro.streaming import WindowSpec
from repro.streaming.runner import (
    LateDataError,
    WindowResult,
    WindowRunner,
    WindowUpdate,
)


def results_of(cq) -> list[WindowResult]:
    return [e for e in cq if isinstance(e, WindowResult)]


def windowed(session, **window_kwargs):
    return (
        session.table("events").group_by("g").agg("AVG(v)")
        .window(**window_kwargs)
    )


class TestTumblingBitIdentity:
    @pytest.mark.parametrize("engine", ["memory", "needletail"])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_matches_one_shot_query_per_window(self, engine, shards):
        session = make_session(engine=engine, shards=shards)
        cq = windowed(session, size=200.0, on="ts").subscribe(
            seed=11, emit_updates=False
        )
        results = results_of(cq)
        # ts spans [0, 600): two windows close on watermark, the last at EOS.
        assert [r.window.index for r in results] == [0, 1, 2]
        assert results[-1].closed_by == "end_of_stream"
        for wr in results:
            assert wr.seed == 11 + wr.window.index
            oneshot = oneshot_session(
                window_rows(wr.window.start, wr.window.end),
                engine=engine,
                shards=shards,
            )
            expected = (
                oneshot.table("events").group_by("g").agg("AVG(v)")
                .run(seed=wr.seed)
            )
            assert canon(wr.result) == canon(expected)
            oneshot.close()
        session.close()

    def test_stream_path_matches_session_stream(self):
        """emit_updates=True runs the live-stream code path bit-identically."""
        session = make_session()
        cq = windowed(session, size=300.0, on="ts").subscribe(seed=5)
        events = list(cq)
        updates = [e for e in events if isinstance(e, WindowUpdate)]
        results = [e for e in events if isinstance(e, WindowResult)]
        assert updates, "emit_updates=True must yield per-group updates"
        assert all(u.window.index in (0, 1) for u in updates)
        for wr in results:
            oneshot = oneshot_session(window_rows(wr.window.start, wr.window.end))
            stream = (
                oneshot.table("events").group_by("g").agg("AVG(v)")
                .stream(seed=wr.seed)
            )
            oneshot_updates = list(stream)
            assert canon(wr.result) == canon(stream.result)
            window_updates = [
                u.update.to_dict() for u in updates
                if u.window.index == wr.window.index
            ]
            assert window_updates == [u.to_dict() for u in oneshot_updates]
            oneshot.close()
        session.close()

    def test_emit_updates_does_not_change_results(self):
        """Live updates are the executor's on_finalize hook, not another run:
        emit_updates=True and False close bit-identical windows."""
        results = {}
        for emit in (True, False):
            session = make_session()
            cq = windowed(session, size=200.0, on="ts").subscribe(seed=5, emit_updates=emit)
            results[emit] = [canon(wr.result) for wr in results_of(cq)]
            session.close()
        assert len(results[True]) == 3
        assert results[True] == results[False]

    def test_row_count_windows(self):
        session = make_session(chunk_rows=100)
        cq = windowed(session, size=150).subscribe(seed=3, emit_updates=False)
        results = results_of(cq)
        assert [r.window.index for r in results] == [0, 1, 2, 3]
        assert all(r.rows == 150 for r in results)
        assert all(r.closed_by == "row_count" for r in results)
        for wr in results:
            sel = slice(int(wr.window.start), int(wr.window.end))
            oneshot = oneshot_session({k: v[sel] for k, v in DATA.items()})
            expected = (
                oneshot.table("events").group_by("g").agg("AVG(v)")
                .run(seed=wr.seed)
            )
            assert canon(wr.result) == canon(expected)
            oneshot.close()
        session.close()

    def test_chunk_exactly_on_boundary(self):
        """Chunks aligned to the window grid: no row straddles, all close."""
        session = make_session(chunk_rows=100)
        cq = windowed(session, size=100.0, on="ts").subscribe(
            seed=0, emit_updates=False
        )
        results = results_of(cq)
        assert [r.window.index for r in results] == list(range(6))
        assert all(r.rows == 100 for r in results)
        # Boundary row ts=100 belongs to window 1 (half-open intervals).
        w1 = window_rows(100.0, 200.0)
        assert w1["ts"].min() == 100.0 and len(w1["ts"]) == 100
        session.close()


class TestEmptyAndBounds:
    def test_interior_empty_windows_emit_empty_results(self):
        gap_order = np.concatenate([np.arange(50), np.arange(300, 350)])
        session = make_session(chunk_rows=50, order=gap_order)
        cq = windowed(session, size=100.0, on="ts").subscribe(
            seed=0, emit_updates=False
        )
        results = results_of(cq)
        assert [r.window.index for r in results] == [0, 1, 2, 3]
        assert not results[0].empty and results[0].rows == 50
        assert results[1].empty and results[1].result is None and results[1].rows == 0
        assert results[2].empty
        assert not results[3].empty and results[3].closed_by == "end_of_stream"
        session.close()

    def test_leading_empty_windows_are_skipped(self):
        """A stream starting at ts=300 does not flood windows 0..2."""
        late_start = np.arange(300, 500)
        session = make_session(chunk_rows=50, order=late_start)
        cq = windowed(session, size=100.0, on="ts").subscribe(
            seed=0, emit_updates=False
        )
        results = results_of(cq)
        assert [r.window.index for r in results] == [3, 4]
        session.close()

    def test_max_windows_stops_the_stream(self):
        session = make_session()
        cq = windowed(session, size=100.0, on="ts").subscribe(
            seed=0, max_windows=2, emit_updates=False
        )
        results = results_of(cq)
        assert [r.window.index for r in results] == [0, 1]
        session.close()


class TestLatePolicies:
    # ts 0..99 arrive, then 200..299 (watermark closes [0,100)), then
    # rows 40..49 arrive again - late for window 0 - then 300..349.
    LATE_ORDER = np.concatenate(
        [np.arange(100), np.arange(200, 300), np.arange(40, 50), np.arange(300, 350)]
    )

    def _run(self, late: str):
        session = make_session(chunk_rows=50, order=self.LATE_ORDER)
        cq = windowed(session, size=100.0, on="ts", late=late).subscribe(
            seed=0, emit_updates=False
        )
        try:
            return session, list(cq.updates()), cq
        finally:
            session.close()

    def test_drop_counts_and_discards(self):
        _session, events, cq = self._run("drop")
        results = [e for e in events if isinstance(e, WindowResult)]
        window0 = [r for r in results if r.window.index == 0]
        assert len(window0) == 1  # never re-emitted
        assert window0[0].rows == 100
        assert cq.stats()["late_dropped"] == 10

    def test_recompute_re_emits_a_revision(self):
        _session, events, cq = self._run("recompute")
        results = [e for e in events if isinstance(e, WindowResult)]
        window0 = [r for r in results if r.window.index == 0]
        assert len(window0) == 2
        first, revised = window0
        assert (first.revision, revised.revision) == (0, 1)
        assert revised.closed_by == "late_recompute"
        assert revised.late_rows == 10
        assert revised.rows == 110
        assert cq.stats()["late_recomputed"] == 10
        # The revision is itself bit-identical to a one-shot over the
        # window's rows in arrival order (original 100, then the late 10).
        sel = np.concatenate([np.arange(100), np.arange(40, 50)])
        oneshot = oneshot_session({k: v[sel] for k, v in DATA.items()})
        expected = (
            oneshot.table("events").group_by("g").agg("AVG(v)")
            .run(seed=revised.seed)
        )
        assert canon(revised.result) == canon(expected)
        oneshot.close()

    def test_error_raises_late_data_error(self):
        session = make_session(chunk_rows=50, order=self.LATE_ORDER)
        cq = windowed(session, size=100.0, on="ts", late="error").subscribe(
            seed=0, emit_updates=False
        )
        with pytest.raises(LateDataError):
            list(cq.updates())
        session.close()

    def test_allowed_lateness_holds_windows_open(self):
        # With 250 units of slack the watermark stays below 100 until end
        # of stream (max ts 349 -> watermark 99), so window 0 is still open
        # when rows 40..49 re-arrive: they are on time, not late.
        session = make_session(chunk_rows=50, order=self.LATE_ORDER)
        cq = windowed(
            session, size=100.0, on="ts", late="drop", allowed_lateness=250.0
        ).subscribe(seed=0, emit_updates=False)
        results = [e for e in cq.updates() if isinstance(e, WindowResult)]
        assert cq.stats()["late_dropped"] == 0
        window0 = [r for r in results if r.window.index == 0]
        assert window0[0].rows == 110
        session.close()


class TestDeadlines:
    def test_deadline_expiry_mid_window_continues_the_stream(self):
        """A per-window deadline finalizes that window early (anytime
        answer, deadline_exceeded caveat) and the next window still runs."""
        rng = np.random.default_rng(0)
        n = 40_000
        data = {
            # Equal means: inseparable at any sample size, so every window
            # runs until its budget (or exhaustion) stops it.
            "g": np.tile(np.array(["x", "y"]), n // 2),
            "v": rng.normal(25.0, 1.0, n).clip(0, 50),
            "ts": np.arange(n, dtype=np.float64),
        }
        from repro.session import connect

        session = connect(engine="memory", seed=0, delta=0.05)
        session.register(
            "events",
            IteratorSource(
                lambda: iter(
                    {k: v[s:s + 10_000] for k, v in data.items()}
                    for s in range(0, n, 10_000)
                ),
                schema=SCHEMA,
            ),
        )
        cq = (
            session.table("events").group_by("g").agg("AVG(v)")
            .deadline(1.0)
            .window(20_000)
            .subscribe(seed=0, emit_updates=False)
        )
        results = results_of(cq)
        assert [r.window.index for r in results] == [0, 1]
        assert all(r.result.deadline_exceeded for r in results)
        session.close()


class TestWarmStart:
    def _results(self, warm: bool):
        session = make_session()
        cq = windowed(session, size=200.0, every=100.0, on="ts").subscribe(
            seed=9, warm_start=warm, emit_updates=False
        )
        results = results_of(cq)
        session.close()
        return results

    def test_sliding_warm_start_is_bit_identical_to_cold(self):
        warm = self._results(True)
        cold = self._results(False)
        assert len(warm) == len(cold) and len(warm) >= 4
        for w, c in zip(warm, cold):
            assert w.window == c.window
            assert canon(w.result) == canon(c.result)
        # Windows past the first actually reused predecessor panes.
        assert any(r.warm_start for r in warm[1:])
        assert not any(r.warm_start for r in cold)

    def test_sliding_matches_one_shot_per_window(self):
        for wr in self._results(True):
            oneshot = oneshot_session(window_rows(wr.window.start, wr.window.end))
            expected = (
                oneshot.table("events").group_by("g").agg("AVG(v)")
                .run(seed=wr.seed)
            )
            assert canon(wr.result) == canon(expected)
            oneshot.close()


class TestRunnerDirect:
    def test_requires_windowed_spec(self, stream_session):
        spec = stream_session.table("events").group_by("g").agg("AVG(v)").spec()
        catalog = Catalog()
        with pytest.raises(ValueError, match="no window"):
            WindowRunner(spec, catalog)

    def test_unknown_table_rejected(self, stream_session):
        spec = (
            stream_session.table("events").group_by("g").agg("AVG(v)")
            .window(100.0, on="ts").spec()
        )
        with pytest.raises(KeyError, match="unknown table"):
            WindowRunner(spec, Catalog())

    def test_window_column_must_be_numeric(self, stream_session):
        spec = (
            stream_session.table("events").group_by("g").agg("AVG(v)")
            .window(100.0, on="g").spec()
        )
        with pytest.raises(ValueError, match="numeric"):
            WindowRunner(spec, stream_session.catalog)

    def test_stats_shape(self, stream_session):
        spec = (
            stream_session.table("events").group_by("g").agg("AVG(v)")
            .window(100.0, on="ts").spec()
        )
        runner = WindowRunner(spec, stream_session.catalog, seed=0)
        list(runner.run())
        stats = runner.stats()
        assert stats["rows_seen"] == N
        assert stats["windows_emitted"] == 6
        assert stats["late_dropped"] == 0
