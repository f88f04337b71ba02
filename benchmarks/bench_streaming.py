"""Continuous-query throughput: windows/sec and sliding warm-start reuse.

The PR-9 streaming tier turns one-shot IFOCUS queries into windowed
streams: :class:`~repro.streaming.runner.WindowRunner` cuts an unbounded
chunk stream into half-open windows and runs the ordinary sampling loop
inside each one.  These ops record that trajectory:

* ``windows_per_sec`` and ``window_p50_s`` - steady-state tumbling
  throughput (how fast closed windows drain out of a stream);
* ``cold_s`` vs ``warm_s`` - sliding windows with ``every < size``
  recomputed from scratch versus warm-started from the overlapping
  predecessor panes.  The heavy case asserts warm start actually wins
  AND that the two produce bit-identical results (minus wall-clock
  fields) - speed must never buy a different answer.

All ops export with ``"guard": false``: windows/sec measures the sampling
loop on whatever machine recorded it, so ``scripts/check_bench.py`` must
never treat these medians as regression evidence.

Export with ``python -m repro bench-export`` (writes BENCH_micro.json).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.catalog import IteratorSource, Schema
from repro.session import connect
from repro.streaming.runner import WindowResult, WindowRunner

_CHUNK_ROWS = 5_000
_WINDOW_ROWS = 10_000
_SLIDE_WINDOW_ROWS = 50_000
_ROWS_SMOKE = 60_000
_ROWS_FULL = 400_000
_REPS = 5

#: Well-separated group means: IFOCUS orders these in a handful of sampling
#: rounds, so per-window cost is dominated by assembling the grouped
#: population - exactly the work sliding warm start reuses across panes.
_MEANS = {"a": 5.0, "b": 15.0, "c": 30.0, "d": 45.0}


def _dataset(n: int, seed: int = 13) -> dict:
    rng = np.random.default_rng(seed)
    g = rng.choice(np.array(list(_MEANS)), n)
    mu = np.vectorize(_MEANS.get)(g)
    return {
        "g": g,
        "v": (mu + rng.normal(0.0, 1.0, n)).clip(0, 50),
        "ts": np.arange(n, dtype=np.float64),
    }


def _session(data: dict):
    schema = Schema.from_arrays({k: v[:1] for k, v in data.items()})
    n = len(data["ts"])

    def chunks():
        for start in range(0, n, _CHUNK_ROWS):
            yield {k: v[start:start + _CHUNK_ROWS] for k, v in data.items()}

    session = connect(engine="memory", seed=0, delta=0.1)
    session.register("events", IteratorSource(chunks, schema=schema))
    return session


def _spec(session, *, size: int = _WINDOW_ROWS, every: float | None = None):
    return (
        session.table("events").group_by("g").agg("AVG(v)")
        .window(float(size), every=every, on="ts")
        .spec()
    )


def _drain(session, spec, *, warm_start: bool):
    """Run the stream to completion; per-window close-to-close latencies."""
    runner = WindowRunner(
        spec, session.catalog, seed=7, warm_start=warm_start, emit_updates=False
    )
    results = []
    latencies = []
    t0 = time.perf_counter()
    mark = t0
    for event in runner.run():
        if isinstance(event, WindowResult):
            now = time.perf_counter()
            latencies.append(now - mark)
            mark = now
            results.append(event)
    return results, time.perf_counter() - t0, latencies


def _record_throughput(benchmark, results, elapsed, latencies) -> None:
    benchmark.extra_info["windows"] = len(results)
    benchmark.extra_info["rows"] = int(sum(r.rows for r in results))
    benchmark.extra_info["windows_per_sec"] = len(results) / elapsed
    benchmark.extra_info["window_p50_s"] = statistics.median(latencies)
    benchmark.extra_info["guard"] = False


def test_bench_streaming_tumbling_smoke(benchmark):
    """Light sanity case (runs in --smoke): tumbling windows/sec over a
    small stream, with the per-window p50 in ``extra_info``."""
    session = _session(_dataset(_ROWS_SMOKE))
    spec = _spec(session)

    def drain():
        return _drain(session, spec, warm_start=False)

    results, elapsed, latencies = benchmark.pedantic(drain, rounds=3, iterations=1)
    assert len(results) == _ROWS_SMOKE // _WINDOW_ROWS
    assert all(r.rows == _WINDOW_ROWS for r in results)
    _record_throughput(benchmark, results, elapsed, latencies)
    session.close()


@pytest.mark.bench
def test_bench_streaming_tumbling_throughput(benchmark):
    """Steady-state tumbling throughput: 40 windows of 10k rows."""
    session = _session(_dataset(_ROWS_FULL))
    spec = _spec(session)

    def drain():
        return _drain(session, spec, warm_start=False)

    results, elapsed, latencies = benchmark.pedantic(
        drain, rounds=_REPS, iterations=1
    )
    assert len(results) == _ROWS_FULL // _WINDOW_ROWS
    _record_throughput(benchmark, results, elapsed, latencies)
    session.close()


@pytest.mark.bench
def test_bench_streaming_sliding_warm_start(benchmark):
    """The warm-start claim: sliding windows (stride = size/2) reusing the
    overlapping predecessor panes must beat recomputing every window from
    scratch, with bit-identical per-window results."""
    data = _dataset(_ROWS_FULL)
    session = _session(data)
    spec = _spec(session, size=_SLIDE_WINDOW_ROWS, every=_SLIDE_WINDOW_ROWS / 2)

    cold_results, *_ = _drain(session, spec, warm_start=False)
    cold = min(_drain(session, spec, warm_start=False)[1] for _ in range(_REPS))

    def drain_warm():
        return _drain(session, spec, warm_start=True)

    warm_results, warm_elapsed, latencies = benchmark.pedantic(
        drain_warm, rounds=_REPS, iterations=1
    )
    warm = min(warm_elapsed, min(drain_warm()[1] for _ in range(_REPS - 1)))

    assert len(warm_results) == len(cold_results)
    for w, c in zip(warm_results, cold_results):
        assert w.window == c.window
        assert w.result.to_dict() == c.result.to_dict()
    assert any(r.warm_start for r in warm_results[1:])
    assert warm < cold, (
        f"warm start must beat cold recompute: warm {warm:.3f}s "
        f"vs cold {cold:.3f}s"
    )
    _record_throughput(benchmark, warm_results, warm_elapsed, latencies)
    benchmark.extra_info["cold_s"] = cold
    benchmark.extra_info["warm_s"] = warm
    benchmark.extra_info["speedup_x"] = cold / warm
    session.close()
