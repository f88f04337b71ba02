"""Micro-benchmarks of the core algorithm paths (statistical timings).

The ``bench``-marked cases track the fused-sampling path at k=1000:
``draw_block`` vs the per-group Python loop it replaced, and a full IFOCUS
run through the fused executor (whose end-to-end guard is the ``wide_k1000``
workload of ``bench_e2e``; ``repro.core.reference`` is the correctness
oracle).  ``session_stream_dense`` guards the live-stream door,
``session_sum_sparse`` the SUM door and ``session_multi_avg_dense`` the
two-AVG door (Problem 8), which all run the same executor;
``session_process_repeat_query`` guards the catalog's fan-out cache.  Export with ``python -m repro bench-export`` (writes
BENCH_micro.json).
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.core.confidence import EpsilonSchedule, ifocus_epsilon
from repro.core.ifocus import run_ifocus
from repro.core.intervals import separated_equal_width_batch
from repro.data.synthetic import make_mixture_dataset
from repro.engines.memory import InMemoryEngine
from repro import SourceSpec
from repro.session import avg, connect, total


def test_bench_ifocus_run(benchmark):
    """One IFOCUS run over a fixed 100k-row mixture dataset."""
    population = make_mixture_dataset(k=10, total_size=100_000, seed=7)
    engine = InMemoryEngine(population)
    result = benchmark(lambda: run_ifocus(engine, delta=0.05, seed=7))
    benchmark.extra_info["k"] = 10
    assert result.k == 10


def test_bench_epsilon_schedule(benchmark):
    """Vectorized epsilon over a 1e5-round batch."""
    schedule = EpsilonSchedule(k=10, delta=0.05, c=100.0)
    rounds = np.arange(2, 100_002, dtype=np.float64)
    out = benchmark(lambda: schedule.segment(rounds, 1e6))
    benchmark.extra_info["k"] = 10
    assert np.all(np.asarray(out) > 0)


def test_bench_epsilon_scalar(benchmark):
    out = benchmark(lambda: ifocus_epsilon(5000, k=10, delta=0.05, c=100.0, n=1e6))
    benchmark.extra_info["k"] = 10
    assert out > 0


def test_bench_separation_batch(benchmark):
    """Batched sorted-gap separation test on a 4096 x 10 estimate block."""
    rng = np.random.default_rng(0)
    estimates = rng.uniform(0, 100, size=(4096, 10))
    eps = rng.uniform(0.5, 5.0, size=4096)
    out = benchmark(lambda: separated_equal_width_batch(estimates, eps))
    benchmark.extra_info["k"] = 10
    assert out.shape == (4096, 10)


def test_bench_needletail_repeat_query(benchmark):
    """A repeated needletail query on a warm Session: 200k rows, k=8.

    Guards the catalog's engine build cache - the index belongs to the
    table, so only the first query builds it.  Losing the cache re-runs the
    ``BitmapIndex`` construction per query: ~3x on this op (23 ms vs 7 ms
    where it was added), above ``check_bench.py``'s 2x threshold.
    """
    rng = np.random.default_rng(11)
    gid = rng.integers(0, 8, 200_000)
    values = (np.linspace(10.0, 90.0, 8)[gid] + rng.normal(0.0, 10.0, gid.size)).clip(0.0, 100.0)
    session = connect(engine="needletail", delta=0.05)
    session.attach("t", {"g": np.array([f"g{i}" for i in range(8)])[gid], "v": values})
    query = session.table("t").group_by("g").agg(avg("v"))
    query.run(seed=7)  # the one cold build, off the clock
    result = benchmark(lambda: query.run(seed=7))
    benchmark.extra_info["k"] = 8
    session.close()
    assert len(result.labels) == 8


def test_bench_session_sum_sparse(benchmark):
    """``SUM(v)`` ``.run()`` on a warm needletail Session: 200k rows, k=8.

    Guards SUM on the one executor: Algorithm 4 is a leave rule of the
    batched IFOCUS loop, so it costs about an AVG run.  A per-sample SUM
    loop (~55 us a sample) is many times that, far above
    ``check_bench.py``'s 2x threshold.
    """
    rng = np.random.default_rng(11)
    gid = rng.integers(0, 8, 200_000)
    values = (np.linspace(10.0, 90.0, 8)[gid] + rng.normal(0.0, 10.0, gid.size)).clip(0.0, 100.0)
    session = connect(engine="needletail", delta=0.05)
    session.attach("t", {"g": np.array([f"g{i}" for i in range(8)])[gid], "v": values})
    query = session.table("t").group_by("g").agg(total("v"))
    query.run(seed=7)  # the one cold build, off the clock
    result = benchmark(lambda: query.run(seed=7))
    benchmark.extra_info["k"] = 8
    session.close()
    assert result.first.algorithm == "ifocus-sum"


def test_bench_session_multi_avg_dense(benchmark):
    """A two-AVG ``.run()`` on a warm needletail Session: flights 200k, k=19.

    Guards Problem 8 on the one executor: the query is two batched IFOCUS
    runs at delta/2 over shared permutations, so it costs about two
    single-AVG runs.  A per-sample two-phase loop is ~80x a single run
    (~6 s), far above ``check_bench.py``'s 2x threshold.
    """
    session = connect(engine="needletail", delta=0.05)
    session.attach("flights", SourceSpec("flights", rows=200_000, seed=0))
    query = (
        session.table("flights")
        .group_by("carrier")
        .agg(avg("arrival_delay"), avg("departure_delay"))
    )
    query.run(seed=1)  # the cold index builds, off the clock
    result = benchmark.pedantic(
        lambda: query.run(seed=1), rounds=5, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info["k"] = len(result.labels)
    session.close()
    assert result.engine is not None


def test_bench_session_stream_dense(benchmark):
    """A live ``.stream()`` to done on a warm Session: flights 200k, k=19.

    Guards the one-executor property: a stream is the batched executor with
    an ``on_finalize`` hook, so it costs about one ``.run()`` (~70 ms where
    it was added).  A stream on a per-sample loop is ~100x that, far above
    ``check_bench.py``'s 2x threshold.
    """
    session = connect(engine="needletail", delta=0.05)
    session.attach("flights", SourceSpec("flights", rows=200_000, seed=0))
    query = session.table("flights").group_by("carrier").agg(avg("arrival_delay"))
    query.run(seed=1)  # the one cold index build, off the clock
    result = benchmark.pedantic(
        lambda: query.stream(seed=1).drain(), rounds=5, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info["k"] = len(result.labels)
    session.close()
    assert result.first.algorithm == "ifocus"


def test_bench_session_process_repeat_query(benchmark):
    """A repeated ``.sharded(2, executor="process")`` query on a warm
    Session: flights 200k, k=19, memory engine.

    Guards the catalog's fan-out cache - the workers belong to the catalog,
    so only the first query spawns them.  Losing the cache spawns and shuts
    down two spawn workers per query: ~13x on this op (~700 ms vs ~55 ms
    where it was added, 2-vCPU x86_64), far above ``check_bench.py``'s 2x
    threshold.
    """
    session = connect(engine="memory", delta=0.05)
    session.attach("flights", SourceSpec("flights", rows=200_000, seed=0))
    query = (
        session.table("flights")
        .group_by("carrier")
        .agg(avg("arrival_delay"))
        .sharded(2, executor="process")
    )
    query.run(seed=1)  # the one spawn, off the clock
    result = benchmark(lambda: query.run(seed=1))
    benchmark.extra_info["k"] = len(result.labels)
    session.close()
    assert result.engine.executor == "process"


# ---------------------------------------------------------------------------
# Fused-sampling trajectory benchmarks (k = 1000; REPRO_RUN_BENCH=1 to run)
# ---------------------------------------------------------------------------

_K_LARGE = 1000


@lru_cache(maxsize=1)
def _k1000_engine() -> InMemoryEngine:
    population = make_mixture_dataset(
        k=_K_LARGE, total_size=1_000_000, seed=31, materialize=True
    )
    return InMemoryEngine(population)


@pytest.mark.bench
def test_bench_draw_block_k1000(benchmark):
    """Fused block draw: 64 rounds x 1000 groups in one gather."""
    engine = _k1000_engine()
    gids = np.arange(_K_LARGE)

    def setup():
        run = engine.open_run(seed=1)
        run.draw_block(gids, 1)  # materialize the permutations off the clock
        return (run,), {}

    out = benchmark.pedantic(
        lambda run: run.draw_block(gids, 64), setup=setup, rounds=10, iterations=1
    )
    benchmark.extra_info["k"] = _K_LARGE
    assert out.shape == (64, _K_LARGE)


@pytest.mark.bench
def test_bench_draw_block_pergroup_k1000(benchmark):
    """The replaced path: one Python draw call per group plus np.stack."""
    engine = _k1000_engine()
    gids = np.arange(_K_LARGE)

    def setup():
        run = engine.open_run(seed=1)
        run.draw_block(gids, 1)
        return (run,), {}

    out = benchmark.pedantic(
        lambda run: np.stack([run.draw(int(g), 64) for g in gids], axis=1),
        setup=setup,
        rounds=10,
        iterations=1,
    )
    benchmark.extra_info["k"] = _K_LARGE
    assert out.shape == (64, _K_LARGE)


@pytest.mark.bench
def test_bench_ifocus_k1000_fused(benchmark):
    """Full IFOCUS run at k=1000 through the fused executor."""
    engine = _k1000_engine()
    result = benchmark.pedantic(
        lambda: run_ifocus(engine, delta=0.05, seed=33),
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )
    benchmark.extra_info["k"] = _K_LARGE
    assert result.k == _K_LARGE
