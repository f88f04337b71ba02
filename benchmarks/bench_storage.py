"""Durable-store timings: cold population build vs warm memory-mapped re-open.

The storage tier exists to make re-opening a grouped population cheap:
``write_segment`` persists its values once, and a later
:class:`~repro.storage.DurableCatalog` open maps them back with
``np.memmap`` instead of re-scanning and re-grouping the relation.
These ops record that trajectory - ``cold_build_s`` (attach + prime from
rows), ``warm_open_s`` (fresh catalog, mapped population), and their ratio -
so the committed BENCH_micro.json carries the speedup claim the storage CI
leg (``scripts/storage_smoke.py``) gates on.

All ops export with ``"guard": false``: the medians measure disk, page
cache, and fsync latency on whatever machine recorded them, so
``scripts/check_bench.py`` must never treat them as regression evidence.

Export with ``python -m repro bench-export`` (writes BENCH_micro.json).
"""

from __future__ import annotations

import shutil
import time

import numpy as np
import pytest

from repro.data.population import BUILD_COUNTS
from repro.storage import DurableCatalog

_GROUPS = 64
_ROWS_PER_GROUP_SMOKE = 2_000
_ROWS_PER_GROUP_FULL = 20_000
_REPS = 5


def _dataset(rows_per_group: int, groups: int = _GROUPS, seed: int = 13):
    rng = np.random.default_rng(seed)
    return {
        "g": np.repeat([f"g{i:03d}" for i in range(groups)], rows_per_group),
        "v": rng.normal(50.0, 12.0, rows_per_group * groups).clip(0, 100),
    }


def _cold_build_seconds(store_dir, data) -> float:
    """Attach + prime from rows into an empty store (the one-time cost)."""
    shutil.rmtree(store_dir, ignore_errors=True)
    cat = DurableCatalog(store_dir)
    t0 = time.perf_counter()
    cat.attach("t", data)
    primed = cat.prime("t", "g", "v")
    elapsed = time.perf_counter() - t0
    assert primed == ["population"]
    cat.close()
    return elapsed


def _warm_open_seconds(store_dir) -> float:
    """Fresh catalog handle -> mapped population, no build from source rows."""
    before = dict(BUILD_COUNTS)
    cat = DurableCatalog(store_dir)
    t0 = time.perf_counter()
    cat.population("t", "g", "v")
    elapsed = time.perf_counter() - t0
    assert BUILD_COUNTS == {**before, "mapped": before["mapped"] + 1}
    cat.close()
    return elapsed


def _record(benchmark, store_dir, data) -> None:
    cold = min(_cold_build_seconds(store_dir, data) for _ in range(_REPS))
    warm = min(_warm_open_seconds(store_dir) for _ in range(_REPS))
    benchmark.extra_info["rows"] = len(data["v"])
    benchmark.extra_info["groups"] = _GROUPS
    benchmark.extra_info["cold_build_s"] = cold
    benchmark.extra_info["warm_open_s"] = warm
    benchmark.extra_info["speedup_x"] = cold / warm if warm else float("inf")
    benchmark.extra_info["guard"] = False


def test_bench_storage_warm_open_smoke(benchmark, tmp_path):
    """Light sanity case (runs in --smoke): the warm open itself, with the
    cold-vs-warm matrix in ``extra_info``."""
    store = tmp_path / "store"
    data = _dataset(_ROWS_PER_GROUP_SMOKE)
    _cold_build_seconds(store, data)  # populate once, off the clock

    def warm_open():
        before = BUILD_COUNTS["source"]
        cat = DurableCatalog(store)
        cat.population("t", "g", "v")
        cat.close()
        return BUILD_COUNTS["source"] - before

    assert benchmark.pedantic(warm_open, rounds=3, iterations=1) == 0
    _record(benchmark, store, data)


@pytest.mark.bench
def test_bench_storage_cold_vs_warm(benchmark, tmp_path):
    """The headline op: 1.28M rows, cold attach+prime vs mapped re-open."""
    store = tmp_path / "store"
    data = _dataset(_ROWS_PER_GROUP_FULL)
    _cold_build_seconds(store, data)

    def warm_open():
        before = BUILD_COUNTS["source"]
        cat = DurableCatalog(store)
        cat.population("t", "g", "v")
        cat.close()
        return BUILD_COUNTS["source"] - before

    assert benchmark.pedantic(warm_open, rounds=_REPS, iterations=1) == 0
    _record(benchmark, store, data)
