"""Benchmark-suite configuration.

Every figure/table benchmark runs the corresponding experiment exactly once
(``benchmark.pedantic(rounds=1)``) - the experiments are themselves repeated
trials internally - and prints the paper-style table so the suite's output
doubles as the reproduction report.  Set ``REPRO_SCALE=paper`` for the
full-scale run (hours); the default ``smoke`` scale finishes in minutes.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import current_scale
from tests.conftest import PINNED, assert_rows_pinned


def pytest_collection_modifyitems(config, items):
    """Deselect ``bench``-marked items unless explicitly requested.

    The heavy perf-trajectory benchmarks (the k=1000 fused runs) are
    not part of the tier-1 suite; ``REPRO_RUN_BENCH=1`` (set by
    ``python -m repro bench-export`` / scripts/bench_export.py) enables them.
    Deselection (rather than skip markers or collection errors) keeps
    ``pytest benchmarks`` green in any environment, so CI jobs never need to
    special-case paths - REPRO_RUN_BENCH is the only switch.
    """
    if os.environ.get("REPRO_RUN_BENCH") not in (None, "", "0"):
        return
    kept, deselected = [], []
    for item in items:
        (deselected if "bench" in item.keywords else kept).append(item)
    if deselected:
        config.hook.pytest_deselected(items=deselected)
        items[:] = kept


@pytest.fixture(scope="session", autouse=True)
def announce_scale():
    scale = current_scale()
    print(
        f"\n[repro] benchmark scale = {scale.name!r} "
        f"(sizes={list(scale.dataset_sizes)}, trials={scale.trials}); "
        "set REPRO_SCALE=paper for full-scale runs\n"
    )
    yield


@pytest.fixture()
def assert_pinned():
    """Check a smoke-scale figure against ``tests/experiments/pinned_seconds.json``.

    Simulated seconds must agree with the pinned rows to ``rel=1e-12`` and
    every other cell exactly (``tests.conftest.assert_rows_pinned``); other
    scales have no pinned rows and pass.
    """

    def _check(fig) -> None:
        if current_scale().name == "smoke":
            assert_rows_pinned(fig, PINNED["smoke"][fig.figure])

    return _check


@pytest.fixture()
def run_figure(benchmark, capsys):
    """Run a figure function once under the benchmark clock and print it."""

    def _run(fig_fn, *args, **kwargs):
        result = benchmark.pedantic(fig_fn, args=args, kwargs=kwargs, iterations=1, rounds=1)
        with capsys.disabled():
            print()
            print(result.format())
        return result

    return _run
