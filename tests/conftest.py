"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.data.distributions import TruncatedNormal, TwoPoint
from repro.data.population import MaterializedGroup, Population, VirtualGroup
from repro.engines.memory import InMemoryEngine


def make_materialized_population(
    means: list[float],
    sizes: list[int] | int = 2000,
    spread: float = 5.0,
    c: float = 100.0,
    seed: int = 0,
) -> Population:
    """A materialized population with groups roughly at the given means."""
    rng = np.random.default_rng(seed)
    if isinstance(sizes, int):
        sizes = [sizes] * len(means)
    groups = []
    for i, (mu, n) in enumerate(zip(means, sizes)):
        values = np.clip(rng.normal(mu, spread, n), 0.0, c)
        groups.append(MaterializedGroup(f"g{i}", values))
    return Population(groups=groups, c=c)


def make_virtual_population(
    means: list[float],
    sizes: list[int] | int = 10**6,
    spread: float = 5.0,
    c: float = 100.0,
) -> Population:
    """A virtual (distribution-backed) population with exact analytic means."""
    if isinstance(sizes, int):
        sizes = [sizes] * len(means)
    groups = [
        VirtualGroup(f"g{i}", TruncatedNormal(mu, spread, 0.0, c), n)
        for i, (mu, n) in enumerate(zip(means, sizes))
    ]
    return Population(groups=groups, c=c)


def make_twopoint_population(
    ps: list[float], sizes: list[int] | int = 10**6, c: float = 100.0
) -> Population:
    """Bernoulli-style virtual population (the paper's highest-variance case)."""
    if isinstance(sizes, int):
        sizes = [sizes] * len(ps)
    groups = [
        VirtualGroup(f"g{i}", TwoPoint(p, 0.0, c), n)
        for i, (p, n) in enumerate(zip(ps, sizes))
    ]
    return Population(groups=groups, c=c)


@pytest.fixture
def small_engine() -> InMemoryEngine:
    """Four well-separated materialized groups - fast, deterministic runs."""
    pop = make_materialized_population([20.0, 40.0, 60.0, 80.0], sizes=3000, seed=7)
    return InMemoryEngine(pop)


@pytest.fixture
def close_engine() -> InMemoryEngine:
    """Five groups with one close pair (42 vs 45) - exercises focusing."""
    pop = make_materialized_population([10.0, 42.0, 45.0, 70.0, 90.0], sizes=5000, seed=11)
    return InMemoryEngine(pop)


@pytest.fixture
def virtual_engine() -> InMemoryEngine:
    """Virtual population: analytic means, effectively unlimited draws."""
    pop = make_virtual_population([15.0, 35.0, 55.0, 75.0], sizes=10**7)
    return InMemoryEngine(pop)


#: Rows ``table3``, ``fig4``, ``headline`` and ``ablation-costmodel`` printed
#: at the micro and smoke scales when engines still priced every charge
#: through a cost model, keyed ``PINNED[scale][figure]``.
PINNED = json.loads((Path(__file__).parent / "experiments" / "pinned_seconds.json").read_text())
_SECONDS_HEADERS = {"total_s", "io_s", "cpu_s", "sim_seconds"}


def assert_rows_pinned(fig, pinned: dict) -> None:
    """``fig``'s rows equal ``pinned``'s: seconds to ``rel=1e-12``, the rest exactly.

    Pricing a finished run from its counts sums in another order than
    per-charge pricing did, so seconds may differ in the last bits; sample
    counts and percentages may not.  Seconds are the ``_SECONDS_HEADERS``
    columns, and every column after ``attribute, algorithm`` in ``table3``.
    """
    assert fig.headers == pinned["headers"]
    timed = [
        h in _SECONDS_HEADERS or (fig.figure == "table3" and i >= 2)
        for i, h in enumerate(fig.headers)
    ]
    assert len(fig.rows) == len(pinned["rows"])
    for row, want in zip(fig.rows, pinned["rows"]):
        for is_seconds, got, expected in zip(timed, row, want):
            if is_seconds:
                assert got == pytest.approx(expected, rel=1e-12, abs=0.0), row
            else:
                assert got == expected, row
