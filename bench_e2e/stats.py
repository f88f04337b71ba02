"""The benchmark's statistics: per-op latency and percentiles."""

from __future__ import annotations

import math


def per_op_best(rounds: list[list[float]]) -> list[float]:
    """Op i's latency = the fastest of its timings across the rounds.

    Interference on a shared box only ever adds time.  On the 2-core VM the
    benchmark was sized on, a fixed numpy kernel's median over a 6 s window
    moved by 14 % (IQR / median) between windows, its lower quartile by 8 %,
    its minimum by 2.5 %; the median of five replays inherits the first
    figure, the fastest of five tracks what the code costs when nothing else
    runs.  Percentiles over the ops then show how ops differ from each
    other, not how rounds differ.
    """
    if not rounds:
        raise ValueError("no rounds")
    n = len(rounds[0])
    if any(len(r) != n for r in rounds):
        raise ValueError("rounds replay different op counts")
    return [min(r[i] for r in rounds) for i in range(n)]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100]) - always a measured value."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def highest_supported_percentile(n: int) -> float | None:
    """The highest of p50/p90/p99 with at least ten samples beyond it."""
    for q in (99.0, 90.0):
        if n - math.ceil(q / 100.0 * n) >= 10:
            return q
    return None
