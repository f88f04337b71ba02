"""Table 1 reproduction: an IFOCUS execution trace.

The paper's Table 1 walks four groups through the rounds, showing each
group's confidence interval and whether it is still active, plus the
resulting cost decomposition C = sum over phases of (#rounds x #active).
This module re-creates that trace on a four-group instance shaped like the
example (intervals around 75/35/25/55 on [0, 100]).
"""

from __future__ import annotations

import numpy as np

from repro.core.ifocus import run_ifocus
from repro.data.population import MaterializedGroup, Population
from repro.engines.memory import InMemoryEngine
from repro.experiments.config import Scale, current_scale
from repro.experiments.report import FigureResult

__all__ = ["table1_execution_trace"]


def _example_population(seed: int) -> Population:
    """Four groups echoing the paper's Table 1 example."""
    rng = np.random.default_rng(seed)
    means = [75.0, 35.0, 25.0, 55.0]
    groups = [
        MaterializedGroup(f"group{i+1}", np.clip(rng.normal(mu, 12.0, 30_000), 0, 100))
        for i, mu in enumerate(means)
    ]
    return Population(groups=groups, c=100.0)


def table1_execution_trace(scale: Scale | None = None) -> FigureResult:
    """Trace rows: per-round confidence intervals and active flags."""
    scale = scale or current_scale()
    population = _example_population(scale.seed + 1)
    engine = InMemoryEngine(population)
    result = run_ifocus(engine, delta=scale.delta, seed=scale.seed + 1, trace_every=1)
    trace = result.trace
    assert trace is not None

    # Show the first rounds, every round where the active set changes, and
    # the final round - the same rows the paper's table highlights.
    interesting: list[int] = []
    prev_active: tuple[int, ...] | None = None
    for idx, snap in enumerate(trace):
        if idx < 2 or snap.active != prev_active or idx == len(trace) - 1:
            interesting.append(idx)
        prev_active = snap.active
    rows = []
    snapshots = list(trace)
    for idx in interesting:
        snap = snapshots[idx]
        row: list[object] = [snap.round_index]
        for gid in range(population.k):
            lo = snap.estimates[gid] - snap.epsilon
            hi = snap.estimates[gid] + snap.epsilon
            flag = "A" if gid in snap.active else "I"
            row.append(f"[{lo:6.1f},{hi:6.1f}] {flag}")
        rows.append(row)

    # Cost decomposition like the paper's C = 21x4 + (58-21)x3 + ...
    exit_rounds = sorted(set(g.finalized_round for g in result.groups))
    active = population.k
    prev = 0
    pieces = []
    for r in exit_rounds:
        leaving = sum(1 for g in result.groups if g.finalized_round == r)
        pieces.append(f"({r}-{prev})x{active}")
        active -= leaving
        prev = r
    cost = " + ".join(pieces)
    notes = [
        f"total cost C = {result.total_samples} = {cost}",
        f"true means: {np.round(population.true_means(), 1).tolist()}",
    ]
    return FigureResult(
        figure="table1",
        title="IFOCUS execution trace (4 groups)",
        headers=["round"] + [g.name for g in population.groups],
        rows=rows,
        notes=notes,
        raw={"result": result},
    )
