"""Figure 5 reproductions: heuristic shrinking and convergence.

* Fig 5(a): accuracy vs heuristic factor 2^0..2^6 on the mixture workload -
  shrinking the intervals faster than the theory allows immediately costs
  accuracy.
* Fig 5(b): the same on the hard two-point instance with factors 1.0-1.2 -
  even sampling 1% less breaks correctness on hard inputs.
* Fig 5(c): number of active groups vs samples taken, averaged over all
  datasets ("0" series) and over the hard datasets that needed at least 30%
  of the data ("3M" series in the paper's 10M setting).
"""

from __future__ import annotations

import numpy as np

from repro.core.ifocus import run_ifocus
from repro.data.synthetic import make_hard_dataset, make_mixture_dataset
from repro.engines.memory import InMemoryEngine
from repro.experiments.config import Scale, current_scale
from repro.experiments.report import FigureResult
from repro.experiments.runner import should_materialize
from repro.viz.properties import check_ordering

__all__ = [
    "fig5a_heuristic_accuracy",
    "fig5b_heuristic_accuracy_hard",
    "fig5c_active_groups_convergence",
    "collect_traces",
]


def _accuracy_sweep(
    factories,
    factors,
    scale: Scale,
    seed_base: int,
) -> list[list[object]]:
    rows = []
    for factor in factors:
        correct = []
        samples = []
        for t in range(scale.trials):
            seed = seed_base + t
            population = factories(seed)
            engine = InMemoryEngine(population)
            result = run_ifocus(
                engine,
                delta=scale.delta,
                resolution=scale.resolution,
                heuristic_factor=factor,
                seed=seed,
            )
            ok = check_ordering(
                result.estimates, population.true_means(), resolution=scale.resolution
            )
            correct.append(ok)
            samples.append(result.total_samples)
        rows.append([factor, float(np.mean(correct)), float(np.mean(samples))])
    return rows


def fig5a_heuristic_accuracy(scale: Scale | None = None) -> FigureResult:
    """Accuracy vs heuristic factor (mixture workload, IFOCUS-R)."""
    scale = scale or current_scale()

    def factory(seed: int):
        return make_mixture_dataset(
            k=scale.k, total_size=scale.default_size, seed=seed,
            materialize=should_materialize(scale.default_size),
        )

    rows = _accuracy_sweep(factory, scale.heuristic_factors, scale, scale.seed + 40)
    return FigureResult(
        figure="fig5a",
        title="Accuracy vs heuristic shrinking factor (mixture)",
        headers=["factor", "accuracy", "mean_samples"],
        rows=rows,
        notes=["factor 1 = the sound algorithm; accuracy must be 1.0 there"],
    )


def fig5b_heuristic_accuracy_hard(scale: Scale | None = None) -> FigureResult:
    """Accuracy vs heuristic factor on the hard instance (gamma = eta)."""
    scale = scale or current_scale()
    group_size = max(scale.default_size // scale.k, 1)

    def factory(seed: int):
        return make_hard_dataset(
            k=scale.k, gamma=scale.hard_gamma, group_size=group_size, seed=seed,
            materialize=should_materialize(group_size * scale.k),
        )

    rows = _accuracy_sweep(factory, scale.hard_factors, scale, scale.seed + 50)
    notes = [
        "paper (gamma=0.1, 1M rows/group): accuracy < 95% already at factor "
        "1.01 and < 70% at 1.2",
    ]
    if scale.name != "paper":
        notes.append(
            "at this reduced scale the hard groups exhaust (exact answers) "
            "before mild shrinking can bite, so the factor range is extended "
            "until the guarantee visibly breaks"
        )
    return FigureResult(
        figure="fig5b",
        title=f"Accuracy vs heuristic factor (hard, gamma={scale.hard_gamma})",
        headers=["factor", "accuracy", "mean_samples"],
        rows=rows,
        notes=notes,
    )


def collect_traces(scale: Scale, seed_base: int, trials: int | None = None):
    """IFOCUS traces over fresh mixture datasets (shared by 5(c)/6(a))."""
    trials = trials or scale.trials
    group_size = max(scale.default_size // scale.k, 1)
    trace_every = max(group_size // 256, 1)
    traces = []
    for t in range(trials):
        seed = seed_base + t
        population = make_mixture_dataset(
            k=scale.k, total_size=scale.default_size, seed=seed,
            materialize=should_materialize(scale.default_size),
        )
        engine = InMemoryEngine(population)
        result = run_ifocus(
            engine, delta=scale.delta, seed=seed, trace_every=trace_every
        )
        traces.append((population, result))
    return traces


def _interp_series(traces, value_fn, grid_points: int = 40):
    """Average a per-snapshot quantity over trials on a common sample grid."""
    max_samples = max(
        int(res.trace.samples_series()[-1]) for _, res in traces if len(res.trace)
    )
    grid = np.linspace(0, max_samples, grid_points)
    stacked = []
    for population, res in traces:
        xs = res.trace.samples_series().astype(np.float64)
        ys = np.array([value_fn(population, snap) for snap in res.trace], dtype=np.float64)
        if xs.size == 0:
            continue
        stacked.append(np.interp(grid, xs, ys, left=ys[0], right=ys[-1]))
    return grid, np.mean(np.stack(stacked), axis=0)


def fig5c_active_groups_convergence(scale: Scale | None = None) -> FigureResult:
    """Average active-group count vs cumulative samples (0 and hard series)."""
    scale = scale or current_scale()
    traces = collect_traces(scale, scale.seed + 60)
    threshold = 0.3 * scale.default_size  # the paper's "3M of 10M" series
    hard = [(p, r) for p, r in traces if r.total_samples >= threshold]

    def active_count(population, snap):
        return len(snap.active)

    grid, all_series = _interp_series(traces, active_count)
    rows = []
    if hard:
        _, hard_series = _interp_series(hard, active_count)
    else:
        hard_series = None
    for i, g in enumerate(grid):
        row = [int(g), float(all_series[i])]
        row.append(float(hard_series[i]) if hard_series is not None else float("nan"))
        rows.append(row)
    notes = [
        f"'all' averages {len(traces)} datasets; 'hard' the {len(hard)} needing "
        f">= {int(threshold)} samples (paper's 3M-of-10M series)",
    ]
    return FigureResult(
        figure="fig5c",
        title="Active groups vs samples taken",
        headers=["samples", "active_all", "active_hard"],
        rows=rows,
        notes=notes,
        raw={"traces": len(traces), "hard": len(hard)},
    )
