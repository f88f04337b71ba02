"""Trial runner: one (dataset, algorithm) execution with full bookkeeping.

The paper's methodology (Section 5.2): every data point averages 100 trials,
each trial generating a *fresh* dataset with the sweep's parameters, running
the algorithm, and recording samples taken, whether the output respects the
(possibly relaxed) ordering property, and the simulated CPU/I-O times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.registry import RESOLUTION_VARIANTS, run_algorithm
from repro.data.population import Population
from repro.engines.memory import InMemoryEngine
from repro.experiments.costmodel import simulated_cost
from repro.viz.properties import check_ordering

__all__ = [
    "TrialResult",
    "run_trial",
    "run_trials",
    "mean_percentage_sampled",
    "MATERIALIZE_BELOW",
    "should_materialize",
]

PopulationFactory = Callable[[int], Population]

# Populations at or below this many rows are materialized by the experiment
# factories, so without-replacement draws are genuine permutations.  Above
# it, virtual (distribution-backed) groups stand in; their with-replacement
# draws match without-replacement statistics only while m << n_i, which
# holds when the algorithms' absolute sample counts stay far below the
# group sizes - not for hard groups read near exhaustion (see
# repro.data.population.VirtualGroup).
MATERIALIZE_BELOW = 2_000_000


def should_materialize(total_size: int) -> bool:
    """Materialize small populations; keep big ones virtual."""
    return total_size <= MATERIALIZE_BELOW


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one algorithm run on one generated dataset."""

    algorithm: str
    dataset_size: int
    total_samples: int
    percent_sampled: float
    correct: bool
    io_seconds: float
    cpu_seconds: float
    rounds: int
    difficulty: float  # c^2 / eta^2 of the generated dataset

    @property
    def total_seconds(self) -> float:
        return self.io_seconds + self.cpu_seconds


def run_trial(
    population: Population,
    algorithm: str,
    *,
    delta: float = 0.05,
    resolution: float = 1.0,
    seed: int | None = None,
    **kwargs,
) -> TrialResult:
    """Run one algorithm over one population and grade the output.

    The "-r" algorithm variants are graded against the *relaxed* ordering
    property with the same resolution they were given, exactly as the paper
    evaluates them; plain variants are graded on strict ordering.  Simulated
    seconds come from the calibrated NEEDLETAIL model (:func:`simulated_cost`).
    """
    engine = InMemoryEngine(population)
    result = run_algorithm(
        algorithm, engine, delta=delta, resolution=resolution, seed=seed, **kwargs
    )
    grading_resolution = resolution if algorithm in RESOLUTION_VARIANTS else 0.0
    true = population.true_means()
    correct = check_ordering(result.estimates, true, resolution=grading_resolution)
    total = population.total_size
    io, cpu = simulated_cost(result.stats) if result.stats is not None else (0.0, 0.0)
    return TrialResult(
        algorithm=algorithm,
        dataset_size=total,
        total_samples=result.total_samples,
        percent_sampled=100.0 * result.total_samples / total,
        correct=bool(correct),
        io_seconds=float(io),
        cpu_seconds=float(cpu),
        rounds=result.rounds,
        difficulty=population.difficulty(),
    )


def run_trials(
    factory: PopulationFactory,
    algorithm: str,
    trials: int,
    *,
    delta: float = 0.05,
    resolution: float = 1.0,
    seed: int = 0,
    **kwargs,
) -> list[TrialResult]:
    """Run ``trials`` independent trials, each on a freshly generated dataset.

    ``factory(trial_seed)`` must return a new population; the same seed is
    also used for the sampling streams so the whole campaign replays from one
    integer.
    """
    out = []
    for t in range(trials):
        trial_seed = seed * 100_003 + t
        population = factory(trial_seed)
        out.append(
            run_trial(
                population,
                algorithm,
                delta=delta,
                resolution=resolution,
                seed=trial_seed,
                **kwargs,
            )
        )
    return out


def mean_percentage_sampled(results: list[TrialResult]) -> float:
    return float(np.mean([r.percent_sampled for r in results]))
