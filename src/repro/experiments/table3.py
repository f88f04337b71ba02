"""Table 3 reproduction: flight-records runtimes.

For each of the three attributes (Elapsed Time, Arrival Delay, Departure
Delay) grouped by carrier, and each dataset size, measure the simulated
runtime of ROUNDROBIN, IFOCUS and IFOCUS-R (r = 1% of the value range).
Shapes to reproduce from the paper: IFOCUS ~3x faster than ROUNDROBIN,
IFOCUS-R ~6x; runtimes grow mildly (not 100x) across a 100x size scale-up,
driven by the conflicting carrier pairs with nearly equal means.
"""

from __future__ import annotations

from repro.core.registry import run_algorithm
from repro.data.flights import FLIGHT_ATTRIBUTES, make_flights_population
from repro.engines.memory import InMemoryEngine
from repro.experiments.config import Scale, current_scale
from repro.experiments.costmodel import simulated_cost
from repro.experiments.report import FigureResult
from repro.viz.properties import check_ordering

__all__ = ["table3_flights_runtimes"]

_ALGS = ("roundrobin", "ifocus", "ifocusr")


def table3_flights_runtimes(scale: Scale | None = None) -> FigureResult:
    """Simulated runtimes on the synthetic flight data (Table 3).

    ``raw["misordered"]`` lists the ``(attribute, algorithm, size)`` cells
    whose returned ordering was wrong (the paper's: none).
    """
    scale = scale or current_scale()
    rows = []
    misordered = []  # (attribute, algorithm, size) cells ordered wrongly
    for attribute in FLIGHT_ATTRIBUTES:
        _, c, _ = FLIGHT_ATTRIBUTES[attribute]
        resolution = 0.01 * c  # the paper's "IFOCUSR (1%)"
        for alg in _ALGS:
            row: list[object] = [attribute, alg]
            for size in scale.flights_sizes:
                population = make_flights_population(
                    attribute, total_rows=size, seed=scale.seed
                )
                engine = InMemoryEngine(population)
                result = run_algorithm(
                    alg,
                    engine,
                    delta=scale.delta,
                    resolution=resolution if alg == "ifocusr" else 0.0,
                    seed=scale.seed + size % 97,
                )
                grading_res = resolution if alg == "ifocusr" else 0.0
                if not check_ordering(
                    result.estimates, population.true_means(), resolution=grading_res
                ):
                    misordered.append((attribute, alg, size))
                row.append(sum(simulated_cost(result.stats)))
            rows.append(row)
    notes = [
        f"sizes: {list(scale.flights_sizes)}; r = 1% of each attribute's range",
        f"orderings returned were {'NOT all correct' if misordered else 'all correct'} "
        "(paper: all correct)",
    ]
    return FigureResult(
        figure="table3",
        title="Flight data: simulated runtime (seconds)",
        headers=["attribute", "algorithm"] + [f"{s:.0e}" for s in scale.flights_sizes],
        rows=rows,
        notes=notes,
        raw={"misordered": misordered},
    )
