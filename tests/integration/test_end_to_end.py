"""Cross-module integration tests: SQL -> NEEDLETAIL -> algorithms -> viz."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.registry import algorithm_names, run_algorithm
from repro.data.flights import make_flights_table
from repro.needletail.engine import NeedletailEngine
from repro.session import connect
from repro.viz.barchart import render_barchart
from repro.viz.properties import check_ordering


@pytest.mark.integration
class TestFullPipeline:
    def test_sql_to_chart(self):
        table = make_flights_table(num_rows=40_000, seed=1)
        out = (
            connect(delta=0.05)
            .register("flights", table)
            .sql(
                "SELECT carrier, AVG(arrival_delay) FROM flights "
                "WHERE distance > 300 GROUP BY carrier"
            )
            .run(seed=2)
        )
        result = out["AVG(arrival_delay)"].raw
        chart = render_barchart(result)
        for name in out.labels:
            assert name in chart

    def test_all_algorithms_agree_on_order(self):
        table = make_flights_table(num_rows=30_000, seed=3)
        engine = NeedletailEngine(table, "carrier", "elapsed_time")
        true = engine.population.true_means()
        resolution = 0.02 * engine.c
        for name in algorithm_names(include_scan=True):
            res = run_algorithm(
                name, engine, delta=0.05, resolution=resolution, seed=4
            )
            grading = resolution if name.endswith("r") and name != "scan" else 0.0
            assert check_ordering(res.estimates, true, resolution=grading), name

    def test_sampling_beats_scan_in_simulated_time(self):
        # The crossover exists at scale (Fig. 4): on a 1e8-row population the
        # sampling algorithms need a roughly size-independent number of
        # samples while SCAN pays for every row.
        from repro.data.synthetic import make_mixture_dataset
        from repro.engines.memory import InMemoryEngine
        from repro.experiments.costmodel import simulated_cost

        population = make_mixture_dataset(k=10, total_size=10**8, seed=5)
        engine = InMemoryEngine(population)
        ifocusr = run_algorithm("ifocusr", engine, delta=0.05, resolution=1.0, seed=6)
        scan = run_algorithm("scan", engine)
        assert sum(simulated_cost(ifocusr.stats)) < sum(simulated_cost(scan.stats))

    def test_guarantee_holds_across_many_seeds(self):
        # 30 independent runs at delta=0.25 over one NEEDLETAIL engine:
        # failures must stay within the budget (binomial slack included).
        table = make_flights_table(num_rows=30_000, seed=7)
        engine = NeedletailEngine(table, "carrier", "elapsed_time")
        true = engine.population.true_means()
        delta = 0.25
        failures = sum(
            not check_ordering(
                run_algorithm("ifocus", engine, delta=delta, seed=100 + t).estimates,
                true,
            )
            for t in range(30)
        )
        assert failures / 30 <= delta

    def test_results_consistent_between_engines(self):
        # The same logical population through InMemoryEngine vs
        # NeedletailEngine gives compatible orderings.
        from repro.data.population import Population, MaterializedGroup
        from repro.engines.memory import InMemoryEngine

        table = make_flights_table(num_rows=30_000, seed=8)
        carriers = table.distinct("carrier")
        groups = [
            MaterializedGroup(
                str(c),
                table.column("elapsed_time")[table.column("carrier") == c],
            )
            for c in carriers
        ]
        population = Population(groups=groups, c=480.0)
        mem = InMemoryEngine(population)
        ndl = NeedletailEngine(table, "carrier", "elapsed_time", c=480.0)
        a = run_algorithm("ifocus", mem, delta=0.05, seed=9)
        b = run_algorithm("ifocus", ndl, delta=0.05, seed=9)
        assert np.array_equal(np.argsort(a.estimates), np.argsort(b.estimates))
