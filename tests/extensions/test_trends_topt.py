"""Tests for the trends (Problem 3) and top-t (Problem 4) variants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ifocus import run_ifocus
from repro.engines.memory import InMemoryEngine
from repro.extensions.topt import run_ifocus_topt
from repro.extensions.trends import chain_neighbors, grid_neighbors, run_ifocus_trends
from repro.viz.properties import check_neighbor_ordering, check_top_t
from tests.conftest import make_materialized_population


class TestNeighborGraphs:
    def test_chain(self):
        assert chain_neighbors(3) == [[1], [0, 2], [1]]
        assert chain_neighbors(1) == [[]]

    def test_grid(self):
        adj = grid_neighbors(2, 2)
        assert sorted(adj[0]) == [1, 2]
        assert sorted(adj[3]) == [1, 2]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            grid_neighbors(0, 3)


class TestTrends:
    def test_adjacent_ordering_correct(self):
        pop = make_materialized_population(
            [30.0, 50.0, 20.0, 60.0, 40.0], sizes=20_000, seed=1
        )
        engine = InMemoryEngine(pop)
        res = run_ifocus_trends(engine, delta=0.05, seed=2)
        assert check_neighbor_ordering(res.estimates, pop.true_means())
        assert res.algorithm == "ifocus-trends"

    def test_cheaper_than_full_ordering_with_distant_duplicates(self):
        # Two non-adjacent groups share a mean: full ordering would sample to
        # exhaustion; the trend variant does not care about that pair.
        pop = make_materialized_population(
            [30.0, 60.0, 30.05, 70.0], sizes=20_000, seed=3
        )
        engine = InMemoryEngine(pop)
        trends = run_ifocus_trends(engine, delta=0.05, seed=4)
        full = run_ifocus(engine, delta=0.05, seed=4)
        assert trends.total_samples < full.total_samples

    def test_custom_graph_validation(self):
        pop = make_materialized_population([10.0, 20.0], sizes=100)
        engine = InMemoryEngine(pop)
        with pytest.raises(ValueError):
            run_ifocus_trends(engine, neighbors=[[1]])  # wrong length
        with pytest.raises(ValueError):
            run_ifocus_trends(engine, neighbors=[[1], []])  # asymmetric
        with pytest.raises(ValueError):
            run_ifocus_trends(engine, neighbors=[[5], [0]])  # out of range

    def test_grid_choropleth(self):
        pop = make_materialized_population(
            [10.0, 40.0, 70.0, 25.0, 55.0, 85.0], sizes=10_000, seed=5
        )
        engine = InMemoryEngine(pop)
        res = run_ifocus_trends(
            engine, delta=0.05, seed=6, neighbors=grid_neighbors(2, 3)
        )
        true = pop.true_means()
        for i, adj in enumerate(grid_neighbors(2, 3)):
            for j in adj:
                if true[i] != true[j]:
                    assert (res.estimates[i] > res.estimates[j]) == (true[i] > true[j])


class TestTopT:
    def test_reports_true_top(self):
        pop = make_materialized_population(
            [10.0, 80.0, 30.0, 90.0, 50.0, 70.0], sizes=20_000, seed=7
        )
        engine = InMemoryEngine(pop)
        top = run_ifocus_topt(engine, t=3, delta=0.05, seed=8)
        assert check_top_t(top.result.estimates, pop.true_means(), t=3)
        assert top.top_names == ["g3", "g1", "g5"]

    def test_smallest_mode(self):
        pop = make_materialized_population([10.0, 80.0, 30.0, 90.0], sizes=20_000, seed=9)
        engine = InMemoryEngine(pop)
        top = run_ifocus_topt(engine, t=2, delta=0.05, largest=False, seed=10)
        assert top.top_names == ["g0", "g2"]

    def test_cheaper_than_full_with_contentious_losers(self):
        # A contentious pair far below the top must not be resolved.
        pop = make_materialized_population(
            [20.0, 20.2, 60.0, 90.0], sizes=30_000, seed=11
        )
        engine = InMemoryEngine(pop)
        top = run_ifocus_topt(engine, t=2, delta=0.05, seed=12)
        full = run_ifocus(engine, delta=0.05, seed=12)
        assert top.result.total_samples < full.total_samples

    def test_t_validation(self, small_engine):
        with pytest.raises(ValueError):
            run_ifocus_topt(small_engine, t=0)
        with pytest.raises(ValueError):
            run_ifocus_topt(small_engine, t=99)
