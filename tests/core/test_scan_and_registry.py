"""Tests for the SCAN baseline and the algorithm registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.registry import ALGORITHMS, algorithm_names, run_algorithm
from repro.core.scan import run_scan
from repro.engines.memory import InMemoryEngine
from repro.experiments.costmodel import simulated_cost
from tests.conftest import make_materialized_population


class TestScan:
    def test_exact_means(self, small_engine):
        res = run_scan(small_engine)
        assert np.allclose(res.estimates, small_engine.population.true_means())
        assert all(g.exhausted for g in res.groups)
        assert res.algorithm == "scan"

    def test_reads_everything(self, small_engine):
        res = run_scan(small_engine)
        assert np.array_equal(res.samples_per_group, small_engine.population.sizes())

    def test_linear_cost(self):
        pop_small = make_materialized_population([10.0, 90.0], sizes=1000)
        pop_big = make_materialized_population([10.0, 90.0], sizes=10_000)
        small = run_scan(InMemoryEngine(pop_small))
        big = run_scan(InMemoryEngine(pop_big))
        ratio = sum(simulated_cost(big.stats)) / sum(simulated_cost(small.stats))
        assert ratio == pytest.approx(10.0, rel=0.01)

    def test_ignores_sampling_kwargs(self, small_engine):
        res = run_scan(small_engine, delta=0.05, seed=3)
        assert res.params["exact"]


class TestRegistry:
    def test_names(self):
        assert algorithm_names() == [
            "ifocus", "ifocusr", "irefine", "irefiner", "roundrobin", "roundrobinr",
        ]
        assert "scan" in algorithm_names(include_scan=True)
        assert set(algorithm_names(include_scan=True)) == set(ALGORITHMS)

    def test_dispatch_all(self, small_engine):
        for name in algorithm_names(include_scan=True):
            res = run_algorithm(name, small_engine, delta=0.05, resolution=1.0, seed=1)
            assert res.k == small_engine.k
            if name != "scan":
                assert res.algorithm == name

    def test_r_variants_require_resolution(self, small_engine):
        for name in ("ifocusr", "irefiner", "roundrobinr"):
            with pytest.raises(ValueError):
                run_algorithm(name, small_engine, resolution=0.0)

    def test_plain_variants_force_zero_resolution(self, small_engine):
        # Passing a resolution to a plain variant must not relax it.
        res = run_algorithm("ifocus", small_engine, delta=0.05, resolution=5.0, seed=2)
        assert res.params["resolution"] == 0.0

    def test_unknown_name(self, small_engine):
        with pytest.raises(KeyError):
            run_algorithm("bogus", small_engine)

    def test_case_insensitive(self, small_engine):
        res = run_algorithm("IFOCUS", small_engine, delta=0.05, seed=3)
        assert res.algorithm == "ifocus"
