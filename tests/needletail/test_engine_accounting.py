"""Tests for the draw/charge accounting contract of EngineRun."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engines.base import RunStats
from repro.engines.memory import InMemoryEngine
from tests.conftest import make_materialized_population


@pytest.fixture()
def engine() -> InMemoryEngine:
    pop = make_materialized_population([20.0, 80.0], sizes=5_000)
    return InMemoryEngine(pop)


class TestDrawChargeContract:
    def test_draw_does_not_charge(self, engine):
        run = engine.open_run(seed=1)
        run.draw(0, 100)
        assert run.stats.total_samples == 0

    def test_charge_without_draw_is_explicit(self, engine):
        # Charging is decoupled; algorithms must match it to consumed draws.
        run = engine.open_run(seed=2)
        run.charge(1, 50)
        assert run.stats.samples_per_group.tolist() == [0, 50]
        assert run.stats.scanned_rows == 0

    def test_charge_zero_noop(self, engine):
        run = engine.open_run(seed=3)
        run.charge(0, 0)
        assert run.stats.total_samples == 0

    def test_negative_rejected(self, engine):
        run = engine.open_run(seed=4)
        with pytest.raises(ValueError):
            run.draw(0, -1)
        with pytest.raises(ValueError):
            run.charge(0, -1)

    def test_empty_draw(self, engine):
        run = engine.open_run(seed=5)
        assert run.draw(0, 0).shape == (0,)

    def test_exact_mean_charges_nothing(self, engine):
        run = engine.open_run(seed=6)
        mean = run.exact_mean(0)
        assert mean == pytest.approx(engine.population.groups[0].true_mean)
        assert run.stats.total_samples == 0

    def test_scan_charge(self, engine):
        run = engine.open_run(seed=7)
        run.charge_scan()
        assert run.stats.scanned_rows == engine.population.total_size
        assert run.stats.total_samples == 0

    def test_metadata_passthrough(self, engine):
        run = engine.open_run(seed=8)
        assert run.k == 2
        assert run.c == 100.0
        assert run.sizes().tolist() == [5_000, 5_000]
        assert run.group_names() == ["g0", "g1"]


class TestRunStats:
    def test_merge(self):
        a = RunStats(np.array([1, 2]), scanned_rows=10)
        b = RunStats(np.array([3, 4]), scanned_rows=5)
        merged = a.merge(b)
        assert merged.samples_per_group.tolist() == [4, 6]
        assert merged.scanned_rows == 15
        assert merged.total_samples == 10

    def test_independent_runs_have_independent_stats(self):
        pop = make_materialized_population([20.0, 80.0], sizes=1_000)
        engine = InMemoryEngine(pop)
        run1 = engine.open_run(seed=1)
        run2 = engine.open_run(seed=2)
        run1.charge(0, 10)
        assert run2.stats.total_samples == 0
