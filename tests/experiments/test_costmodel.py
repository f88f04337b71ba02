"""Tests for the simulated-runtime cost models and ``simulated_cost``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engines.base import RunStats
from repro.experiments.costmodel import (
    BlockCacheCostModel,
    DiskParams,
    NeedletailCostModel,
    PageAccessModel,
    simulated_cost,
)


def _stats(samples_per_group, scanned_rows: int = 0) -> RunStats:
    return RunStats(np.asarray(samples_per_group, dtype=np.int64), scanned_rows)


class TestDiskParams:
    def test_defaults_match_paper(self):
        p = DiskParams()
        assert p.sequential_bandwidth == pytest.approx(800e6)
        assert p.page_bytes == 4096

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskParams(sequential_bandwidth=0)
        with pytest.raises(ValueError):
            DiskParams(page_bytes=0)
        with pytest.raises(ValueError):
            DiskParams(random_read_seconds=-1)


class TestPageAccessModel:
    def test_expected_unique_bounds(self):
        model = PageAccessModel(total_rows=1_000_000, row_bytes=8, page_bytes=4096)
        assert model.expected_unique(0) == 0
        assert model.expected_unique(10) <= 10
        # Touching far more than P pages approaches P.
        assert model.expected_unique(10**7) == pytest.approx(model.total_pages, rel=1e-3)

    def test_concave_in_samples(self):
        model = PageAccessModel(total_rows=10**7, row_bytes=8, page_bytes=4096)
        curve = np.array([model.expected_unique(s) for s in range(0, 50_001, 1000)])
        steps = np.diff(curve)
        assert np.all(steps > 0)
        assert np.all(np.diff(steps) < 0)  # each extra 1000 samples finds fewer new pages

    def test_validation(self):
        with pytest.raises(ValueError):
            PageAccessModel(0, 8, 4096)


class TestNeedletailCostModel:
    def test_sample_cost_linear(self):
        cm = NeedletailCostModel(io_per_sample=2e-6, cpu_per_sample=1e-6)
        io, cpu = cm.sample_cost(1_000_000)
        assert io == pytest.approx(2.0)
        assert cpu == pytest.approx(1.0)

    def test_scan_cost_matches_paper_rates(self):
        cm = NeedletailCostModel()
        # 1e9 rows of 8 bytes: 8 GB / 800 MB/s = 10 s I/O, 1e9/1e7 = 100 s CPU.
        io, cpu = cm.scan_cost(10**9)
        assert io == pytest.approx(10.0)
        assert cpu == pytest.approx(100.0)
        assert cpu > io  # the paper: SCAN is CPU-bound

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            NeedletailCostModel(io_per_sample=-1)


class TestBlockCacheCostModel:
    def test_io_is_expected_unique_page_reads(self):
        cm = BlockCacheCostModel(total_rows=100_000)
        for total in (0, 1, 1000, 123_456):
            io, cpu = cm.sample_cost(total)
            assert io == cm.pages.expected_unique(total) * cm.disk.random_read_seconds
            assert cpu == total * cm.cpu_per_sample

    def test_concave_in_samples(self):
        # Pages fill up, so each further 1000 samples costs less I/O.
        cm = BlockCacheCostModel(total_rows=10**7)
        first = cm.sample_cost(1000)[0]
        later = cm.sample_cost(52_000)[0] - cm.sample_cost(51_000)[0]
        assert 0 < later < first

    def test_io_bounded_by_all_pages(self):
        cm = BlockCacheCostModel(total_rows=10_000)
        max_io = cm.pages.total_pages * cm.disk.random_read_seconds
        assert cm.sample_cost(200_000)[0] <= max_io

    def test_scan_priced_like_the_constant_model(self):
        cm = BlockCacheCostModel(total_rows=10_000)
        assert cm.scan_cost(10_000) == NeedletailCostModel().scan_cost(10_000)


class TestSimulatedCost:
    def test_closed_form_for_the_linear_model(self):
        io, cpu = simulated_cost(_stats([300, 700], scanned_rows=4_000))
        assert io == pytest.approx(1000 * 1.5e-6 + 4_000 * 8 / 800e6, rel=1e-15)
        assert cpu == pytest.approx(1000 * 1.0e-6 + 4_000 * 1.0e-7, rel=1e-15)

    def test_block_cache_prices_the_total(self):
        cm = BlockCacheCostModel(total_rows=100_000)
        io, cpu = simulated_cost(_stats([2_000, 3_000]), cm)
        assert io == cm.pages.expected_unique(5_000) * cm.disk.random_read_seconds
        assert cpu == 5_000 * cm.cpu_per_sample

    @pytest.mark.parametrize(
        "model",
        [NeedletailCostModel(), BlockCacheCostModel(total_rows=50_000)],
        ids=["constant", "block-cache"],
    )
    def test_stateless_any_split_prices_alike(self, model):
        whole = simulated_cost(_stats([6_000, 0, 0], scanned_rows=50_000), model)
        for split in ([1, 2_999, 3_000], [2_000, 2_000, 2_000], [0, 0, 6_000]):
            assert simulated_cost(_stats(split, scanned_rows=50_000), model) == whole
        # Pricing again (the same model object) changes nothing.
        assert simulated_cost(_stats([6_000, 0, 0], scanned_rows=50_000), model) == whole

    def test_prices_a_real_run(self):
        from repro.core.ifocus import run_ifocus
        from repro.engines.memory import InMemoryEngine
        from tests.conftest import make_materialized_population

        pop = make_materialized_population([20.0, 80.0], sizes=2000)
        res = run_ifocus(InMemoryEngine(pop), delta=0.05, seed=1)
        assert np.array_equal(res.stats.samples_per_group, res.samples_per_group)
        io, cpu = simulated_cost(res.stats)
        assert io == pytest.approx(res.total_samples * 1.5e-6)
        assert cpu == pytest.approx(res.total_samples * 1.0e-6)
