"""Tests for the NEEDLETAIL sampling engine (index-backed retrieval)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ifocus import run_ifocus
from repro.core.scan import run_scan
from repro.needletail.bitvector import BitVector
from repro.needletail.engine import NeedletailEngine
from repro.needletail.table import Table
from repro.viz.properties import check_ordering


def flights_table(n: int = 30_000, seed: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    names = rng.choice(["AA", "JB", "UA", "DL"], size=n, p=[0.4, 0.3, 0.2, 0.1])
    base = {"AA": 30.0, "JB": 15.0, "UA": 85.0, "DL": 45.0}
    delay = np.clip(
        np.array([base[a] for a in names]) + rng.normal(0, 10, n), 0, 100
    )
    year = rng.integers(1990, 2000, n)
    return Table.from_dict("flights", {"name": names, "delay": delay, "year": year})


class TestConstruction:
    def test_groups_from_index(self):
        engine = NeedletailEngine(flights_table(), "name", "delay", c=100.0)
        assert sorted(engine.population.group_names) == ["AA", "DL", "JB", "UA"]
        t = flights_table()
        for g in engine.population.groups:
            assert g.size == int((t.column("name") == g.name).sum())

    def test_true_means_match_groupby(self):
        t = flights_table()
        engine = NeedletailEngine(t, "name", "delay", c=100.0)
        for g in engine.population.groups:
            expected = t.column("delay")[t.column("name") == g.name].mean()
            assert g.true_mean == pytest.approx(expected)

    def test_c_inferred_when_omitted(self):
        t = flights_table()
        engine = NeedletailEngine(t, "name", "delay")
        assert engine.c == pytest.approx(float(t.column("delay").max()))

    def test_c_is_the_whole_columns_max_under_a_predicate(self):
        t = flights_table()
        low = t.column("delay") < 50.0
        engine = NeedletailEngine(t, "name", "delay", predicate=BitVector.from_bools(low))
        assert engine.c == float(t.column("delay").max()) > 50.0

    def test_index_is_built_on_first_use(self):
        engine = NeedletailEngine(flights_table(), "name", "delay", c=100.0)
        assert engine._index is None
        index = engine.index
        assert engine.index is index
        assert sorted(map(str, index.keys)) == sorted(engine.population.group_names)


class TestSampling:
    def test_wor_draws_are_group_values(self):
        t = flights_table()
        engine = NeedletailEngine(t, "name", "delay", c=100.0)
        run = engine.open_run(seed=1, without_replacement=True)
        gid = engine.population.group_names.index("AA")
        draws = run.draw(gid, 500)
        aa_values = set(np.round(t.column("delay")[t.column("name") == "AA"], 9))
        assert all(round(v, 9) in aa_values for v in draws)

    def test_wor_no_duplicates_of_rowids(self):
        # Drawing the entire group without replacement returns each value's
        # multiset exactly (sorted draws == sorted group values).
        t = flights_table(n=2000)
        engine = NeedletailEngine(t, "name", "delay", c=100.0)
        run = engine.open_run(seed=2, without_replacement=True)
        gid = engine.population.group_names.index("DL")
        size = engine.population.groups[gid].size
        draws = run.draw(gid, size)
        expected = t.column("delay")[t.column("name") == "DL"]
        assert np.allclose(np.sort(draws), np.sort(expected))

    def test_wor_exhaustion_raises(self):
        engine = NeedletailEngine(flights_table(n=1000), "name", "delay", c=100.0)
        run = engine.open_run(seed=3, without_replacement=True)
        size = engine.population.groups[0].size
        run.draw(0, size)
        with pytest.raises(ValueError):
            run.draw(0, 1)

    @pytest.mark.parametrize("predicate_year", [None, 1995])
    def test_draw_block_matches_per_group_draws(self, predicate_year):
        t = flights_table()
        predicate = (
            None
            if predicate_year is None
            else BitVector.from_bools(t.column("year") >= predicate_year)
        )
        fused = NeedletailEngine(t, "name", "delay", c=100.0, predicate=predicate)
        loop = NeedletailEngine(t, "name", "delay", c=100.0, predicate=predicate)
        run_fused = fused.open_run(seed=3)
        run_loop = loop.open_run(seed=3)
        gids = np.arange(fused.k)
        # Interleave fused blocks and sequential draws so shared stream
        # state advances identically through both doors.
        block = run_fused.draw_block(gids, 40)
        for j, gid in enumerate(gids):
            assert np.array_equal(block[:, j], run_loop.draw(int(gid), 40))
        sub = gids[::2]
        block = run_fused.draw_block(sub, 7)
        for j, gid in enumerate(sub):
            assert np.array_equal(block[:, j], run_loop.draw(int(gid), 7))

    def test_rank_r_is_the_rth_row_of_the_group(self):
        """A group's values are its rows in rowid order - rank r of group g
        is the row the bitmap index selects for it (§4)."""
        t = flights_table(n=3000)
        engine = NeedletailEngine(t, "name", "delay", c=100.0)
        for group in engine.population.groups:
            rowids = engine.index.rowids_for(group.name)
            assert np.array_equal(group.values, t.column("delay")[rowids])

    def test_with_replacement_unbounded(self):
        engine = NeedletailEngine(flights_table(n=1000), "name", "delay", c=100.0)
        run = engine.open_run(seed=4, without_replacement=False)
        draws = run.draw(0, 5000)  # more than the group size - fine with WR
        assert draws.shape == (5000,)


class TestEndToEnd:
    def test_ifocus_orders_correctly(self):
        engine = NeedletailEngine(flights_table(), "name", "delay", c=100.0)
        res = run_ifocus(engine, delta=0.05, seed=5)
        assert check_ordering(res.estimates, engine.population.true_means())

    def test_scan_exact(self):
        engine = NeedletailEngine(flights_table(), "name", "delay", c=100.0)
        res = run_scan(engine)
        assert np.allclose(res.estimates, engine.population.true_means())
        assert res.stats.scanned_rows == engine.population.total_size

    def test_predicate_restricts_groups(self):
        t = flights_table()
        predicate = BitVector.from_bools(t.column("year") >= 1995)
        engine = NeedletailEngine(t, "name", "delay", c=100.0, predicate=predicate)
        mask = t.column("year") >= 1995
        for g in engine.population.groups:
            expected = t.column("delay")[(t.column("name") == g.name) & mask]
            assert g.size == expected.shape[0]
            assert g.true_mean == pytest.approx(expected.mean())

    def test_predicate_eliminating_all_rows_raises(self):
        t = flights_table()
        predicate = BitVector.zeros(t.num_rows)
        with pytest.raises(ValueError):
            NeedletailEngine(t, "name", "delay", c=100.0, predicate=predicate)

    def test_index_storage_bytes(self):
        engine = NeedletailEngine(flights_table(), "name", "delay", c=100.0)
        assert engine.index_storage_bytes(compressed=True) > 0
        assert engine.index_storage_bytes(compressed=False) > 0
