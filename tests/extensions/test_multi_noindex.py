"""Tests for multi-group-by / multi-aggregate (§6.3.4-6.3.5) and no-index
(§6.3.6) variants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ifocus import run_ifocus
from repro.data.population import MaterializedGroup, Population
from repro.engines.memory import InMemoryEngine
from repro.extensions.multi import (
    composite_group_column,
    run_ifocus_multi_avg,
)
from repro.extensions.noindex import run_noindex
from repro.needletail.engine import NeedletailEngine
from repro.needletail.table import Table
from repro.session import avg, connect
from repro.viz.properties import check_ordering
from tests.conftest import make_materialized_population


def two_dim_table(n: int = 40_000, seed: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    carrier = rng.choice(["AA", "DL"], size=n)
    year = rng.choice([1995, 2005], size=n)
    base = {("AA", 1995): 20.0, ("AA", 2005): 40.0, ("DL", 1995): 60.0, ("DL", 2005): 80.0}
    mu = np.array([base[(c, y)] for c, y in zip(carrier, year)])
    delay = np.clip(mu + rng.normal(0, 8, n), 0, 100)
    dist = np.clip(500.0 + 300.0 * (carrier == "DL") + rng.normal(0, 100, n), 0, 2000)
    return Table.from_dict(
        "t", {"carrier": carrier, "year": year, "delay": delay, "dist": dist}
    )


class TestCompositeGroupBy:
    def test_composite_column(self):
        t = two_dim_table(100)
        key = composite_group_column(t, ["carrier", "year"])
        assert set(np.unique(key)) == {"AA|1995", "AA|2005", "DL|1995", "DL|2005"}

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            composite_group_column(two_dim_table(10), [])

    def test_group_by_two_columns_orders_cross_product(self):
        out = (
            connect(delta=0.05)
            .register("t", two_dim_table())
            .table("t")
            .group_by("carrier", "year")
            .agg(avg("delay"))
            .run(seed=1)
        )
        true = out.engine.population.true_means()
        assert check_ordering(out.first.raw.estimates, true)
        assert len(out.engine.population.group_names) == 4


class TestMultiAvg:
    def test_both_orderings_correct(self):
        t = two_dim_table(seed=2)
        res = run_ifocus_multi_avg(t, "carrier", "delay", "dist", delta=0.05, seed=3)
        delay_true = [
            t.column("delay")[t.column("carrier") == c].mean() for c in ("AA", "DL")
        ]
        dist_true = [
            t.column("dist")[t.column("carrier") == c].mean() for c in ("AA", "DL")
        ]
        assert check_ordering(res.y.estimates, np.array(delay_true))
        assert check_ordering(res.z.estimates, np.array(dist_true))

    def test_shared_samples(self):
        t = two_dim_table(seed=4)
        res = run_ifocus_multi_avg(t, "carrier", "delay", "dist", delta=0.05, seed=5)
        # Each aggregate is its own IFOCUS run at delta/2 and reports its own
        # counts; both read prefixes of one per-group permutation, so the
        # rows read are the per-group maximum.
        for agg, column in ((res.y, "delay"), (res.z, "dist")):
            single = run_ifocus(NeedletailEngine(t, "carrier", column), delta=0.025, seed=5)
            np.testing.assert_array_equal(agg.estimates, single.estimates)
            np.testing.assert_array_equal(agg.samples_per_group, single.samples_per_group)
        np.testing.assert_array_equal(
            res.samples_per_group,
            np.maximum(res.y.samples_per_group, res.z.samples_per_group),
        )
        assert res.total_samples == res.samples_per_group.sum()

    def test_unseeded_runs_share_their_rows(self):
        t = two_dim_table(seed=4)
        res = run_ifocus_multi_avg(t, "carrier", "delay", "delay", delta=0.05, seed=None)
        np.testing.assert_array_equal(res.y.estimates, res.z.estimates)
        np.testing.assert_array_equal(res.samples_per_group, res.y.samples_per_group)

    def test_exhausted_means_are_obstacles(self):
        """A group read to exhaustion has an exact mean that the other
        groups' intervals must clear before they leave (the executor's
        obstacle rule).  Group j (1,000 rows) exhausts long before group i
        (4,000 rows, mean 0.05 above j's) separates from it; leaving i at
        that point misorders AVG(Y) in ~44% of seeds.
        """
        rng = np.random.default_rng(0)
        j = rng.normal(50.0, 7.0, 1_000)
        i = rng.normal(50.0, 7.0, 4_000)
        i += j.mean() + 0.05 - i.mean()
        g = np.array(["j"] * j.size + ["i"] * i.size)
        y = np.clip(np.concatenate([j, i]), 0.0, 100.0)
        z = np.clip(np.where(g == "j", 20.0, 80.0) + rng.normal(0.0, 5.0, g.size), 0.0, 100.0)
        t = Table.from_dict("t", {"g": g, "y": y, "z": z})
        true_y = np.array([y[g == key].mean() for key in ("i", "j")])  # index order
        misordered = 0
        for seed in range(60):
            res = run_ifocus_multi_avg(t, "g", "y", "z", delta=0.05, seed=seed)
            misordered += not check_ordering(res.y.estimates, true_y)
        assert misordered <= 3

    def test_estimates_close(self):
        t = two_dim_table(seed=6)
        res = run_ifocus_multi_avg(t, "carrier", "delay", "dist", delta=0.05, seed=7)
        for gid, carrier in enumerate(sorted(set(t.column("carrier")))):
            true_d = t.column("delay")[t.column("carrier") == carrier].mean()
            assert res.y.estimates[gid] == pytest.approx(true_d, abs=5.0)


class TestNoIndex:
    def test_orders_correctly(self):
        pop = make_materialized_population([20.0, 50.0, 80.0], sizes=30_000, seed=8)
        engine = InMemoryEngine(pop)
        res = run_noindex(engine, delta=0.05, seed=9)
        assert check_ordering(res.estimates, pop.true_means())
        assert res.algorithm == "noindex"

    def test_samples_proportional_to_sizes(self):
        pop = make_materialized_population(
            [20.0, 80.0], sizes=[40_000, 10_000], spread=5.0, seed=10
        )
        engine = InMemoryEngine(pop)
        res = run_noindex(engine, delta=0.05, seed=11)
        ratio = res.samples_per_group[0] / res.samples_per_group[1]
        assert 2.5 < ratio < 6.0  # ~4x expected from the 4:1 size skew

    def test_max_samples_truncates(self):
        pop = make_materialized_population([50.0, 50.05], sizes=10_000, seed=12)
        engine = InMemoryEngine(pop)
        res = run_noindex(engine, delta=0.05, seed=13, max_samples=5_000)
        assert res.params["truncated"]
        assert res.total_samples <= 5_000 + 256

    def test_resolution_stop(self):
        # Separating 50.0 from 50.2 needs eps < 0.1 (~6M draws per group
        # with replacement); the r=4 relaxation stops at eps < 1 (~50k).
        pop = make_materialized_population([50.0, 50.2, 90.0], sizes=50_000, seed=14)
        engine = InMemoryEngine(pop)
        relaxed = run_noindex(engine, delta=0.05, resolution=4.0, seed=15)
        assert not relaxed.params["truncated"]
        assert relaxed.total_samples < 400_000

    def test_costs_more_than_indexed_under_skew(self):
        from repro.core.ifocus import run_ifocus

        # Small contentious group: no-index wastes draws on the big group.
        pop = make_materialized_population(
            [50.0, 52.0, 90.0], sizes=[80_000, 8_000, 8_000], spread=8.0, seed=16
        )
        engine = InMemoryEngine(pop)
        indexed = run_ifocus(engine, delta=0.05, seed=17)
        blind = run_noindex(engine, delta=0.05, seed=17)
        assert blind.total_samples > indexed.total_samples

    def test_validation(self, small_engine):
        with pytest.raises(ValueError):
            run_noindex(small_engine, batch=0)

    @staticmethod
    def _session_run(seed):
        rng = np.random.default_rng(3)
        names = rng.choice(["a", "b", "c", "d"], size=12_000)
        base = {"a": 10.0, "b": 35.0, "c": 60.0, "d": 90.0}
        y = np.clip(np.array([base[x] for x in names]) + rng.normal(0, 6, names.size), 0, 100)
        session = connect(engine="noindex").register("t", {"g": names, "y": y})
        try:
            return session.execute("SELECT g, AVG(y) FROM t GROUP BY g", seed=seed).first.raw
        finally:
            session.close()

    @pytest.mark.parametrize(
        "make_seed",
        [lambda: 3, lambda: np.int64(3), lambda: np.random.default_rng(3)],
        ids=["int", "numpy-int", "generator"],
    )
    def test_session_runs_repeat_for_every_seed_type(self, make_seed):
        """The whole-table chooser is seeded from the same pinned seed as the
        group streams; it used to take fresh entropy for any non-int seed."""
        a, b = self._session_run(make_seed()), self._session_run(make_seed())
        assert a.samples_per_group.tolist() == b.samples_per_group.tolist()
        assert a.estimates.tobytes() == b.estimates.tobytes()

    def test_int_seed_result_is_pinned(self):
        res = self._session_run(3)
        assert res.samples_per_group.tolist() == [318, 322, 326, 314]
        assert res.rounds == 1280
        assert res.estimates.tobytes() == bytes.fromhex(
            "81856093fbdb244082a9b12fb0874140618516c819ac4d409db78a0ccca35640"
        )
        # A numpy integer is the same seed as the Python int.
        assert self._session_run(np.int64(3)).estimates.tobytes() == res.estimates.tobytes()
        assert not res.params["scanned"]  # stopped before the scan cap

    def test_cost_is_capped_at_a_scan(self):
        """Two groups too close to separate: once the run has drawn as many
        tuples as the table holds, one scan answers exactly."""
        rng = np.random.default_rng(0)
        values = rng.normal(50, 6, 2000)
        pop = Population(
            groups=[MaterializedGroup("a", values[:1000]), MaterializedGroup("b", values[1000:])],
            c=100.0,
        )
        res = run_noindex(InMemoryEngine(pop), delta=0.05, seed=1, batch=256)
        assert res.params["scanned"] and not res.params["truncated"]
        assert res.estimates.tolist() == pop.true_means().tolist()
        assert res.total_samples <= 2000 + 256
        assert res.stats.scanned_rows == 2000
        assert all(g.exhausted and g.half_width == 0.0 for g in res.groups)
