"""Tests for SQL planning/execution through ``session.sql`` (NEEDLETAIL engine)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.needletail.table import Table
from repro.session import Session, connect


@pytest.fixture()
def table() -> Table:
    rng = np.random.default_rng(1)
    n = 30_000
    names = rng.choice(["AA", "JB", "UA"], size=n, p=[0.5, 0.3, 0.2])
    base = {"AA": 30.0, "JB": 15.0, "UA": 85.0}
    delay = np.clip(np.array([base[x] for x in names]) + rng.normal(0, 8, n), 0, 100)
    dist = rng.uniform(100, 2000, n)
    year = rng.integers(1990, 2000, n)
    return Table.from_dict(
        "flights", {"name": names, "delay": delay, "dist": dist, "year": year}
    )


@pytest.fixture()
def session(table) -> Session:
    return connect(delta=0.05).register("flights", table)


class TestAvg:
    def test_basic_query_ordering(self, session, table):
        out = session.sql("SELECT name, AVG(delay) FROM flights GROUP BY name").run(
            seed=1
        )
        est = out.estimates()
        assert est["JB"] < est["AA"] < est["UA"]
        assert out.total_samples < table.num_rows

    def test_where_changes_population(self, session, table):
        out = session.sql(
            "SELECT name, AVG(delay) FROM flights WHERE year >= 1995 GROUP BY name"
        ).run(seed=2)
        mask = table.column("year") >= 1995
        for label in out.labels:
            group = mask & (table.column("name") == label)
            true_mean = table.column("delay")[group].mean()
            assert out.estimates()[label] == pytest.approx(true_mean, abs=5.0)

    def test_algorithm_selection(self, session):
        out = (
            session.sql("SELECT name, AVG(delay) FROM flights GROUP BY name")
            .using("roundrobin")
            .run(seed=3)
        )
        assert out["AVG(delay)"].algorithm == "roundrobin"

    def test_two_avgs_problem8(self, session):
        out = session.sql(
            "SELECT name, AVG(delay), AVG(dist) FROM flights GROUP BY name"
        ).run(seed=4)
        assert set(out.aggregates) == {"AVG(delay)", "AVG(dist)"}

    def test_three_avgs_rejected(self, session):
        with pytest.raises(ValueError):
            session.sql(
                "SELECT name, AVG(delay), AVG(dist), AVG(year) FROM flights GROUP BY name"
            ).run()


class TestOtherAggregates:
    def test_sum(self, session, table):
        out = session.sql("SELECT name, SUM(delay) FROM flights GROUP BY name").run(
            seed=5
        )
        for label, est in out.estimates().items():
            true_sum = table.column("delay")[table.column("name") == label].sum()
            assert est == pytest.approx(true_sum, rel=0.15)

    def test_count_exact(self, session, table):
        out = session.sql("SELECT name, COUNT(*) FROM flights GROUP BY name").run()
        for label, est in out.estimates().items():
            assert est == int((table.column("name") == label).sum())
        assert out["COUNT(*)"].total_samples == 0


class TestHaving:
    def test_having_drops_groups(self, session):
        out = session.sql(
            "SELECT name, AVG(delay) FROM flights GROUP BY name "
            "HAVING AVG(delay) > 20"
        ).run(seed=6)
        assert "JB" in out.dropped_by_having
        assert "UA" not in out.dropped_by_having

    def test_having_requires_selected_aggregate(self, session):
        with pytest.raises(ValueError):
            session.sql(
                "SELECT name, AVG(delay) FROM flights GROUP BY name "
                "HAVING AVG(dist) > 20"
            ).run(seed=7)


class TestMultiGroupBy:
    def test_composite_labels(self, session):
        out = session.sql(
            "SELECT name, year, AVG(delay) FROM flights "
            "WHERE year IN (1995, 1996) GROUP BY name, year"
        ).run(seed=8)
        assert all("|" in label for label in out.labels)
        assert len(out.labels) == 6  # 3 carriers x 2 years


class TestValidation:
    def test_unknown_table(self, session):
        with pytest.raises(KeyError):
            session.sql("SELECT name, AVG(delay) FROM other GROUP BY name").run()

    def test_unknown_aggregate_column(self, session):
        with pytest.raises(KeyError):
            session.sql("SELECT name, AVG(bogus) FROM flights GROUP BY name").run()

    def test_unknown_group_column(self, session):
        with pytest.raises(KeyError):
            session.sql("SELECT bogus, AVG(delay) FROM flights GROUP BY bogus").run()

    def test_unknown_where_column(self, session):
        with pytest.raises(KeyError):
            session.sql(
                "SELECT name, AVG(delay) FROM flights WHERE bogus > 1 GROUP BY name"
            ).run()
