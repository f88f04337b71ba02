"""SQL-text vs fluent-builder parity.

The acceptance contract of the Session API: the same logical query expressed
through either front door lowers to the *identical* ``QuerySpec`` and - given
the same seed - produces bit-identical results, for every workload shape
(AVG, SUM, COUNT, multi-AVG, WHERE, HAVING, multi-GROUP-BY, top-t, trends,
and partial streaming).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.session import Session, avg, connect, count, total
from repro.session.spec import GuaranteeSpec, QuerySpec


@pytest.fixture()
def session() -> Session:
    rng = np.random.default_rng(1)
    n = 20_000
    names = rng.choice(["AA", "JB", "UA"], size=n, p=[0.5, 0.3, 0.2])
    base = {"AA": 30.0, "JB": 15.0, "UA": 85.0}
    delay = np.clip(np.array([base[x] for x in names]) + rng.normal(0, 8, n), 0, 100)
    dist = rng.uniform(100, 2000, n)
    year = rng.integers(1990, 2000, n)
    return connect().register(
        "flights", {"name": names, "delay": delay, "dist": dist, "year": year}
    )


def assert_bit_identical(r1, r2) -> None:
    """Two unified Results are exactly equal, group by group."""
    assert r1.labels == r2.labels
    assert list(r1.aggregates) == list(r2.aggregates)
    assert r1.dropped_by_having == r2.dropped_by_having
    assert r1.caveats == r2.caveats
    for key in r1.aggregates:
        a, b = r1[key], r2[key]
        assert a.algorithm == b.algorithm
        np.testing.assert_array_equal(a.raw.estimates, b.raw.estimates)
        np.testing.assert_array_equal(
            a.raw.samples_per_group, b.raw.samples_per_group
        )
        assert a.raw.inactive_order == b.raw.inactive_order


class TestSpecEquality:
    def test_simple_avg(self, session):
        sql = session.sql("SELECT name, AVG(delay) FROM flights GROUP BY name")
        built = session.table("flights").group_by("name").agg(avg("delay"))
        assert sql.spec() == built.spec()
        assert isinstance(sql.spec(), QuerySpec)

    def test_where_and_between(self, session):
        sql = session.sql(
            "SELECT name, AVG(delay) FROM flights "
            "WHERE year >= 1995 AND dist BETWEEN 300 AND 1500 GROUP BY name"
        )
        built = (
            session.table("flights")
            .where("year >= 1995")
            .where("dist BETWEEN 300 AND 1500")
            .group_by("name")
            .agg(avg("delay"))
        )
        assert sql.spec() == built.spec()

    def test_where_single_string_matches_two_calls(self, session):
        one = session.table("flights").where("year >= 1995 AND dist > 500")
        two = session.table("flights").where("year >= 1995").where("dist > 500")
        b1 = one.group_by("name").agg(avg("delay"))
        b2 = two.group_by("name").agg(avg("delay"))
        assert b1.spec() == b2.spec()

    def test_having(self, session):
        sql = session.sql(
            "SELECT name, AVG(delay) FROM flights GROUP BY name "
            "HAVING AVG(delay) > 20"
        )
        built = (
            session.table("flights")
            .group_by("name")
            .agg(avg("delay"))
            .having("AVG(delay) > 20")
        )
        assert sql.spec() == built.spec()

    def test_multi_group_by(self, session):
        sql = session.sql(
            "SELECT name, year, AVG(delay) FROM flights "
            "WHERE year IN (1995, 1996) GROUP BY name, year"
        )
        built = (
            session.table("flights")
            .where("year IN (1995, 1996)")
            .group_by("name", "year")
            .agg(avg("delay"))
        )
        assert sql.spec() == built.spec()

    def test_sum_count_dispatch(self, session):
        sql = session.sql(
            "SELECT name, SUM(delay), COUNT(*) FROM flights GROUP BY name"
        )
        built = (
            session.table("flights")
            .group_by("name")
            .agg(total("delay"), count("*"))
        )
        assert sql.spec() == built.spec()

    def test_aggregate_strings_match_constructors(self, session):
        by_str = session.table("flights").group_by("name").agg("AVG(delay)")
        by_ctor = session.table("flights").group_by("name").agg(avg("delay"))
        assert by_str.spec() == by_ctor.spec()

    def test_chained_guarantee_applies_to_both_doors(self, session):
        sql = (
            session.sql("SELECT name, AVG(delay) FROM flights GROUP BY name")
            .top(2)
            .guarantee(delta=0.1)
        )
        built = (
            session.table("flights")
            .group_by("name")
            .agg(avg("delay"))
            .top(2)
            .guarantee(delta=0.1)
        )
        assert sql.spec() == built.spec()
        assert sql.spec().guarantee == GuaranteeSpec(delta=0.1, mode="top", top_t=2)

    def test_builder_is_immutable(self, session):
        base = session.table("flights").group_by("name")
        with_agg = base.agg(avg("delay"))
        with_other = base.agg(total("delay"))
        assert with_agg.spec().aggregates != with_other.spec().aggregates
        with pytest.raises(ValueError):
            base.spec()  # still has no aggregate: base was not mutated


class TestResultParity:
    def _pair(self, session, sql_text, builder):
        r_sql = session.sql(sql_text).run(seed=7)
        r_built = builder.run(seed=7)
        assert_bit_identical(r_sql, r_built)
        return r_sql

    def test_avg(self, session):
        res = self._pair(
            session,
            "SELECT name, AVG(delay) FROM flights GROUP BY name",
            session.table("flights").group_by("name").agg(avg("delay")),
        )
        est = res.estimates()
        assert est["JB"] < est["AA"] < est["UA"]

    def test_avg_with_where(self, session):
        self._pair(
            session,
            "SELECT name, AVG(delay) FROM flights WHERE year >= 1995 GROUP BY name",
            session.table("flights")
            .where("year >= 1995")
            .group_by("name")
            .agg(avg("delay")),
        )

    def test_having_drops_and_caveat(self, session):
        res = self._pair(
            session,
            "SELECT name, AVG(delay) FROM flights GROUP BY name "
            "HAVING AVG(delay) > 20",
            session.table("flights")
            .group_by("name")
            .agg(avg("delay"))
            .having("AVG(delay) > 20"),
        )
        assert "JB" in res.dropped_by_having
        assert any("HAVING" in c for c in res.caveats)
        assert "JB" not in res.kept_labels

    def test_multi_group_by(self, session):
        res = self._pair(
            session,
            "SELECT name, year, AVG(delay) FROM flights "
            "WHERE year IN (1995, 1996) GROUP BY name, year",
            session.table("flights")
            .where("year IN (1995, 1996)")
            .group_by("name", "year")
            .agg(avg("delay")),
        )
        assert len(res.labels) == 6  # 3 carriers x 2 years
        assert all("|" in label for label in res.labels)

    def test_sum_and_count(self, session):
        res = self._pair(
            session,
            "SELECT name, SUM(delay), COUNT(*) FROM flights GROUP BY name",
            session.table("flights").group_by("name").agg(total("delay"), count()),
        )
        assert res["SUM(delay)"].algorithm == "ifocus-sum"
        assert res["COUNT(*)"].algorithm == "count-known"
        assert res["COUNT(*)"].total_samples == 0

    def test_multi_avg(self, session):
        res = self._pair(
            session,
            "SELECT name, AVG(delay), AVG(dist) FROM flights GROUP BY name",
            session.table("flights")
            .group_by("name")
            .agg(avg("delay"), avg("dist")),
        )
        assert set(res.aggregates) == {"AVG(delay)", "AVG(dist)"}

    def test_top_t(self, session):
        # top-t is not SQL-expressible, but it chains onto the SQL door too.
        r_sql = (
            session.sql("SELECT name, AVG(delay) FROM flights GROUP BY name")
            .top(1)
            .run(seed=7)
        )
        r_built = (
            session.table("flights").group_by("name").agg(avg("delay")).top(1).run(seed=7)
        )
        assert_bit_identical(r_sql, r_built)
        assert r_sql.first.meta["top_labels"] == ["UA"]

    def test_trends(self, session):
        r_sql = (
            session.sql("SELECT name, AVG(delay) FROM flights GROUP BY name")
            .trends()
            .run(seed=7)
        )
        r_built = (
            session.table("flights")
            .group_by("name")
            .agg(avg("delay"))
            .trends()
            .run(seed=7)
        )
        assert_bit_identical(r_sql, r_built)
        assert r_sql.first.algorithm == "ifocus-trends"


class TestStreamingParity:
    def test_stream_both_doors_identical(self, session):
        sql_stream = session.sql(
            "SELECT name, AVG(delay) FROM flights GROUP BY name"
        ).stream(seed=11)
        built_stream = (
            session.table("flights").group_by("name").agg(avg("delay")).stream(seed=11)
        )
        sql_updates = list(sql_stream)
        built_updates = list(built_stream)
        assert len(sql_updates) == len(built_updates) == 3
        for a, b in zip(sql_updates, built_updates):
            assert a.group == b.group
            assert a.live and b.live
            assert a.aggregate == b.aggregate == "AVG(delay)"
        assert sql_updates[-1].done
        assert_bit_identical(sql_stream.result, built_stream.result)

    def test_stream_final_result_matches_run(self, session):
        builder = session.table("flights").group_by("name").agg(avg("delay"))
        run_res = builder.run(seed=11)
        stream = builder.stream(seed=11)
        # One executor serves both doors: the stream is its on_finalize hook.
        assert_bit_identical(run_res, stream.drain())

    def test_sum_streams_posthoc(self, session):
        stream = (
            session.table("flights").group_by("name").agg(total("delay")).stream(seed=5)
        )
        updates = list(stream)
        assert len(updates) == 3
        assert all(not u.live for u in updates)
        # post-hoc replay follows the true finalization order
        assert [u.group.label for u in updates] == stream.result.finalization_order()

    def test_multi_avg_streams_posthoc_per_aggregate(self, session):
        stream = (
            session.table("flights")
            .group_by("name")
            .agg(avg("delay"), avg("dist"))
            .stream(seed=5)
        )
        updates = list(stream)
        assert len(updates) == 6  # 3 groups x 2 aggregates
        assert {u.aggregate for u in updates} == {"AVG(delay)", "AVG(dist)"}
