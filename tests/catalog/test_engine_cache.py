"""The catalog's engine build cache: one engine per build key, not per query.

``Catalog.indexed_engine`` keeps the ``needletail``/``noindex`` engine under the
coordinates the population cache uses - ``(source, GROUP BY list, value
column, predicate, value bound)`` - and under the same rules: LRU-bounded,
skipped for non-cacheable sources, dropped by ``invalidate``/rebinding,
shared with ``snapshot()`` views.  A cached engine must be invisible in the
answers: every query over a warm catalog is bit-identical to the same query
over a catalog that has never built anything.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog import Catalog, IteratorSource
from repro.data.population import BUILD_COUNTS
from repro.session import avg, connect, sum_


def _data(n: int = 6000, seed: int = 3) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    g = rng.choice(["a", "b", "c", "d"], size=n)
    base = {"a": 20.0, "b": 40.0, "c": 60.0, "d": 80.0}
    return {
        "g": g,
        "h": rng.choice(["x", "y"], size=n),
        "y": np.clip(np.array([base[x] for x in g]) + rng.normal(0, 8, n), 0, 100),
        "z": rng.uniform(0, 50, n),
        "year": rng.integers(2000, 2010, n).astype(float),
    }


def _session(**kwargs):
    return connect(engine="needletail", **kwargs).attach("t", _data())


def _fingerprint(result):
    return tuple(
        (
            key,
            tuple(result.labels),
            tuple(float(v) for v in agg.raw.estimates),
            tuple(int(s) for s in agg.raw.samples_per_group),
        )
        for key, agg in result.aggregates.items()
    ) + (result.total_samples,)


QUERIES = {
    "plain": lambda t: t.group_by("g").agg(avg("y")),
    "where": lambda t: t.group_by("g").agg(avg("y")).where("year >= 2004"),
    "composite": lambda t: t.group_by("g", "h").agg(avg("y")),
    "noindex": lambda t: t.group_by("g").agg(avg("y")).on_engine("noindex"),
    "avg+sum": lambda t: t.group_by("g").agg(avg("y"), sum_("y")),
    "thread-sharded": lambda t: t.group_by("g").agg(avg("y")).sharded(2),
    "process-sharded": lambda t: t.group_by("g").agg(avg("y")).sharded(
        2, executor="process"
    ),
}


class TestHits:
    def test_hit_returns_the_same_engine_and_builds_nothing(self):
        with _session() as session:
            query = QUERIES["plain"](session.table("t"))
            first = query.run(seed=1)
            before = dict(BUILD_COUNTS)
            second = query.run(seed=1)
            assert BUILD_COUNTS == before
            assert second.engine is first.engine
            assert _fingerprint(second) == _fingerprint(first)

    @pytest.mark.parametrize("door", ["memory", "needletail"])
    def test_composite_group_by_builds_once_and_never_materializes(self, door):
        """A composite GROUP BY is one catalog population build, like any
        other: repeated queries reuse it, and no door materializes the table."""
        with connect(engine=door).attach("t", _data()) as session:
            query = QUERIES["composite"](session.table("t"))
            before = BUILD_COUNTS["source"]
            first = query.run(seed=1)
            again = [query.run(seed=seed) for seed in (1, 2)]
            assert BUILD_COUNTS["source"] - before == 1
            assert _fingerprint(again[0]) == _fingerprint(first)
            info = session.describe_table("t")
            assert not info.table_cached
            assert info.cached_populations == ((("g", "h"), "y", None, None),)

    @pytest.mark.parametrize("shape", sorted(QUERIES))
    def test_cached_equals_fresh_bit_for_bit(self, shape):
        with _session() as warm:
            query = QUERIES[shape](warm.table("t"))
            query.run(seed=5)  # fills the cache
            before = dict(BUILD_COUNTS)
            cached = [query.run(seed=s) for s in (5, 6)]
            assert BUILD_COUNTS == before
        for seed, got in zip((5, 6), cached):
            with _session() as fresh:
                want = QUERIES[shape](fresh.table("t")).run(seed=seed)
            assert _fingerprint(got) == _fingerprint(want)

    def test_hit_skips_the_builder_entirely(self):
        catalog = Catalog().register("t", _data())
        calls = []

        def builder():
            calls.append(1)
            return object()

        first = catalog.indexed_engine("t", "g", "y", group_spec=["g"], builder=builder)
        again = catalog.indexed_engine("t", "g", "y", group_spec=["g"], builder=builder)
        assert again is first and len(calls) == 1

    def test_none_builds_pass_through_uncached(self):
        catalog = Catalog().register("t", _data())
        assert catalog.indexed_engine("t", "g", "y", builder=lambda: None) is None
        assert catalog.indexed_engine("t", "g", "y") is None
        assert catalog.describe("t").cached_engines == ()


class TestKeys:
    def test_each_coordinate_gets_its_own_entry(self):
        with _session() as session:
            base = session.table("t").group_by("g").agg(avg("y"))
            variants = [
                base,
                base.where("year >= 2004"),
                base.where("year >= 2005"),
                session.table("t").group_by("g").agg(avg("z")),
                base.bound(200.0),
                session.table("t").group_by("g", "h").agg(avg("y")),
            ]
            before = BUILD_COUNTS["source"]
            for query in variants:
                query.run(seed=1)
            assert BUILD_COUNTS["source"] - before == len(variants)
            engines = session.describe_table("t").cached_engines
            assert len(set(engines)) == len(variants)
            assert (("g",), "y", None, None) in engines
            assert (("g", "h"), "y", None, None) in engines
            assert (("g",), "y", None, 200.0) in engines
            for query in variants:
                query.run(seed=2)
            assert BUILD_COUNTS["source"] - before == len(variants)

    def test_lru_bound_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(Catalog, "MAX_CACHED_POPULATIONS", 2)
        with _session() as session:
            base = session.table("t").group_by("g").agg(avg("y"))
            queries = [base.where(f"year >= {2000 + i}") for i in range(4)]
            for query in queries:
                query.run(seed=1)
            assert len(session.describe_table("t").cached_engines) == 2
            before = BUILD_COUNTS["source"]
            queries[-1].run(seed=1)  # most recent: a hit
            assert BUILD_COUNTS["source"] == before
            queries[0].run(seed=1)  # evicted: rebuilt
            assert BUILD_COUNTS["source"] == before + 1


class TestFreshness:
    def test_uncached_stream_rebuilds_and_sees_new_rows(self):
        data = _data(n=400)
        state = {"chunks": 1}

        def factory():
            for _ in range(state["chunks"]):
                yield {k: data[k] for k in ("g", "y")}

        session = connect(engine="needletail").attach("feed", IteratorSource(factory))
        query = session.table("feed").group_by("g").agg("COUNT(*)")
        before = BUILD_COUNTS["source"]
        assert sum(query.run().estimates().values()) == 400
        state["chunks"] = 3  # the stream grew
        assert sum(query.run().estimates().values()) == 1200
        assert BUILD_COUNTS["source"] == before + 2
        assert session.describe_table("feed").cached_engines == ()
        session.close()

    def test_invalidate_serves_the_rewritten_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("g,y\n" + "a,1.0\nb,9.0\n" * 50)
        session = connect(engine="needletail").attach("t", path)
        query = session.table("t").group_by("g").agg(avg("y"))
        assert query.run(seed=1).estimates()["a"] == pytest.approx(1.0)
        assert len(session.describe_table("t").cached_engines) == 1
        path.write_text("g,y\n" + "a,5.0\nb,9.0\n" * 50)
        session.invalidate("t")
        assert session.describe_table("t").cached_engines == ()
        assert query.run(seed=1).estimates()["a"] == pytest.approx(5.0)
        session.close()

    def test_rebinding_a_name_drops_the_old_sources_engine(self):
        with _session() as session:
            query = session.table("t").group_by("g").agg("COUNT(*)")
            assert sum(query.run().estimates().values()) == 6000
            session.attach("t", _data(n=500))
            assert session.describe_table("t").cached_engines == ()
            assert sum(query.run().estimates().values()) == 500


class TestSharing:
    def test_snapshot_taken_before_the_first_query_shares_the_build(self):
        with _session() as session:
            view = session.catalog.snapshot()
            query = session.table("t").group_by("g").agg(avg("y"))
            first = query.run(seed=1)
            assert view.describe("t").cached_engines == ((("g",), "y", None, None),)
            before = dict(BUILD_COUNTS)
            engine = view.indexed_engine(
                "t", "g", "y", group_spec=["g"], builder=lambda: pytest.fail("rebuilt")
            )
            assert engine is first.engine and BUILD_COUNTS == before

    def test_eight_cold_submits_agree_and_a_ninth_builds_nothing(self):
        with _session(submit_workers=8) as session:
            query = session.table("t").group_by("g").agg(avg("y"))
            futures = [session.submit(query, seed=4) for _ in range(8)]
            results = [f.result(timeout=120) for f in futures]
            with _session() as fresh:
                want = _fingerprint(
                    fresh.table("t").group_by("g").agg(avg("y")).run(seed=4)
                )
            assert [_fingerprint(r) for r in results] == [want] * 8
            assert len(session.describe_table("t").cached_engines) == 1
            before = dict(BUILD_COUNTS)
            ninth = query.run(seed=4)
            assert BUILD_COUNTS == before and _fingerprint(ninth) == want
