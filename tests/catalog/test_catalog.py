"""Catalog behaviour: lazy cached builds, invalidation, snapshots."""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog import Catalog, SourceSpec, SyntheticSource, TableSource
from repro.needletail.table import Table
from repro.query.parser import parse_predicate
from repro.session import avg, connect


@pytest.fixture()
def data() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(1)
    n = 4000
    g = rng.choice(["a", "b", "c"], size=n)
    base = {"a": 20.0, "b": 50.0, "c": 80.0}
    y = np.clip(np.array([base[x] for x in g]) + rng.normal(0, 5, n), 0, 100)
    return {"g": g, "y": y, "year": rng.integers(2000, 2010, n).astype(float)}


class CountingSource(TableSource):
    """TableSource that counts how many scans actually hit the data."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scans = 0

    def _chunks(self, columns):
        self.scans += 1
        yield from super()._chunks(columns)


class TestCatalogBasics:
    def test_register_and_names(self, data):
        catalog = Catalog().register("t", data).register("u", Table.from_dict("u", data))
        assert catalog.names == ["t", "u"]
        assert "t" in catalog and "nope" not in catalog

    def test_unknown_table(self):
        with pytest.raises(KeyError, match="unknown table"):
            Catalog().schema("nope")

    def test_table_materialization_cached(self, data):
        catalog = Catalog().register("t", CountingSource(data, name="t", chunk_rows=512))
        t1 = catalog.table("t")
        t2 = catalog.table("t")
        assert t1 is t2
        assert t1.num_rows == 4000

    def test_describe(self, data):
        catalog = Catalog().register("t", data)
        info = catalog.describe("t")
        assert info.kind == "memory"
        assert info.schema.names == ["g", "y", "year"]
        assert info.row_count_hint == 4000
        assert not info.table_cached and info.cached_populations == ()


class TestPopulationCache:
    def test_population_build_reused(self, data):
        source = CountingSource(data, name="t", chunk_rows=512)
        catalog = Catalog().register("t", source)
        p1 = catalog.population("t", "g", "y")
        p2 = catalog.population("t", "g", "y")
        assert p1 is p2
        assert source.scans == 1

    def test_distinct_keys_build_separately(self, data):
        source = CountingSource(data, name="t", chunk_rows=512)
        catalog = Catalog().register("t", source)
        pred = parse_predicate("year >= 2005")
        catalog.population("t", "g", "y")
        catalog.population("t", "g", "y", predicate=pred)
        catalog.population("t", "g", "y", predicate=pred)  # cached
        catalog.population("t", "g", "year")
        assert source.scans == 3

    def test_reregister_invalidates(self, data):
        source = CountingSource(data, name="t", chunk_rows=512)
        catalog = Catalog().register("t", source)
        catalog.population("t", "g", "y")
        catalog.table("t")
        catalog.register("t", CountingSource(data, name="t"))
        info = catalog.describe("t")
        assert not info.table_cached and info.cached_populations == ()

    def test_population_groups_sorted_and_grouped(self, data):
        catalog = Catalog().register("t", TableSource(data, name="t", chunk_rows=700))
        pop = catalog.population("t", "g", "y")
        assert pop.group_names == ["a", "b", "c"]
        assert pop.total_size == 4000
        for group in pop.groups:
            np.testing.assert_array_equal(
                group.values, data["y"][data["g"] == group.name]
            )

    def test_empty_predicate_result(self, data):
        catalog = Catalog().register("t", data)
        with pytest.raises(ValueError, match="no group matches the predicate"):
            catalog.population("t", "g", "y", predicate=parse_predicate("year > 3000"))

    def test_streaming_source_is_never_frozen(self):
        """A default IteratorSource re-reads its factory per query, so new
        data arriving between queries is visible (not the first snapshot)."""
        from repro.catalog import IteratorSource

        state = {"chunks": 1}

        def factory():
            for i in range(state["chunks"]):
                yield {
                    "g": np.array(["a", "b"] * 5),
                    "y": np.arange(10.0) + 100 * i,
                }

        catalog = Catalog().register("feed", IteratorSource(factory))
        assert catalog.population("feed", "g", "y").total_size == 10
        state["chunks"] = 3  # the stream grew
        assert catalog.population("feed", "g", "y").total_size == 30
        assert catalog.describe("feed").cached_populations == ()

    def test_invalidate_drops_builds(self, data):
        source = CountingSource(data, name="t", chunk_rows=512)
        catalog = Catalog().register("t", source)
        catalog.population("t", "g", "y")
        catalog.table("t")
        catalog.invalidate("t")
        info = catalog.describe("t")
        assert not info.table_cached and info.cached_populations == ()
        catalog.population("t", "g", "y")
        assert source.scans == 2  # rebuilt after invalidation

    def test_invalidate_reinfers_source_metadata(self, tmp_path):
        """A rewritten CSV gets fresh types and row counts, not stale ones."""
        path = tmp_path / "t.csv"
        path.write_text("g,y\na,1.0\nb,2.0\n")
        session = connect(engine="memory").attach("t", path)
        assert session.describe_table("t").schema.is_numeric("y")
        assert session.describe_table("t").row_count_hint == 2
        # the file changes shape on disk: y becomes a string column
        path.write_text("g,y,n\na,x1,1\na,x2,2\nb,x3,3\n")
        session.invalidate("t")
        info = session.describe_table("t")
        assert not info.schema.is_numeric("y")
        assert info.schema.names == ["g", "y", "n"]
        assert info.row_count_hint == 3
        res = session.table("t").group_by("g").agg("COUNT(*)").run()
        assert sum(res.estimates().values()) == 3

    def test_population_cache_is_lru_bounded(self, data, monkeypatch):
        monkeypatch.setattr(Catalog, "MAX_CACHED_POPULATIONS", 3)
        source = CountingSource(data, name="t", chunk_rows=512)
        catalog = Catalog().register("t", source)
        preds = [parse_predicate(f"year >= {2000 + i}") for i in range(5)]
        for pred in preds:
            catalog.population("t", "g", "y", predicate=pred)
        assert len(catalog.describe("t").cached_populations) == 3
        assert source.scans == 5
        # most recent keys are hits, the evicted oldest rebuilds
        catalog.population("t", "g", "y", predicate=preds[-1])
        assert source.scans == 5
        catalog.population("t", "g", "y", predicate=preds[0])
        assert source.scans == 6

    def test_synthetic_source_skips_scan(self):
        catalog = Catalog().register(
            "synth", SyntheticSource("mixture", k=3, total_size=30_000, seed=4)
        )
        pop = catalog.population("synth", "g", "value")
        assert pop.k == 3 and pop.total_size == 30_000

    def test_snapshot_isolated(self, data):
        catalog = Catalog().register("t", data)
        snap = catalog.snapshot()
        catalog.register("u", data)
        assert "u" not in snap
        snap.register("v", data)
        assert "v" not in catalog


class TestSessionIntegration:
    def test_repeat_queries_reuse_population(self, data):
        source = CountingSource(data, name="t", chunk_rows=512)
        session = connect(engine="memory").attach("t", source)
        builder = session.table("t").group_by("g").agg(avg("y"))
        r1 = builder.run(seed=3)
        r2 = builder.run(seed=3)
        assert source.scans == 1  # second query reused the cached build
        np.testing.assert_array_equal(
            r1.first.raw.estimates, r2.first.raw.estimates
        )

    def test_memory_engine_does_not_materialize_table(self, data):
        """Population engines scan only the columns the query touches."""
        source = CountingSource(data, name="t", chunk_rows=512)
        session = connect(engine="memory").attach("t", source)
        session.table("t").group_by("g").agg(avg("y")).run(seed=3)
        assert not session.catalog.describe("t").table_cached

    def test_needletail_materializes_lazily_and_once(self, data):
        from repro.catalog import IteratorSource

        scans = [0]

        def factory():
            scans[0] += 1
            yield dict(data)

        source = IteratorSource(factory, cache=True)  # replayed fixed data
        session = connect().attach("t", source)
        session.catalog.schema("t")  # one-time schema inference, cached
        scans[0] = 0
        assert not session.catalog.describe("t").table_cached
        builder = session.table("t").group_by("g").agg(avg("y"))
        builder.run(seed=3)
        assert session.catalog.describe("t").table_cached
        builder.run(seed=4)
        assert scans[0] == 1  # one materializing scan serves both queries

    def test_submit_workloads_share_the_population_cache(self, data):
        """Snapshots share builds: N submits of one query scan the source once."""
        source = CountingSource(data, name="t", chunk_rows=512)
        with connect(engine="memory").attach("t", source) as session:
            builder = session.table("t").group_by("g").agg(avg("y"))
            first = session.submit(builder, seed=1).result(timeout=60)
            futures = [session.submit(builder, seed=1) for _ in range(3)]
            for f in futures:
                np.testing.assert_array_equal(
                    f.result(timeout=60).first.raw.estimates,
                    first.first.raw.estimates,
                )
        assert source.scans == 1

    def test_reregister_cannot_serve_stale_cached_builds(self, data):
        """Caches are keyed by source: rebinding a name swaps the data."""
        session = connect(engine="memory").register("t", data)
        builder = session.table("t").group_by("g").agg(avg("y"))
        builder.run(seed=2)  # populate the cache for the first source
        swapped = {
            "g": np.array(["z"] * 100),
            "y": np.arange(100.0),
        }
        session.register("t", swapped)
        res = session.table("t").group_by("g").agg(avg("y")).run(seed=2)
        assert res.labels == ["z"]

    def test_submit_snapshot_unaffected_by_reregister(self, data):
        session = connect(engine="memory").register("t", data)
        future = session.submit(
            session.table("t").group_by("g").agg(avg("y")), seed=5
        )
        session.register("t", {"g": np.array(["x"] * 4), "y": np.arange(4.0)})
        result = future.result(timeout=60)
        assert result.labels == ["a", "b", "c"]
        session.close()

    def test_virtual_synthetic_through_session(self):
        session = connect(engine="memory").attach(
            "bench",
            SourceSpec("synthetic", family="mixture", k=4, total_size=200_000, seed=11),
        )
        res = session.table("bench").group_by("g").agg(avg("value")).run(seed=0)
        assert len(res.labels) == 4
        pop = session.catalog.population("bench", "g", "value")
        true = {g.name: g.true_mean for g in pop.groups}
        order = sorted(true, key=true.get)
        assert res.first.order() == order
