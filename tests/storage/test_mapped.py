"""Pack/unpack serializers and the FileArrayRef worker transport."""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3

import numpy as np
import pytest

from repro.catalog.catalog import population_from_chunks
from repro.data.population import MaterializedGroup, Population
from repro.engines.payload import (
    FileArrayRef,
    PoolDir,
    build_shard_payloads,
    file_backed_ref,
    live_pool_dirs,
)
from repro.needletail.engine import BUILD_COUNTS, NeedletailEngine, base_bitvector
from repro.needletail.table import Column, Table
from repro.storage import (
    STORE_FORMAT_VERSION,
    DurableCatalog,
    MappedNeedletailEngine,
    pack_index,
    pack_population,
    pack_table,
    unpack_index,
    unpack_population,
    unpack_table,
)
from repro.storage.mapped import concatenated


def _table(rows_per_group=200, groups=4, seed=3):
    rng = np.random.default_rng(seed)
    labels = np.repeat([f"g{i}" for i in range(groups)], rows_per_group)
    values = rng.normal(40, 10, rows_per_group * groups).clip(0, 100)
    return Table("t", [Column("g", labels, 8), Column("v", values, 8)])


class TestPackIndex:
    def test_roundtrip_is_bit_identical(self):
        engine = NeedletailEngine(_table(), "g", "v")
        meta, arrays = pack_index(engine)
        back = unpack_index(meta, arrays, group_by="g", value_column="v")
        assert isinstance(back, MappedNeedletailEngine)
        for a, b in zip(engine.population.groups, back.population.groups):
            assert a.name == b.name
            wa = np.asarray(base_bitvector(a._selector).words)
            wb = np.asarray(base_bitvector(b._selector).words)
            assert np.array_equal(wa, wb)
        assert back.population.c == engine.population.c
        assert np.array_equal(back.population.sizes(), engine.population.sizes())

    def test_selects_identical(self):
        engine = NeedletailEngine(_table(), "g", "v")
        meta, arrays = pack_index(engine)
        back = unpack_index(meta, arrays, group_by="g", value_column="v")
        for a, b in zip(engine.population.groups, back.population.groups):
            ranks = np.arange(0, a.size, 7)
            assert np.array_equal(a.fetch_by_rank(ranks), b.fetch_by_rank(ranks))


class TestPackPopulation:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        pop = Population(
            groups=[MaterializedGroup(f"g{i}", rng.normal(i, 1, 100)) for i in range(3)],
            c=100.0,
            name="p",
        )
        kind, meta, buffers = pack_population(pop)
        assert kind == "population"
        back = unpack_population(kind, meta, concatenated(buffers))
        assert [g.name for g in back.groups] == [g.name for g in pop.groups]
        for a, b in zip(pop.groups, back.groups):
            assert np.array_equal(np.asarray(a.values), np.asarray(b.values))


class TestPackTable:
    def test_roundtrip(self):
        table = _table()
        meta, arrays = pack_table(table)
        back = unpack_table(meta, arrays, "t")
        assert back.column_names == table.column_names
        for name in table.column_names:
            assert np.array_equal(back.column(name), table.column(name))

    def test_object_dtype_stays_memory_only(self):
        table = Table("t", [Column("o", np.array([object()] * 4), 8),
                            Column("v", np.arange(4.0), 8)])
        assert pack_table(table) is None


class TestFileBackedRefs:
    """Mapped (durable-store) buffers ship to workers as file windows."""

    @pytest.fixture
    def mapped_engine(self, tmp_path):
        cat = DurableCatalog(tmp_path / "store")
        cat.attach("t", {"g": np.repeat([f"g{i}" for i in range(4)], 200),
                         "v": np.tile(np.arange(200.0), 4)})
        built = cat.prime("t", "g", "v")
        assert "needletail" in built
        fresh = DurableCatalog(tmp_path / "store")
        engine = fresh.indexed_engine("t", "g", "v", group_spec=["g"],
                                      builder=lambda: None)
        assert isinstance(engine, MappedNeedletailEngine)
        return engine

    def test_ram_arrays_are_not_file_backed(self):
        assert file_backed_ref(np.arange(10.0)) is None

    def test_mapped_window_is_file_backed(self, mapped_engine):
        group = mapped_engine.population.groups[0]
        words = np.asarray(base_bitvector(group._selector).words)
        ref = file_backed_ref(words)
        assert isinstance(ref, FileArrayRef)
        assert np.array_equal(ref.map(), words)

    @pytest.fixture
    def pool_dir(self):
        directory = PoolDir()
        yield directory
        directory.close()

    def test_payloads_ship_store_windows_without_copies(self, mapped_engine, pool_dir):
        gids = [np.array([0, 1]), np.array([2, 3])]
        payloads = build_shard_payloads(mapped_engine.population, gids, pool_dir)
        assert os.listdir(pool_dir.path) == []  # nothing copied
        for payload in payloads:
            assert sorted(payload.refs) == ["cum", "values", "words"]
            for ref in payload.refs.values():
                assert isinstance(ref, FileArrayRef)
                assert os.path.dirname(ref.path) != pool_dir.path

    def test_mapped_population_ships_its_segment_in_place(self, tmp_path, pool_dir):
        DurableCatalog(tmp_path / "store").attach(
            "t", {"g": np.repeat(["a", "b", "c"], 50), "v": np.arange(150.0)}
        )
        pop = DurableCatalog(tmp_path / "store").population("t", "g", "v")  # persists
        mapped = DurableCatalog(tmp_path / "store").population("t", "g", "v")
        (payload,) = build_shard_payloads(mapped, [np.arange(3)], pool_dir)
        assert payload.kind == "population"
        assert os.listdir(pool_dir.path) == []
        assert file_backed_ref(mapped.groups[0].values) is not None
        rebuilt = payload.build_population()
        for a, b in zip(pop.groups, rebuilt.groups):
            assert np.array_equal(a.values, b.values)

    def test_worker_rebuild_from_files_is_bit_identical(self, mapped_engine, pool_dir):
        gids = [np.arange(4)]
        (payload,) = build_shard_payloads(mapped_engine.population, gids, pool_dir)
        rebuilt = payload.build_population()
        for a, b in zip(mapped_engine.population.groups, rebuilt.groups):
            assert a.name == b.name and a.size == b.size
            ranks = np.arange(a.size)
            assert np.array_equal(a.fetch_by_rank(ranks), b.fetch_by_rank(ranks))

    def test_ram_population_ships_files_in_the_pool_directory(self):
        engine = NeedletailEngine(_table(), "g", "v")
        directory = PoolDir()
        (payload,) = build_shard_payloads(engine.population, [np.arange(4)], directory)
        refs = list(payload.refs.values())
        assert all(isinstance(ref, FileArrayRef) for ref in refs)
        assert sorted(os.path.basename(ref.path) for ref in refs) == sorted(
            os.listdir(directory.path)
        )
        rebuilt = payload.build_population()
        for a, b in zip(engine.population.groups, rebuilt.groups):
            ranks = np.arange(a.size)
            assert np.array_equal(a.fetch_by_rank(ranks), b.fetch_by_rank(ranks))
        directory.close()
        assert not os.path.exists(directory.path)
        assert directory.path not in live_pool_dirs()


def _digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def _pinned_columns():
    rng = np.random.default_rng(3)
    n = 50_000
    return rng.integers(0, 7, n), rng.uniform(0, 100, n)


class TestPackedFormat:
    """The packed layout is read by the durable store and by process
    workers, and stores written earlier must keep opening warm: its bytes
    and group windows are pinned."""

    def test_needletail_pack_is_pinned(self):
        labels, values = _pinned_columns()
        table = Table("t", [Column("g", labels, 8), Column("v", values, 8)])
        meta, arrays = pack_index(NeedletailEngine(table, "g", "v"))
        assert {role: _digest(a) for role, a in arrays.items()} == {
            "words": "6f81ce119c9b44e0",
            "cum": "b420ee795f39a0ad",
            "values": "3dda6a1c5d8971bf",
        }
        assert meta["groups"] == [
            [str(i), 782 * i, 782 * (i + 1), 50_000] for i in range(7)
        ]
        assert "row_bytes" not in meta and meta["name"] == "t"

    def test_population_pack_is_pinned_and_copies_nothing(self):
        labels, values = _pinned_columns()
        pop = population_from_chunks([{"g": labels, "v": values}], "g", "v")
        kind, meta, buffers = pack_population(pop)
        assert kind == "population"
        # The split column's chunks lie end to end: the buffer is their view.
        assert isinstance(buffers["values"], np.ndarray)
        assert np.shares_memory(buffers["values"], pop.groups[0].values)
        assert _digest(buffers["values"]) == "facc70dded6f14d6"
        bounds = [0, 7313, 14347, 21429, 28551, 35754, 42805, 50000]
        assert meta["groups"] == [
            [str(i), bounds[i], bounds[i + 1]] for i in range(7)
        ]

    def test_store_with_population_name_meta_opens_warm(self, tmp_path):
        """Needletail builds once named their population ``population_name``;
        such a store still re-opens without an index rebuild and answers
        bit-identically."""
        import repro

        assert STORE_FORMAT_VERSION == 1
        labels, values = _pinned_columns()
        data = {"g": labels[:4000], "v": values[:4000]}
        store = tmp_path / "store"
        cat = DurableCatalog(store)
        cat.attach("t", data)
        assert "needletail" in cat.prime("t", "g", "v")
        cat.close()
        with sqlite3.connect(store / "catalog.sqlite") as db:
            rows = db.execute(
                "SELECT id, meta_json FROM builds WHERE kind = 'needletail'"
            ).fetchall()
            assert rows
            for build_id, meta_json in rows:
                meta = json.loads(meta_json)
                meta["population_name"] = meta.pop("name")
                db.execute(
                    "UPDATE builds SET meta_json = ? WHERE id = ?",
                    (json.dumps(meta), build_id),
                )

        def query(session):
            q = session.table("t").group_by("g").agg(repro.avg("v"))
            result = q.run(seed=4)
            return result.first.order(), sorted(
                (g.label, g.estimate, g.samples) for g in result.first
            )

        counts = dict(BUILD_COUNTS)
        warm = DurableCatalog(store)
        engine = warm.indexed_engine(
            "t", "g", "v", group_spec=["g"],
            builder=lambda: pytest.fail("index rebuilt"),
        )
        assert isinstance(engine, MappedNeedletailEngine)
        assert engine.population.name == "t"
        with repro.connect(catalog=warm, seed=1) as session:
            warm_answer = query(session)
        warm.close()
        assert BUILD_COUNTS["needletail"] == counts["needletail"]
        with repro.connect(seed=1) as cold_session:
            cold_session.attach("t", data)
            assert query(cold_session) == warm_answer
