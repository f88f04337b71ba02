"""Pack/unpack serializers and the FileArrayRef worker transport."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.data.population import MaterializedGroup, Population
from repro.engines.payload import (
    FileArrayRef,
    PoolDir,
    build_shard_payloads,
    file_backed_ref,
    live_pool_dirs,
)
from repro.needletail.engine import NeedletailEngine, base_bitvector
from repro.needletail.table import Column, Table
from repro.storage import (
    DurableCatalog,
    MappedNeedletailEngine,
    pack_index,
    pack_population,
    pack_table,
    unpack_index,
    unpack_population,
    unpack_table,
)


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
        assert back.row_bytes == engine.row_bytes

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
        meta, arrays = pack_population(pop)
        back = unpack_population(meta, arrays)
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
            for ref in (payload.bitmap_words, payload.value_column):
                assert isinstance(ref, FileArrayRef)
                assert os.path.dirname(ref.path) != pool_dir.path

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
        refs = [payload.bitmap_words, payload.value_column]
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
