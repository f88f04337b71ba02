"""Tests for the row-store table and the per-value bitmap index."""

from __future__ import annotations

import numpy as np
import pytest

from repro.needletail.bitvector import BitVector
from repro.needletail.index import BitmapIndex
from repro.needletail.table import Column, Table


def sample_table(n: int = 5_000, seed: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_dict(
        "t",
        {
            "grp": rng.choice(["a", "b", "c"], size=n, p=[0.5, 0.3, 0.2]),
            "val": rng.uniform(0, 100, n),
            "year": rng.integers(1990, 2000, n),
        },
    )


class TestTable:
    def test_basic_shape(self):
        t = sample_table()
        assert t.num_rows == 5_000
        assert set(t.column_names) == {"grp", "val", "year"}
        assert len(t) == 5_000

    def test_distinct(self):
        t = sample_table()
        assert t.distinct("grp").tolist() == ["a", "b", "c"]

    def test_filter(self):
        t = sample_table()
        mask = t.column("year") >= 1995
        ft = t.filter(mask)
        assert ft.num_rows == int(mask.sum())
        assert np.all(ft.column("year") >= 1995)

    def test_filter_shape_validation(self):
        t = sample_table()
        with pytest.raises(ValueError):
            t.filter(np.ones(3, dtype=bool))

    def test_missing_column(self):
        t = sample_table()
        with pytest.raises(KeyError):
            t.column("nope")
        assert "nope" not in t and "grp" in t

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            Table("t", [])
        with pytest.raises(ValueError):
            Table(
                "t",
                [
                    Column("a", np.zeros(3), 8),
                    Column("b", np.zeros(4), 8),
                ],
            )
        with pytest.raises(ValueError):
            Table("t", [Column("a", np.zeros(3), 8), Column("a", np.zeros(3), 8)])


class TestBitmapIndex:
    def test_counts_match_groupby(self):
        t = sample_table()
        idx = BitmapIndex(t, "grp")
        grp = t.column("grp")
        for key in ("a", "b", "c"):
            assert idx.count_for(key) == int((grp == key).sum())
        assert idx.cardinality == 3

    def test_rowids_partition_table(self):
        t = sample_table()
        idx = BitmapIndex(t, "grp")
        all_ids = np.concatenate([idx.rowids_for(k) for k in ("a", "b", "c")])
        assert np.array_equal(np.sort(all_ids), np.arange(t.num_rows))

    def test_rowids_match_values(self):
        t = sample_table()
        idx = BitmapIndex(t, "grp")
        grp = t.column("grp")
        for key in ("a", "b"):
            assert np.all(grp[idx.rowids_for(key)] == key)

    def test_sample_rowids_are_selects(self):
        t = sample_table()
        idx = BitmapIndex(t, "grp")
        positions = idx.rowids_for("b")
        ranks = np.array([0, 5, len(positions) - 1])
        assert np.array_equal(idx.sample_rowids("b", ranks), positions[ranks])

    def test_numeric_keys(self):
        t = sample_table()
        idx = BitmapIndex(t, "year")
        assert idx.cardinality == 10
        assert 1995 in idx
        assert idx.count_for(1995) == int((t.column("year") == 1995).sum())

    def test_unknown_key(self):
        idx = BitmapIndex(sample_table(), "grp")
        with pytest.raises(KeyError):
            idx.bitmap_for("z")

    def test_predicate_restriction(self):
        t = sample_table()
        idx = BitmapIndex(t, "grp")
        predicate = BitVector.from_bools(t.column("year") >= 1995)
        restricted = idx.restricted_bitvector("a", predicate)
        expected = (t.column("grp") == "a") & (t.column("year") >= 1995)
        assert restricted.count() == int(expected.sum())
        assert np.array_equal(restricted.set_positions(), np.flatnonzero(expected))

    def test_storage_accounting(self):
        t = sample_table()
        idx = BitmapIndex(t, "grp")
        assert idx.storage_bytes(compressed=True) > 0
        assert idx.storage_bytes(compressed=False) == 3 * ((t.num_rows + 7) // 8)

    def test_compressed_roundtrip(self):
        t = sample_table(n=500)
        idx = BitmapIndex(t, "grp")
        for key, rl in idx.compressed().items():
            assert rl.count() == idx.count_for(key)
