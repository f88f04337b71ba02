"""Predicate pushdown parity: scan-level filtering == legacy post-filter.

The acceptance bar for the catalog redesign: for every supported WHERE
operator, a query answered via source-level ``scan(predicate=...)`` (chunked,
filtered before anything is materialized) returns bit-identical ``Result``s -
estimates, ordering, accounting - to the legacy path, which materialized the
full relation and masked it afterwards.  The legacy reference here is
constructed explicitly: pre-filter the full arrays with the same mask
semantics and run the identical query with no WHERE clause.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog import CSVSource, IteratorSource, TableSource
from repro.query.predicates import _OP_FUNCS, predicate_mask
from repro.needletail.table import Table
from repro.query.parser import parse_predicate
from repro.session import avg, connect

COMPARISON_OPS = sorted(_OP_FUNCS)  # =, !=, <, <=, <>, >, >=


@pytest.fixture(scope="module")
def data() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(42)
    n = 6000
    g = rng.choice(["a", "b", "c", "d"], size=n)
    base = {"a": 15.0, "b": 40.0, "c": 65.0, "d": 88.0}
    y = np.clip(np.array([base[x] for x in g]) + rng.normal(0, 6, n), 0, 100)
    return {
        "g": g,
        "y": y,
        "year": rng.integers(2000, 2010, n).astype(np.float64),
    }


def run_pushdown(data, source, where: str, **connect_kwargs):
    """The new path: WHERE lowered into the source scan."""
    session = connect(engine="memory", **connect_kwargs).attach("t", source)
    return (
        session.table("t").where(where).group_by("g").agg(avg("y")).run(seed=9)
    )


def run_legacy_postfilter(data, where: str, **connect_kwargs):
    """The legacy reference: materialize fully, mask, then query unfiltered."""
    table = Table.from_dict("t", dict(data))
    mask = predicate_mask(parse_predicate(where), table)
    filtered = table.filter(mask)
    session = connect(engine="memory", **connect_kwargs).register("t", filtered)
    return session.table("t").group_by("g").agg(avg("y")).run(seed=9)


def assert_bit_identical(new, ref):
    assert new.labels == ref.labels
    a, b = new.first.raw, ref.first.raw
    np.testing.assert_array_equal(a.estimates, b.estimates)
    np.testing.assert_array_equal(a.samples_per_group, b.samples_per_group)
    assert list(a.inactive_order) == list(b.inactive_order)
    assert a.rounds == b.rounds
    for ga, gb in zip(a.groups, b.groups):
        assert ga.name == gb.name
        assert ga.estimate == gb.estimate
        assert ga.half_width == gb.half_width
        assert ga.samples == gb.samples
        assert ga.exhausted == gb.exhausted
    assert new.first.order() == ref.first.order()
    assert new.total_samples == ref.total_samples
    np.testing.assert_array_equal(a.stats.samples_per_group, b.stats.samples_per_group)
    assert a.stats.scanned_rows == b.stats.scanned_rows


class TestComparisonOperators:
    @pytest.mark.parametrize("op", COMPARISON_OPS)
    def test_chunked_table_source(self, data, op):
        where = f"year {op} 2004"
        new = run_pushdown(data, TableSource(data, name="t", chunk_rows=577), where)
        ref = run_legacy_postfilter(data, where)
        assert_bit_identical(new, ref)

    @pytest.mark.parametrize("op", ["<", ">=", "="])
    def test_chunked_csv_source(self, data, op, tmp_path):
        lines = [
            f"{g},{float(y)!r},{int(year)}"
            for g, y, year in zip(data["g"], data["y"], data["year"])
        ]
        path = tmp_path / "t.csv"
        path.write_text("g,y,year\n" + "\n".join(lines) + "\n")
        csv_table = CSVSource(path).to_table("t")

        where = f"year {op} 2004"
        new = run_pushdown(
            data, CSVSource(path, chunk_rows=391), where
        )
        # reference filters the *CSV-parsed* arrays (identical float parse)
        ref = run_legacy_postfilter(
            {c: csv_table.column(c) for c in csv_table.column_names}, where
        )
        assert_bit_identical(new, ref)

    @pytest.mark.parametrize("op", ["<=", "!="])
    def test_iterator_source(self, data, op):
        def factory():
            for lo in range(0, 6000, 811):
                yield {k: v[lo : lo + 811] for k, v in data.items()}

        where = f"year {op} 2006"
        new = run_pushdown(data, IteratorSource(factory), where)
        ref = run_legacy_postfilter(data, where)
        assert_bit_identical(new, ref)


class TestCompoundPredicates:
    @pytest.mark.parametrize(
        "where",
        [
            "year BETWEEN 2002 AND 2007",
            "g IN ('a', 'c', 'd')",
            "NOT year < 2004",
            "year >= 2003 AND y <= 95",
            "g = 'a' OR year > 2006",
        ],
    )
    def test_compound(self, data, where):
        new = run_pushdown(data, TableSource(data, name="t", chunk_rows=919), where)
        ref = run_legacy_postfilter(data, where)
        assert_bit_identical(new, ref)


class TestOtherPaths:
    def test_sharded_memory_engine_parity(self, data):
        where = "year >= 2004"
        new = run_pushdown(
            data, TableSource(data, name="t", chunk_rows=501), where, shards=2
        )
        ref = run_legacy_postfilter(data, where, shards=2)
        assert_bit_identical(new, ref)

    def test_needletail_bitmap_pushdown_unchanged(self, data):
        """The bitmap engines keep their §6.3.3 index-predicate semantics."""
        where = "year < 2005"
        session = connect().register("t", dict(data))
        res = session.table("t").where(where).group_by("g").agg(avg("y")).run(seed=9)
        mask = data["year"] < 2005
        for label, est in res.estimates().items():
            true = data["y"][mask & (data["g"] == label)].mean()
            assert est == pytest.approx(true, abs=4.0)

    @pytest.mark.parametrize("engine", ["memory", "needletail"])
    @pytest.mark.parametrize("kind", ["table", "csv", "int-then-float"])
    def test_multi_groupby_with_where_parity(self, data, tmp_path, kind, engine):
        """The composite key joins inside the pushed-down scan; its labels
        and answers equal the filtered whole table's, including a column
        whose chunks turn from int to float (every label reads ``2004.0``)."""
        where = "year > 2003"
        if kind == "table":
            source = TableSource(data, name="t", chunk_rows=700)
        elif kind == "csv":
            path = tmp_path / "t.csv"
            path.write_text("g,y,year\n" + "".join(
                f"{g},{float(y)!r},{int(year)}\n"
                for g, y, year in zip(data["g"], data["y"], data["year"])
            ))
            source = CSVSource(path, chunk_rows=391)
        else:
            def factory():
                for lo in range(0, 6000, 811):
                    chunk = {k: v[lo : lo + 811] for k, v in data.items()}
                    if lo < 3000:
                        chunk["year"] = chunk["year"].astype(np.int64)
                    yield chunk

            source = IteratorSource(factory)
        session = connect(engine=engine).register("t", source)
        new = (
            session.table("t").where(where).group_by("g", "year")
            .agg(avg("y")).bound(100.0).run(seed=9)
        )
        table = source.to_table("t")
        filtered = table.filter(predicate_mask(parse_predicate(where), table))
        ref_session = connect(engine=engine).register("t", filtered)
        ref = (
            ref_session.table("t").group_by("g", "year").agg(avg("y"))
            .bound(100.0).run(seed=9)
        )
        assert_bit_identical(new, ref)
        if kind != "csv":
            assert all(label.endswith(".0") for label in new.labels)
