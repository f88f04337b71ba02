"""CSV source edge cases: quoting, chunking, encoding, typing, laziness."""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro.catalog import CSVSource
from repro.query.parser import parse_predicate
from repro.session import connect


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestDuplicateHeader:
    def test_duplicate_header_rejected(self, tmp_path):
        """Regression: the legacy loader silently let the last duplicate win."""
        path = write(tmp_path, "city,delay,city\nNYC,10,NYC2\nLA,30,LA2\n")
        with pytest.raises(ValueError, match="duplicate CSV header column"):
            CSVSource(path).schema()

    def test_duplicate_header_rejected_via_to_table(self, tmp_path):
        path = write(tmp_path, "a,a\n1,2\n")
        with pytest.raises(ValueError, match="duplicate"):
            CSVSource(path).to_table("data")

    def test_duplicate_header_rejected_via_attach(self, tmp_path):
        path = write(tmp_path, "x,y,x\n1,2,3\n")
        with pytest.raises(ValueError, match="duplicate"):
            connect().attach("t", path)


class TestQuoting:
    def test_quoted_field_containing_delimiter(self, tmp_path):
        path = write(
            tmp_path,
            'city,delay\n"New York, NY",10\n"New York, NY",12\n"LA",30\n',
        )
        source = CSVSource(path, group_columns=["city"])
        chunks = list(source.scan())
        cities = np.concatenate([c["city"] for c in chunks])
        assert list(cities) == ["New York, NY", "New York, NY", "LA"]
        # and the width check was not confused by the embedded comma
        assert source.row_count_hint() == 3

    def test_quoted_fields_queryable(self, tmp_path):
        path = write(
            tmp_path,
            'city,delay\n"New York, NY",10\n"New York, NY",14\n"LA",30\n"LA",34\n',
        )
        session = connect(engine="memory").attach(
            "trips", path, group_columns=["city"]
        )
        res = session.table("trips").group_by("city").agg("AVG(delay)").run(seed=0)
        assert res.estimates()["New York, NY"] == pytest.approx(12.0, abs=3.0)


class TestChunking:
    def test_chunk_boundary_exact_multiple(self, tmp_path):
        rows = "".join(f"g{i % 2},{i}.0\n" for i in range(8))
        path = write(tmp_path, "g,y\n" + rows)
        source = CSVSource(path, chunk_rows=4)  # 8 rows = exactly 2 chunks
        chunks = list(source.scan())
        assert [len(c["y"]) for c in chunks] == [4, 4]
        np.testing.assert_array_equal(
            np.concatenate([c["y"] for c in chunks]), np.arange(8.0)
        )

    def test_empty_chunks_after_pushdown_are_harmless(self, tmp_path):
        # Rows 0-3 fail the predicate, so the whole first chunk filters away.
        rows = "".join(f"g,{i}.0\n" for i in range(8))
        path = write(tmp_path, "g,y\n" + rows)
        source = CSVSource(path, chunk_rows=4)
        chunks = list(source.scan(("y",), parse_predicate("y >= 4")))
        assert [len(c["y"]) for c in chunks] == [0, 4]
        np.testing.assert_array_equal(chunks[0]["y"], np.empty(0))

    def test_chunked_equals_eager_load(self, tmp_path):
        rng = np.random.default_rng(5)
        lines = [f"g{int(rng.integers(3))},{v:.6f}" for v in rng.uniform(0, 99, 500)]
        path = write(tmp_path, "g,y\n" + "\n".join(lines) + "\n")
        eager = CSVSource(path).to_table("data")  # default chunk_rows: one chunk
        chunked = CSVSource(path, chunk_rows=7).to_table("data")
        assert chunked.column_names == eager.column_names
        for col in eager.column_names:
            np.testing.assert_array_equal(chunked.column(col), eager.column(col))
            assert chunked.column(col).dtype == eager.column(col).dtype

    def test_one_raw_chunk_alive_at_a_time(self, tmp_path):
        """Laziness: a chunked CSV scan never buffers more than one chunk."""
        rows = "".join(f"g{i % 3},{i}.5\n" for i in range(100))
        path = write(tmp_path, "g,y\n" + rows)

        refs: list = []
        stale = [0]

        class TrackedRows(list):
            """Weakref-able stand-in for one chunk's raw row buffer."""

        class InstrumentedCSV(CSVSource):
            def _raw_chunks(self):
                it = super()._raw_chunks()
                while True:
                    try:
                        header, rows = next(it)
                    except StopIteration:
                        return
                    tracked = TrackedRows(rows)
                    del rows
                    # Every previously handed-out chunk must be dead by the
                    # time the next one exists: consumers may not accumulate.
                    stale[0] = max(
                        stale[0], sum(1 for r in refs if r() is not None)
                    )
                    refs.append(weakref.ref(tracked))
                    yield header, tracked
                    del tracked

        source = InstrumentedCSV(path, chunk_rows=10)
        total = sum(len(c["y"]) for c in source.scan(("y",)))
        assert total == 100
        assert len(refs) >= 10 * 2 - 2  # schema pass + scan pass both chunked
        assert stale[0] == 0, f"{stale[0]} previous raw chunks still alive"


class TestEncodingAndTyping:
    def test_non_utf8_clear_error(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes("city,delay\nM\xfcnchen,10\n".encode("latin-1"))
        with pytest.raises(ValueError, match="not valid UTF-8"):
            CSVSource(path).schema()

    def test_non_utf8_error_names_the_file(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"a,b\n\xff\xfe,1\n")
        with pytest.raises(ValueError, match="latin.csv"):
            list(CSVSource(path).scan())

    def test_type_decided_over_whole_file(self, tmp_path):
        # first chunk parses as numbers; a later chunk proves it's a string
        rows = "".join(f"g,{i}\n" for i in range(20)) + "g,oops\n"
        path = write(tmp_path, "g,v\n" + rows)
        source = CSVSource(path, chunk_rows=4)
        assert not source.schema().is_numeric("v")
        got = np.concatenate([c["v"] for c in source.scan(("v",))])
        assert got.dtype.kind in ("U", "S") and got[-1] == "oops"

    def test_value_column_must_parse_everywhere(self, tmp_path):
        rows = "".join(f"g,{i}\n" for i in range(20)) + "g,oops\n"
        path = write(tmp_path, "g,v\n" + rows)
        with pytest.raises(ValueError, match="non-numeric"):
            CSVSource(path, value_columns=["v"], chunk_rows=4).schema()

    def test_ragged_rows_counted(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3\n4,5,6\n")
        with pytest.raises(ValueError, match=r"2 row\(s\)"):
            CSVSource(path).schema()

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "a,b\n")
        with pytest.raises(ValueError, match="no data rows"):
            CSVSource(path).schema()

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(ValueError, match="no header"):
            CSVSource(path).schema()

    def test_group_value_overlap_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="both group and value"):
            CSVSource("x.csv", group_columns=["a"], value_columns=["a"])

    def test_unknown_pinned_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(KeyError, match="no such CSV columns"):
            CSVSource(path, group_columns=["zz"]).schema()
