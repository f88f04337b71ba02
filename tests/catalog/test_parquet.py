"""Parquet source: exercised where pyarrow exists, skipped cleanly elsewhere.

CI contract (tests/test_ci_workflow.py asserts the wiring): exactly one
matrix leg installs the ``arrow`` extra and sets ``REPRO_REQUIRE_PYARROW=1``.
On that leg, a missing pyarrow is a *failure* (the extra silently not
installing must not turn the whole Parquet surface into skips); every other
job skips these tests cleanly.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.catalog import HAVE_PYARROW, MissingDependencyError
from repro.session import avg, connect

PYARROW_REQUIRED = os.environ.get("REPRO_REQUIRE_PYARROW") == "1"


def test_required_leg_really_has_pyarrow():
    """Runs everywhere: the arrow CI leg must not silently lose pyarrow."""
    if PYARROW_REQUIRED:
        assert HAVE_PYARROW, (
            "REPRO_REQUIRE_PYARROW=1 but pyarrow is not importable; the "
            "arrow matrix leg did not install its extra"
        )


def test_missing_dependency_degrades_gracefully():
    """Without pyarrow, constructing the source raises a clear install hint."""
    if HAVE_PYARROW:
        pytest.skip("pyarrow installed; the degradation path is not reachable")
    from repro.catalog import ParquetSource

    with pytest.raises(MissingDependencyError, match="arrow"):
        ParquetSource("whatever.parquet")
    with pytest.raises(MissingDependencyError):
        connect().attach("t", "whatever.parquet")


needs_pyarrow = pytest.mark.skipif(
    not HAVE_PYARROW, reason="pyarrow not installed (optional 'arrow' extra)"
)


@pytest.fixture()
def parquet_path(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(8)
    n = 2000
    g = rng.choice(["a", "b", "c"], size=n)
    base = {"a": 20.0, "b": 50.0, "c": 80.0}
    y = np.clip(np.array([base[x] for x in g]) + rng.normal(0, 5, n), 0, 100)
    year = rng.integers(2000, 2010, n)
    table = pa.table({"g": g, "y": y, "year": year})
    path = tmp_path / "t.parquet"
    pq.write_table(table, path)
    return path, {"g": g, "y": y, "year": year.astype(np.float64)}


@needs_pyarrow
class TestParquetSource:
    def test_schema_from_metadata(self, parquet_path):
        from repro.catalog import ParquetSource

        path, _ = parquet_path
        source = ParquetSource(path)
        schema = source.schema()
        assert schema.names == ["g", "y", "year"]
        assert not schema.is_numeric("g")
        assert schema.is_numeric("y") and schema.is_numeric("year")
        assert source.row_count_hint() == 2000

    def test_chunked_scan_roundtrips(self, parquet_path):
        from repro.catalog import ParquetSource

        path, data = parquet_path
        source = ParquetSource(path, batch_rows=300)
        chunks = list(source.scan(columns=("y",)))
        assert len(chunks) >= 2
        np.testing.assert_array_equal(
            np.concatenate([c["y"] for c in chunks]), data["y"]
        )

    def test_query_through_session(self, parquet_path):
        path, data = parquet_path
        session = connect(engine="memory").attach("t", path)
        res = session.table("t").group_by("g").agg(avg("y")).run(seed=1)
        for label, est in res.estimates().items():
            assert est == pytest.approx(data["y"][data["g"] == label].mean(), abs=4.0)

    def test_predicate_pushdown_parity(self, parquet_path):
        """Pushdown through Parquet == post-filtering the same arrays."""
        path, data = parquet_path
        session = connect(engine="memory").attach("t", path)
        new = (
            session.table("t").where("year >= 2005").group_by("g")
            .agg(avg("y")).run(seed=2)
        )
        mask = data["year"] >= 2005
        ref_sess = connect(engine="memory").register(
            "t", {k: np.asarray(v)[mask] for k, v in data.items()}
        )
        ref = ref_sess.table("t").group_by("g").agg(avg("y")).run(seed=2)
        np.testing.assert_array_equal(
            new.first.raw.estimates, ref.first.raw.estimates
        )
        assert new.total_samples == ref.total_samples

    def test_cli_describe_parquet(self, parquet_path, capsys):
        from repro.cli import main

        path, _ = parquet_path
        assert main(["describe", "t", "--parquet", f"t={path}"]) == 0
        out = capsys.readouterr().out
        assert "kind: parquet" in out and "2,000" in out
