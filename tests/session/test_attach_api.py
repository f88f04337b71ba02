"""``Session.attach()``: every target kind lands on the right source and
answers queries exactly like the hand-constructed source does."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.catalog.csv import CSVSource
from repro.catalog.source import TableSource
from repro.catalog.synthetic import SyntheticSource
from repro.catalog import SourceSpec
from repro.session import connect


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "t.csv"
    rng = np.random.default_rng(2)
    with open(path, "w") as fh:
        fh.write("g,v\n")
        for g, loc in (("a", 20.0), ("b", 60.0)):
            for v in rng.normal(loc, 5.0, 300).clip(0, 100):
                fh.write(f"{g},{v}\n")
    return path


def _result_sig(session, table="t", group="g", value="v"):
    result = (
        session.table(table).group_by(group).agg(repro.avg(value)).run(seed=5)
    )
    return (
        result.first.order(),
        result.total_samples,
        sorted((g.label, g.estimate, g.samples) for g in result.first),
    )


def _source(session, name):
    return session.catalog.source(name)


class TestAttachTargetKinds:
    def test_source(self, csv_path):
        source = CSVSource(csv_path, group_columns=("g",), value_columns=("v",))
        session = connect(seed=1).attach("t", source)
        assert _source(session, "t") is source
        assert _result_sig(session) == _result_sig(connect(seed=1).register("t", source))

    def test_csv_path(self, csv_path):
        session = connect(seed=1).attach(
            "t", csv_path, group_columns=("g",), value_columns=("v",)
        )
        assert isinstance(_source(session, "t"), CSVSource)
        via_source = connect(seed=1).attach(
            "t", CSVSource(csv_path, group_columns=("g",), value_columns=("v",))
        )
        assert _result_sig(session) == _result_sig(via_source)

    def test_parquet_path(self, tmp_path):
        pytest.importorskip("pyarrow")
        from repro.catalog.parquet import ParquetSource

        session = connect().attach("t", tmp_path / "t.parquet", batch_rows=64)
        source = _source(session, "t")
        assert isinstance(source, ParquetSource)
        assert source._batch_rows == 64

    def test_flights_spec(self):
        from repro.data.flights import make_flights_table

        session = connect(seed=1).attach(
            "flights", SourceSpec("flights", rows=2_000, seed=3)
        )
        via_table = connect(seed=1).register(
            "flights", make_flights_table(num_rows=2_000, seed=3)
        )
        sig = lambda s: _result_sig(
            s, table="flights", group="carrier", value="arrival_delay"
        )
        assert sig(session) == sig(via_table)

    def test_synthetic_spec(self):
        spec = dict(k=3, total_size=2_000, seed=4, materialize=True)
        session = connect(seed=1).attach(
            "bench", SourceSpec("synthetic", family="mixture", **spec)
        )
        assert isinstance(_source(session, "bench"), SyntheticSource)
        via_source = connect(seed=1).attach("bench", SyntheticSource("mixture", **spec))
        sig = lambda s: _result_sig(s, table="bench", group="g", value="value")
        assert sig(session) == sig(via_source)


class TestAttachFrontDoor:
    def test_attach_chains_and_lists(self, csv_path):
        session = connect().attach("t", csv_path).attach(
            "mem", {"g": np.array(["a", "b"]), "v": np.arange(2.0)}
        )
        assert set(session.tables) == {"t", "mem"}
        assert isinstance(_source(session, "mem"), TableSource)

    def test_register_still_takes_tables_not_paths(self, csv_path):
        with pytest.raises(TypeError, match="use attach"):
            connect().register("t", str(csv_path))

    def test_connect_rejects_store_plus_catalog(self, tmp_path):
        from repro.catalog import Catalog

        with pytest.raises(ValueError, match="not both"):
            connect(store=tmp_path / "s", catalog=Catalog())
