"""Session facade: catalog, CSV loading, engines, guarantee modes, caveats."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.catalog import CSVSource, SourceSpec
from repro.needletail.table import Table
from repro.session import Session, avg, connect, count, register_engine, total
from repro.session.planner import engine_names
from repro.session.spec import GuaranteeSpec, QuerySpec


@pytest.fixture()
def columns() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(3)
    n = 12_000
    names = rng.choice(["a", "b", "c", "d"], size=n)
    base = {"a": 10.0, "b": 35.0, "c": 60.0, "d": 90.0}
    value = np.clip(np.array([base[x] for x in names]) + rng.normal(0, 6, n), 0, 100)
    return {"g": names, "y": value, "year": rng.integers(2000, 2010, n)}


@pytest.fixture()
def session(columns) -> Session:
    return connect().register("t", columns)


class TestCatalog:
    def test_register_dict_and_table(self, columns):
        sess = connect()
        sess.register("d", columns)
        sess.register("t", Table.from_dict("t", columns))
        assert sess.tables == ["d", "t"]

    def test_unknown_table_raises_early(self, session):
        with pytest.raises(KeyError):
            session.table("nope")

    def test_attach_flights(self):
        sess = connect().attach("flights", SourceSpec("flights", rows=5_000, seed=0))
        res = sess.sql(
            "SELECT carrier, COUNT(*) FROM flights GROUP BY carrier"
        ).run()
        assert sum(res.estimates().values()) == 5_000

    def test_chaining(self, columns):
        sess = connect().register("a", columns).register("b", columns)
        assert sess.tables == ["a", "b"]


class TestCsv:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_auto_typing(self, tmp_path):
        path = self._write(
            tmp_path, "city,delay\nNYC,10.5\nNYC,12.0\nLA,30.0\nLA,28.0\n"
        )
        table = CSVSource(path).to_table("data")
        assert np.issubdtype(table.column("delay").dtype, np.floating)
        assert table.column("city").dtype.kind in ("U", "S")

    def test_numeric_looking_group_column_stays_string(self, tmp_path):
        path = self._write(tmp_path, "zip,delay\n10001,1.0\n10002,2.0\n")
        table = CSVSource(path, group_columns=["zip"]).to_table("data")
        assert table.column("zip").dtype.kind in ("U", "S")

    def test_value_column_must_be_numeric(self, tmp_path):
        path = self._write(tmp_path, "city,delay\nNYC,fast\n")
        with pytest.raises(ValueError, match="non-numeric"):
            CSVSource(path, value_columns=["delay"]).to_table("data")

    def test_unknown_column_flag(self, tmp_path):
        path = self._write(tmp_path, "city,delay\nNYC,1.0\n")
        with pytest.raises(KeyError):
            CSVSource(path, group_columns=["bogus"]).to_table("data")

    def test_empty_csv(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(ValueError):
            CSVSource(path).to_table("data")

    def test_query_over_registered_csv(self, tmp_path):
        path = self._write(
            tmp_path,
            "city,delay\nNYC,10\nNYC,12\nLA,30\nLA,28\nSF,55\nSF,54\n",
        )
        sess = connect().attach("trips", path, group_columns=["city"])
        res = sess.sql("SELECT city, AVG(delay) FROM trips GROUP BY city").run(seed=1)
        est = res.estimates()
        assert est["NYC"] < est["LA"] < est["SF"]


class TestEngines:
    def test_memory_matches_needletail_labels(self, session):
        ntl = session.table("t").group_by("g").agg(avg("y")).run(seed=2)
        mem = (
            session.table("t").group_by("g").agg(avg("y")).on_engine("memory").run(seed=2)
        )
        assert ntl.labels == mem.labels
        # same data, same ordering conclusion (estimates differ: different draws)
        assert ntl.first.order() == mem.first.order()

    def test_memory_supports_where(self, session, columns):
        res = (
            session.table("t")
            .where("year >= 2005")
            .group_by("g")
            .agg(avg("y"))
            .on_engine("memory")
            .run(seed=2)
        )
        mask = columns["year"] >= 2005
        for label, est in res.estimates().items():
            true = columns["y"][mask & (columns["g"] == label)].mean()
            assert est == pytest.approx(true, abs=4.0)

    def test_noindex_runs_and_caveats(self, session):
        res = (
            session.table("t").group_by("g").agg(avg("y")).on_engine("noindex").run(seed=2)
        )
        assert res.first.algorithm == "noindex"
        assert any("no-index" in c for c in res.caveats)

    @pytest.mark.parametrize("engine", ["memory", "needletail", "noindex"])
    @pytest.mark.parametrize("deadline", [None, "far"])
    def test_explicit_deadline_on_every_engine(self, columns, engine, deadline):
        """``deadline=`` is a runner keyword like any other; noindex used to
        receive it twice and raise a TypeError."""
        from repro.resilience import Deadline

        sess = connect(engine=engine).register("t", columns)
        if deadline == "far":
            deadline = Deadline.after_ms(600_000)
        res = sess.execute("SELECT g, AVG(y) FROM t GROUP BY g", seed=1, deadline=deadline)
        assert res.first.order() == ["a", "b", "c", "d"]
        sess.close()

    def test_noindex_rejects_sum(self, session):
        with pytest.raises(ValueError, match="metadata"):
            session.table("t").group_by("g").agg(total("y")).on_engine("noindex").run()

    def test_unknown_engine(self, session):
        with pytest.raises(KeyError, match="unknown engine"):
            session.table("t").group_by("g").agg(avg("y")).on_engine("duckdb").run()

    def test_register_custom_engine(self, session):
        from repro.session.planner import _memory_factory

        if "memory2" not in engine_names():
            register_engine("memory2", _memory_factory)
        with pytest.raises(ValueError):
            register_engine("memory2", _memory_factory)  # no silent overwrite
        res = (
            session.table("t").group_by("g").agg(avg("y")).on_engine("memory2").run(seed=4)
        )
        ref = (
            session.table("t").group_by("g").agg(avg("y")).on_engine("memory").run(seed=4)
        )
        np.testing.assert_array_equal(res.first.raw.estimates, ref.first.raw.estimates)


class TestGuaranteeModes:
    def test_top(self, session):
        res = session.table("t").group_by("g").agg(avg("y")).top(2).run(seed=5)
        assert res.first.meta["top_labels"] == ["d", "c"]

    def test_values_bound_half_widths(self, session):
        res = session.table("t").group_by("g").agg(avg("y")).values(within=4.0).run(seed=5)
        for g in res.first:
            assert g.exhausted or g.half_width < 2.0  # d/2

    def test_trends_neighbor_graph_validated(self, session):
        with pytest.raises(ValueError, match="symmetric"):
            session.table("t").group_by("g").agg(avg("y")).trends(
                neighbors=[[1], [2], [3], [0]]
            ).run(seed=5)

    def test_mistakes_caveat(self, session):
        res = session.table("t").group_by("g").agg(avg("y")).mistakes(0.9).run(seed=5)
        assert any("mistake" in c for c in res.caveats)

    def test_mode_requires_single_avg(self, session):
        with pytest.raises(ValueError):
            session.table("t").group_by("g").agg(total("y")).top(2).spec()

    def test_invalid_guarantees(self):
        with pytest.raises(ValueError):
            GuaranteeSpec(mode="top")  # missing t
        with pytest.raises(ValueError):
            GuaranteeSpec(mode="values")  # missing tolerance
        with pytest.raises(ValueError):
            GuaranteeSpec(mode="bogus")

    def test_resolution_variant_algorithms(self, session):
        res = (
            session.table("t")
            .group_by("g")
            .agg(avg("y"))
            .using("ifocusr")
            .guarantee(resolution=8.0)
            .run(seed=5)
        )
        assert res.first.algorithm.startswith("ifocusr")
        with pytest.raises(ValueError):
            session.table("t").group_by("g").agg(avg("y")).using("ifocusr").run(seed=5)


class TestResultShape:
    def test_group_estimate_fields(self, session):
        res = session.table("t").group_by("g").agg(avg("y")).run(seed=6)
        g = res.first["a"]
        lo, hi = g.interval
        assert lo <= g.estimate <= hi
        assert g.samples > 0
        assert res.first.order() == ["a", "b", "c", "d"]

    def test_spec_round_trip_on_result(self, session):
        builder = session.table("t").group_by("g").agg(avg("y"))
        res = builder.run(seed=6)
        assert res.spec == builder.spec()
        assert isinstance(res.spec, QuerySpec)

    def test_accounting(self, session):
        res = session.table("t").group_by("g").agg(avg("y")).run(seed=6)
        assert res.total_samples > 0
        stats = res.first.raw.stats
        assert stats.total_samples == res.total_samples
        assert stats.scanned_rows == 0

    def test_explain_mentions_dispatch(self, session):
        text = session.table("t").group_by("g").agg(avg("y"), count("*")).explain()
        assert "ifocus" in text and "exact from engine metadata" in text

    def test_session_api_never_warns_deprecation(self, session):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session.table("t").group_by("g").agg(avg("y"), total("y")).run(seed=6)
            session.sql("SELECT g, AVG(y) FROM t GROUP BY g").run(seed=6)
            list(session.table("t").group_by("g").agg(avg("y")).stream(seed=6))


class TestStreaming:
    def test_live_stream_modes(self, session):
        for builder in (
            session.table("t").group_by("g").agg(avg("y")),
            session.table("t").group_by("g").agg(avg("y")).top(2),
            session.table("t").group_by("g").agg(avg("y")).values(within=5.0),
            session.table("t").group_by("g").agg(avg("y")).mistakes(0.9),
        ):
            stream = builder.stream(seed=8)
            updates = list(stream)
            assert updates and all(u.live for u in updates)
            assert updates[-1].done
            assert stream.result is not None

    def test_posthoc_stream_for_other_algorithms(self, session):
        stream = (
            session.table("t").group_by("g").agg(avg("y")).using("roundrobin").stream(seed=8)
        )
        updates = list(stream)
        assert len(updates) == 4 and not any(u.live for u in updates)

    def test_count_streams(self, session):
        stream = session.table("t").group_by("g").agg(count("*")).stream()
        updates = list(stream)
        assert len(updates) == 4
        assert all(u.group.exact for u in updates)

    def test_result_available_after_break_at_done(self, session):
        stream = session.table("t").group_by("g").agg(avg("y")).stream(seed=8)
        for update in stream:
            if update.done:
                break
        # live streams: .result drains the worker's final item on access
        assert stream.result.first.algorithm == "ifocus"


class TestPlannerValidation:
    def test_mode_rejects_non_ifocus_algorithm(self, session):
        with pytest.raises(ValueError, match="IFOCUS executor"):
            session.table("t").group_by("g").agg(avg("y")).using("roundrobin").top(
                2
            ).run(seed=1)

    def test_duplicate_aggregates_rejected(self, session):
        with pytest.raises(ValueError, match="duplicate aggregate"):
            session.table("t").group_by("g").agg(avg("y"), avg("y")).spec()

    def test_multi_aggregate_stream_done_only_at_true_end(self, session):
        stream = session.table("t").group_by("g").agg(avg("y"), total("y")).stream(seed=1)
        updates = list(stream)
        assert len(updates) == 8  # 4 groups x 2 aggregates
        assert [u.done for u in updates] == [False] * 7 + [True]
        # the stop-at-done pattern sees every aggregate's groups
        assert {u.aggregate for u in updates} == {"AVG(y)", "SUM(y)"}

    def test_stream_worker_error_surfaces(self, session):
        stream = session.table("t").group_by("g").agg(avg("y")).stream(
            seed=1, bogus_kwarg=True
        )
        with pytest.raises(TypeError):
            list(stream)
        with pytest.raises(RuntimeError, match="without producing a result"):
            stream.result

    def test_mixed_aggregates_count_shared_rows_once(self, session):
        res = session.table("t").group_by("g").agg(avg("y"), total("y")).run(seed=1)
        per_group = np.maximum(
            res["AVG(y)"].raw.samples_per_group, res["SUM(y)"].raw.samples_per_group
        )
        assert res.total_samples == per_group.sum()

    def test_avg_and_sum_split_delta_and_share_rows_on_flights(self):
        """AVG and SUM over one column on flights-200k: one guarantee at
        delta/2 each, rows charged once, and each aggregate bit-identical to
        its single-aggregate query at delta/2."""
        sess = connect(seed=1).attach(
            "flights", SourceSpec("flights", rows=200_000, seed=0)
        )
        sql = (
            "SELECT carrier, AVG(arrival_delay), SUM(arrival_delay), COUNT(*) "
            "FROM flights GROUP BY carrier"
        )
        mixed = sess.sql(sql).run(seed=1)
        assert mixed.total_samples <= 200_000
        half = sess.table("flights").group_by("carrier").guarantee(delta=0.025)
        for agg in (avg("arrival_delay"), total("arrival_delay")):
            single = half.agg(agg).run(seed=1)
            (key,) = single.aggregates
            want, got = single[key].raw, mixed[key].raw
            np.testing.assert_array_equal(got.estimates, want.estimates)
            np.testing.assert_array_equal(got.samples_per_group, want.samples_per_group)
            assert got.inactive_order == want.inactive_order
            assert [g.half_width for g in got.groups] == [
                g.half_width for g in want.groups
            ]
        text = sess.sql(sql).explain()
        assert text.count("δ/2 = 0.025") == 2
        assert "COUNT(*): exact from engine metadata, spends no δ" in text

    def test_multi_avg_counts_shared_run_once(self, session):
        res = session.table("t").group_by("g").agg(avg("y"), avg("year")).run(seed=1)
        # both runs read prefixes of one per-group permutation: a row read
        # by both aggregates is charged once
        per_group = np.maximum(
            res["AVG(y)"].raw.samples_per_group, res["AVG(year)"].raw.samples_per_group
        )
        assert res.total_samples == per_group.sum()
        assert res.engine.value_column == "y"  # the first AVG's engine

    @pytest.mark.parametrize(
        "seed", [1, None, np.random.default_rng(1)], ids=["int", "entropy", "generator"]
    )
    def test_multi_avg_over_a_copied_column_reads_each_row_once(self, columns, seed):
        session = connect().register("t", {**columns, "y2": columns["y"].copy()})
        res = session.table("t").group_by("g").agg(avg("y"), avg("y2")).run(seed=seed)
        y, y2 = res["AVG(y)"].raw, res["AVG(y2)"].raw
        np.testing.assert_array_equal(y.estimates, y2.estimates)
        np.testing.assert_array_equal(y.samples_per_group, y2.samples_per_group)
        assert y.inactive_order == y2.inactive_order
        assert res.total_samples == y.samples_per_group.sum()
