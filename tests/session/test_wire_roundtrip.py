"""JSON round-trip tests for the wire-format serializers (repro.serve).

Every object that crosses the HTTP boundary - QuerySpec, Result,
AggregateResult, GroupEstimate, PartialUpdate - must survive
``from_dict(json.loads(json.dumps(to_dict())))`` losslessly: the server
returns serialized Results, clients may resubmit serialized specs, and the
shared result cache keys on the canonical spec JSON.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import SourceSpec, avg, connect
from repro.session.result import (
    AggregateResult,
    GroupEstimate,
    PartialUpdate,
    Result,
)
from repro.session.spec import Aggregate, GuaranteeSpec, HavingSpec, QuerySpec


def roundtrip(obj, cls):
    """to_dict -> JSON text -> from_dict; returns the reconstruction."""
    wire = json.loads(json.dumps(obj.to_dict()))
    return cls.from_dict(wire)


def flights_session(**kwargs):
    session = connect(delta=0.1, seed=0, **kwargs)
    session.attach("flights", SourceSpec("flights", rows=20_000, seed=0))
    return session


# ---------------------------------------------------------------------------
# QuerySpec
# ---------------------------------------------------------------------------


class TestQuerySpecRoundtrip:
    def test_minimal_spec(self):
        spec = QuerySpec(
            table="t", group_by=("g",), aggregates=(Aggregate("AVG", "v"),)
        )
        assert roundtrip(spec, QuerySpec) == spec

    def test_every_field_set(self):
        session = flights_session()
        spec = (
            session.sql(
                "SELECT carrier, AVG(arrival_delay) FROM flights "
                "WHERE distance > 500 AND NOT "
                "(carrier IN ('WN', 'DL') OR arrival_delay BETWEEN 1 AND 2) "
                "GROUP BY carrier HAVING AVG(arrival_delay) >= 10"
            )
            .bound(100.0)
            .sharded(4, max_workers=2, executor="process")
            .deadline(1500.0)
            .retries(5)
            .spec()
        )
        back = roundtrip(spec, QuerySpec)
        assert back == spec
        assert back.where == spec.where  # structural predicate equality
        assert back.canonical_key() == spec.canonical_key()

    @pytest.mark.parametrize(
        "guarantee",
        [
            GuaranteeSpec(delta=0.01, mode="top", top_t=3, top_largest=False),
            GuaranteeSpec(delta=0.2, mode="trends", neighbors=((0, 1), (1, 2))),
            GuaranteeSpec(mode="values", value_tolerance=2.5),
            GuaranteeSpec(mode="mistakes", min_correct_fraction=0.9),
            GuaranteeSpec(resolution=1.5),
        ],
        ids=["top", "trends", "values", "mistakes", "resolution"],
    )
    def test_guarantee_modes(self, guarantee):
        spec = QuerySpec(
            table="t",
            group_by=("g",),
            aggregates=(Aggregate("AVG", "v"),),
            guarantee=guarantee,
        )
        back = roundtrip(spec, QuerySpec)
        assert back.guarantee == guarantee
        assert back == spec

    def test_having_roundtrip(self):
        having = HavingSpec(agg=Aggregate("SUM", "v"), op=">=", value=12.5)
        assert roundtrip(having, HavingSpec) == having

    def test_from_dict_revalidates(self):
        wire = QuerySpec(
            table="t", group_by=("g",), aggregates=(Aggregate("AVG", "v"),)
        ).to_dict()
        wire["aggregates"] = [{"func": "MEDIAN", "column": "v"}]
        with pytest.raises(ValueError):
            QuerySpec.from_dict(wire)

    def test_canonical_key_is_front_door_independent(self):
        session = flights_session()
        sql_spec = session.sql(
            "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier"
        ).spec()
        builder_spec = (
            session.table("flights")
            .group_by("carrier")
            .agg(avg("arrival_delay"))
            .spec()
        )
        assert sql_spec.canonical_key() == builder_spec.canonical_key()
        # and the key is deterministic JSON, independent of dict order
        assert json.loads(sql_spec.canonical_key()) == sql_spec.to_dict()

    def test_canonical_key_distinguishes_specs(self):
        base = QuerySpec(
            table="t", group_by=("g",), aggregates=(Aggregate("AVG", "v"),)
        )
        other = QuerySpec(
            table="t",
            group_by=("g",),
            aggregates=(Aggregate("AVG", "v"),),
            guarantee=GuaranteeSpec(delta=0.01),
        )
        assert base.canonical_key() != other.canonical_key()


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def result_of(session, sql, **run_kwargs) -> Result:
    return session.sql(sql).run(seed=0, **run_kwargs)


class TestResultRoundtrip:
    @pytest.fixture(scope="class")
    def session(self):
        with flights_session() as s:
            yield s

    def assert_result_roundtrip(self, result: Result) -> Result:
        back = roundtrip(result, Result)
        assert back.to_dict() == result.to_dict()
        assert back.labels == result.labels
        assert back.caveats == result.caveats
        assert back.dropped_by_having == result.dropped_by_having
        assert back.total_samples == result.total_samples
        assert back.deadline_exceeded == result.deadline_exceeded
        assert back.spec == result.spec
        assert set(back.aggregates) == set(result.aggregates)
        for key, agg in result.aggregates.items():
            got = back.aggregates[key]
            assert got.estimates() == agg.estimates()
            np.testing.assert_allclose(got.raw.estimates, agg.raw.estimates)
            assert list(got.raw.inactive_order) == list(agg.raw.inactive_order)
            assert got.raw.params == agg.raw.params
        # the engine handle deliberately does not cross the wire
        assert back.engine is None
        return back

    def test_plain_avg(self, session):
        result = result_of(
            session,
            "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier",
        )
        self.assert_result_roundtrip(result)

    def test_multi_aggregate_with_having(self, session):
        result = result_of(
            session,
            "SELECT carrier, AVG(arrival_delay), COUNT(*), SUM(distance) "
            "FROM flights GROUP BY carrier HAVING AVG(arrival_delay) >= 0",
        )
        assert len(result.aggregates) == 3
        assert result.caveats  # HAVING caveat present and serialized
        self.assert_result_roundtrip(result)

    def test_deadline_exceeded_result(self, session):
        spec = session.sql(
            "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier"
        ).deadline(0.0001).spec()
        result = session.execute(spec, seed=0)
        assert result.deadline_exceeded
        back = self.assert_result_roundtrip(result)
        assert back.deadline_exceeded
        assert any("deadline" in c for c in back.caveats)

    def test_accounting_survives(self, session):
        result = result_of(
            session,
            "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier",
        )
        back = roundtrip(result, Result)
        assert back.first.total_samples == result.first.total_samples
        stats = back.first.raw.stats
        assert stats is not None
        assert np.array_equal(
            stats.samples_per_group, result.first.raw.stats.samples_per_group
        )
        assert stats.scanned_rows == result.first.raw.stats.scanned_rows

    def test_group_estimate_roundtrip(self, session):
        result = result_of(
            session,
            "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier",
        )
        for est in result.first.groups:
            back = roundtrip(est, GroupEstimate)
            assert back == est

    def test_aggregate_result_numpy_meta_jsonifies(self, session):
        result = (
            session.table("flights")
            .group_by("carrier")
            .agg(avg("arrival_delay"))
            .top(3)
            .run(seed=0)
        )
        agg = result.first
        wire = agg.to_dict()
        json.dumps(wire)  # numpy scalars/arrays in meta must be coerced
        back = AggregateResult.from_dict(wire)
        assert back.meta == json.loads(json.dumps(wire))["meta"]
        assert back.estimates() == agg.estimates()


class TestPartialUpdateRoundtrip:
    def test_stream_updates_roundtrip(self):
        with flights_session() as session:
            stream = session.sql(
                "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier"
            ).stream(seed=0)
            updates = list(stream)
        assert updates
        for update in updates:
            back = roundtrip(update, PartialUpdate)
            assert back == update
            assert back.done == update.done
        assert updates[-1].done
