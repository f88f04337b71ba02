"""The public ``run_*`` functions *are* what the Session planner dispatches to.

Called directly on the engine the planner would build, with the same seed,
each one returns a result bit-identical to the Session query that reaches it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ifocus import run_ifocus
from repro.extensions import (
    run_count_known,
    run_ifocus_mistakes,
    run_ifocus_multi_avg,
    run_ifocus_sum,
    run_ifocus_topt,
    run_ifocus_trends,
    run_ifocus_values,
    run_noindex,
)
from repro.needletail.engine import NeedletailEngine
from repro.needletail.table import Table
from repro.session import avg, connect, count, total


@pytest.fixture(scope="module")
def table() -> Table:
    rng = np.random.default_rng(9)
    n = 9_000
    names = rng.choice(["a", "b", "c"], size=n)
    base = {"a": 15.0, "b": 45.0, "c": 80.0}
    y = np.clip(np.array([base[x] for x in names]) + rng.normal(0, 6, n), 0, 100)
    z = np.clip(rng.normal(50, 10, n), 0, 100)
    return Table.from_dict("t", {"g": names, "y": y, "z": z})


@pytest.fixture()
def session(table):
    return connect().register("t", table)


@pytest.fixture()
def engine(table) -> NeedletailEngine:
    # Identical to the engine the Session planner builds for AVG(y)/SUM(y).
    return NeedletailEngine(table, "g", "y")


def assert_same_ordering_result(direct, raw) -> None:
    np.testing.assert_array_equal(direct.estimates, raw.estimates)
    np.testing.assert_array_equal(direct.samples_per_group, raw.samples_per_group)
    assert direct.inactive_order == raw.inactive_order
    assert [g.name for g in direct.groups] == [g.name for g in raw.groups]


def session_avg(session):
    return session.table("t").group_by("g").agg(avg("y"))


def test_run_ifocus(engine, session):
    direct = run_ifocus(engine, delta=0.05, seed=3)
    assert_same_ordering_result(direct, session_avg(session).run(seed=3).first.raw)


def test_run_ifocus_sum(engine, session):
    direct = run_ifocus_sum(engine, delta=0.05, seed=3)
    res = session.table("t").group_by("g").agg(total("y")).run(seed=3)
    assert_same_ordering_result(direct, res.first.raw)


def test_run_count_known(engine, session):
    res = session.table("t").group_by("g").agg(count("*")).run(seed=3)
    assert_same_ordering_result(run_count_known(engine), res.first.raw)


def test_run_ifocus_multi_avg(table, session):
    direct = run_ifocus_multi_avg(table, "g", "y", "z", delta=0.05, seed=3)
    res = session.table("t").group_by("g").agg(avg("y"), avg("z")).run(seed=3)
    assert_same_ordering_result(direct.y, res["AVG(y)"].raw)
    assert_same_ordering_result(direct.z, res["AVG(z)"].raw)


def test_run_ifocus_topt(engine, session):
    direct = run_ifocus_topt(engine, 2, delta=0.05, seed=3)
    res = session_avg(session).top(2).run(seed=3)
    assert_same_ordering_result(direct.result, res.first.raw)
    assert direct.top_names == res.first.meta["top_labels"]


def test_run_ifocus_trends(engine, session):
    direct = run_ifocus_trends(engine, delta=0.05, seed=3)
    assert_same_ordering_result(
        direct, session_avg(session).trends().run(seed=3).first.raw
    )


def test_run_ifocus_values(engine, session):
    direct = run_ifocus_values(engine, d=4.0, delta=0.05, seed=3)
    res = session_avg(session).values(within=4.0).run(seed=3)
    assert_same_ordering_result(direct, res.first.raw)


def test_run_ifocus_mistakes(engine, session):
    direct = run_ifocus_mistakes(engine, min_correct_fraction=0.9, delta=0.05, seed=3)
    assert_same_ordering_result(
        direct, session_avg(session).mistakes(0.9).run(seed=3).first.raw
    )


def test_run_noindex(engine, session):
    direct = run_noindex(engine, delta=0.05, seed=3)
    res = session_avg(session).on_engine("noindex").run(seed=3)
    assert_same_ordering_result(direct, res.first.raw)


def test_run_ifocus_callback_matches_stream(engine, session):
    emitted = []
    direct = run_ifocus(
        engine,
        delta=0.05,
        seed=3,
        on_finalize=lambda gid, outcome: emitted.append(outcome),
    )
    stream = session_avg(session).stream(seed=3)
    updates = list(stream)
    assert [u.emitted_so_far for u in updates] == list(range(1, len(emitted) + 1))
    for outcome, update in zip(emitted, updates):
        assert outcome.name == update.group.label
        assert outcome.estimate == update.group.estimate
        assert outcome.samples == update.group.samples
    assert emitted == [direct.groups[g] for g in direct.inactive_order]
    assert_same_ordering_result(direct, stream.result.first.raw)
