"""The planner's SUM door: Algorithm 4 on the one IFOCUS executor.

SUM takes the guarantee's resolution (in sum units) and ``max_rounds`` like
AVG does, says so in ``explain()``, and - being the batched executor - is
bit-identical on every shard layout and executor.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import connect
from repro.session import avg, total


@pytest.fixture(scope="module")
def columns():
    rng = np.random.default_rng(6)
    n = 25_000
    g = rng.choice(["a", "b", "c"], size=n, p=[0.5, 0.3, 0.2])
    base = {"a": 30.0, "b": 50.0, "c": 74.0}
    v = np.clip(np.array([base[x] for x in g]) + rng.normal(0, 10, n), 0, 100)
    return {"g": g, "v": v}


@pytest.fixture()
def session(columns):
    with connect(engine="needletail", delta=0.05) as s:
        s.register("t", columns)
        yield s


def sum_query(session):
    return session.table("t").group_by("g").agg(total("v"))


def test_resolution_reaches_sum(session, columns):
    largest = max(float(columns["v"][columns["g"] == x].sum()) for x in "abc")
    plain = sum_query(session).run(seed=1)
    coarse = sum_query(session).guarantee(resolution=largest).run(seed=1)
    assert coarse.first.raw.params["resolution"] == largest
    assert coarse.total_samples < plain.total_samples
    assert f"resolution r={largest:g} in sum units" in (
        sum_query(session).guarantee(resolution=largest).explain()
    )


def test_max_rounds_reaches_sum(session):
    capped = sum_query(session).run(seed=1, max_rounds=5)
    assert capped.first.raw.params["truncated"]
    assert capped.total_samples == 5 * 3
    assert any("truncated" in c for c in capped.caveats)
    # The same cap AVG already honoured.
    assert session.table("t").group_by("g").agg(avg("v")).run(
        seed=1, max_rounds=5
    ).total_samples == capped.total_samples


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_sharded_sum_is_unsharded_sum(session, executor):
    ran = sum_query(session).run(seed=3)
    sharded = sum_query(session).sharded(2, executor=executor).run(seed=3)
    raw, got = ran.first.raw, sharded.first.raw
    assert got.algorithm == raw.algorithm == "ifocus-sum"
    assert np.array_equal(got.estimates, raw.estimates)
    assert np.array_equal(got.samples_per_group, raw.samples_per_group)
    assert got.inactive_order == raw.inactive_order
    assert got.rounds == raw.rounds
    assert sharded.caveats == ran.caveats  # no fallback to the thread fan-out
    assert json.dumps(sharded.first.to_dict(), sort_keys=True) == json.dumps(
        ran.first.to_dict(), sort_keys=True
    )
