""".stream() is .run(): one executor behind every IFOCUS door.

A live stream is the batched executor's ``on_finalize`` hook and a guarantee
mode is its leave ``rule``, so for every mode, engine, shard count and
executor the streamed result equals ``.run()`` bit for bit - estimates,
samples, ``inactive_order``, rounds, algorithm label, params and simulated
costs - and the live updates are the final groups, in finalization order.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import connect
from repro.session import avg

MODES = {
    "ordering": lambda b: b,
    "top3": lambda b: b.top(3),
    "trends": lambda b: b.trends(),
    "values": lambda b: b.values(within=4.0),
    "mistakes": lambda b: b.mistakes(0.6),
}

BACKENDS = {
    "memory": dict(engine="memory"),
    "needletail": dict(engine="needletail"),
    "sharded-thread": dict(engine="needletail", shards=2),
    "sharded-process": dict(engine="memory", shards=2, executor="process"),
}


@pytest.fixture(scope="module")
def columns():
    rng = np.random.default_rng(4)
    n = 60_000
    means = {"a": 20.0, "b": 40.0, "c": 40.4, "d": 60.0, "e": 61.5, "f": 85.0}
    g = rng.choice(list(means), size=n)
    y = np.clip(np.array([means[x] for x in g]) + rng.normal(0, 9, n), 0, 100)
    return {"g": g, "y": y}


def wire(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def assert_stream_is_run(builder, seed):
    ran = builder.run(seed=seed)
    stream = builder.stream(seed=seed)
    updates = list(stream)
    streamed = stream.result
    raw, got = ran.first.raw, streamed.first.raw
    assert got.algorithm == raw.algorithm
    assert np.array_equal(got.estimates, raw.estimates)
    assert np.array_equal(got.samples_per_group, raw.samples_per_group)
    assert got.inactive_order == raw.inactive_order
    assert got.rounds == raw.rounds
    assert got.params == raw.params
    assert wire(streamed) == wire(ran)
    # Live updates: one per group, in finalization order, each the final group.
    assert all(u.live for u in updates)
    assert [u.group for u in updates] == [
        ran.first.groups[gid] for gid in raw.inactive_order
    ]
    return ran


@pytest.mark.parametrize("backend", list(BACKENDS))
@pytest.mark.parametrize("mode", list(MODES))
def test_stream_result_is_run_result(columns, mode, backend):
    with connect(delta=0.1, **BACKENDS[backend]) as session:
        session.register("t", columns)
        builder = MODES[mode](session.table("t").group_by("g").agg(avg("y")))
        assert_stream_is_run(builder, seed=3)


@pytest.mark.parametrize("mode", ["ordering", "top3", "mistakes"])
def test_resolution_is_honoured_by_every_door(columns, mode):
    """A positive resolution is one rule for .run(), .stream() and modes."""
    with connect(delta=0.1, engine="memory") as session:
        session.register("t", columns)
        builder = MODES[mode](
            session.table("t").group_by("g").agg(avg("y")).guarantee(resolution=2.0)
        )
        ran = assert_stream_is_run(builder, seed=3)
        assert ran.first.raw.params["resolution"] == 2.0
        plain = MODES[mode](session.table("t").group_by("g").agg(avg("y")))
        plain_samples = plain.run(seed=3).total_samples
    assert ran.total_samples <= plain_samples
    if mode == "ordering":
        # The 40 / 40.4 pair stops at eps < r/4 instead of reading in full.
        assert ran.total_samples < plain_samples
        assert ran.first.algorithm == "ifocusr"
        assert "ifocusr (guarantee mode: ordering)" in builder.explain()
