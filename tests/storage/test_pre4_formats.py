"""Stores and wire payloads written by earlier versions still read.

Up to 4.x every engine door but ``memory`` sampled a bitmap index, and a
store held a ``"needletail"`` build (bitmap words, cumulative popcounts and
the value column; up to 3.x its meta also carried ``row_bytes``) beside the
``"population"`` build.  5.0 samples the population on every door and
never reads a needletail build: a store written before re-opens warm
through its population build, the old build stays on disk untouched (not
quarantined) until ``Store.drop_builds(table, "needletail")`` reclaims it.
Up to 3.x ``Result.to_dict()`` also carried simulated
``io_seconds``/``cpu_seconds``; 4.0 writes none and ignores them on read.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.data.population import BUILD_COUNTS
from repro.session.result import Result
from repro.storage import DurableCatalog, Store


def _dataset(rows_per_group=1500, groups=6, seed=3):
    rng = np.random.default_rng(seed)
    return {
        "g": np.repeat([f"g{i}" for i in range(groups)], rows_per_group),
        "v": np.concatenate(
            [rng.normal(m, 6.0, rows_per_group).clip(0, 100) for m in np.linspace(10, 80, groups)]
        ),
    }


def _run(session):
    return session.table("t").group_by("g").agg(repro.avg("v")).run(seed=5)


def _add_needletail_build(store_path, meta_extra: dict) -> None:
    """Write a 4.x-layout needletail build beside each population build."""
    data = _dataset()
    with Store(store_path) as raw:
        for build in raw.builds("t"):
            if build["kind"] != "population":
                continue
            words, cum, specs = [], [], []
            for name in np.unique(data["g"]):
                bits = np.packbits(data["g"] == name, bitorder="little")
                group = np.frombuffer(bits.tobytes() + bytes(-len(bits) % 8), np.uint64)
                lo = sum(w.size for w in words)
                words.append(group)
                cum.append(np.cumsum(np.bitwise_count(group).astype(np.int64)))
                specs.append([str(name), lo, lo + group.size, int(data["g"].size)])
            raw.save_build(
                "t", "needletail", build["build_key"],
                fingerprint=build["fingerprint"],
                meta={"c": 100.0, "name": "t", "groups": specs, **meta_extra},
                arrays={
                    "words": np.concatenate(words),
                    "cum": np.concatenate(cum),
                    "values": data["v"],
                },
            )


@pytest.fixture(params=[{}, {"row_bytes": 16}], ids=["4x", "3x"])
def parent_store(tmp_path, request):
    """A store as 4.x (or 3.x, with ``row_bytes``) left it: population and
    needletail builds side by side, plus the cold answer over it."""
    store = tmp_path / "store"
    session = repro.connect(store=store, seed=1)
    session.attach("t", _dataset())
    cold = _run(session).to_dict()
    session.close()
    _add_needletail_build(store, request.param)
    with Store(store) as raw:
        assert {b["kind"] for b in raw.builds("t")} == {"table", "population", "needletail"}
    return store, cold


def _assert_warm_reopen(store, cold) -> None:
    counts = dict(BUILD_COUNTS)
    session = repro.connect(catalog=DurableCatalog(store), seed=1)
    warm = _run(session)
    assert BUILD_COUNTS["source"] == counts["source"]
    assert BUILD_COUNTS["mapped"] == counts["mapped"] + 1
    assert warm.to_dict() == cold
    session.close()
    with Store(store) as raw:
        assert raw.quarantined() == []


def test_a_store_with_needletail_builds_reopens_warm_through_its_population(parent_store):
    store, cold = parent_store
    _assert_warm_reopen(store, cold)
    with Store(store) as raw:  # read by nobody, left in place
        assert "needletail" in {b["kind"] for b in raw.builds("t")}


def test_dropping_the_needletail_builds_reclaims_their_segments(parent_store):
    store, cold = parent_store
    with Store(store) as raw:
        before = raw.verify()
        assert raw.drop_builds("t", "needletail") == 1
        assert {b["kind"] for b in raw.builds("t")} == {"table", "population"}
        assert raw.verify() == before - 3  # words, cum, values
    _assert_warm_reopen(store, cold)


def _as_3x_payload(data: dict) -> dict:
    """``data`` with the simulated-seconds keys 3.x put on the wire."""
    old = json.loads(json.dumps(data))
    old["io_seconds"], old["cpu_seconds"] = 0.25, 0.5
    for agg in old["aggregates"].values():
        agg["raw"]["stats"].update(io_seconds=0.25, cpu_seconds=0.5)
    return old


def _seconds_keys(node, path="") -> list[str]:
    if isinstance(node, dict):
        found = [f"{path}.{k}" for k in node if str(k).endswith("_seconds")]
        return found + [p for k, v in node.items() for p in _seconds_keys(v, f"{path}.{k}")]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in _seconds_keys(v, f"{path}[{i}]")]
    return []


@pytest.fixture(scope="module")
def session():
    s = repro.connect(seed=0)
    s.register("t", _dataset())
    yield s
    s.close()


def test_3x_payload_parses_to_the_4x_form(session):
    data = _run(session).to_dict()
    old = _as_3x_payload(data)
    assert _seconds_keys(old)
    assert Result.from_dict(old).to_dict() == data


@pytest.mark.parametrize(
    "engine,shards",
    [("needletail", 1), ("memory", 1), ("noindex", 1), ("needletail", 2), ("memory", 3)],
)
def test_no_seconds_key_anywhere_on_the_wire(session, engine, shards):
    result = (
        session.table("t").group_by("g").agg(repro.avg("v"))
        .on_engine(engine).sharded(shards).run(seed=2)
    )
    data = result.to_dict()
    assert _seconds_keys(data) == []
    assert _seconds_keys(Result.from_dict(data).to_dict()) == []


def test_a_one_column_build_key_is_unchanged(tmp_path):
    """The build key carries the GROUP BY column list; for one column it is
    byte for byte the key 5.0 stores hold, so they re-open warm whether a
    caller names the column or passes the one-column tuple."""
    store = tmp_path / "store"
    session = repro.connect(store=store, seed=1)
    session.attach("t", _dataset())
    cold = _run(session).to_dict()
    session.close()
    with Store(store) as raw:
        keys = [b["build_key"] for b in raw.builds("t") if b["kind"] == "population"]
    assert keys == ['{"bound":null,"group_by":["g"],"value":"v","where":null}']

    counts = dict(BUILD_COUNTS)
    catalog = DurableCatalog(store)
    assert catalog.population("t", ("g",), "v") is catalog.population("t", "g", "v")
    warm_session = repro.connect(catalog=catalog, seed=1)
    assert _run(warm_session).to_dict() == cold
    warm_session.close()
    assert BUILD_COUNTS["source"] == counts["source"]
    assert BUILD_COUNTS["mapped"] == counts["mapped"] + 1
