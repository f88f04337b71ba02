"""Stores and wire payloads written before 4.0 still read.

Up to 3.x a needletail build's meta carried ``row_bytes`` (the engine's
row width, used only to price simulated scans), and ``Result.to_dict()``
carried simulated ``io_seconds``/``cpu_seconds`` at the top level and in
every aggregate's ``raw.stats``.  4.0 writes none of them and ignores them
on read, so a 3.x store re-opens warm and a 3.x payload parses to the 4.0
form.
"""

from __future__ import annotations

import json
import sqlite3

import numpy as np
import pytest

import repro
from repro.needletail.engine import BUILD_COUNTS
from repro.session.result import Result
from repro.storage import DurableCatalog, MappedNeedletailEngine, Store


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


def _needletail_metas(store_path) -> list[dict]:
    with sqlite3.connect(store_path / "catalog.sqlite") as db:
        rows = db.execute("SELECT meta_json FROM builds WHERE kind = 'needletail'").fetchall()
    return [json.loads(r[0]) for r in rows]


def _rewrite_needletail_metas(store_path, edit) -> None:
    with sqlite3.connect(store_path / "catalog.sqlite") as db:
        rows = db.execute("SELECT id, meta_json FROM builds WHERE kind = 'needletail'").fetchall()
        for build_id, meta_json in rows:
            meta = edit(json.loads(meta_json))
            db.execute("UPDATE builds SET meta_json = ? WHERE id = ?", (json.dumps(meta), build_id))


@pytest.fixture()
def built_store(tmp_path):
    """A store holding one needletail build, plus the cold answer over it."""
    store = tmp_path / "store"
    session = repro.connect(store=store, seed=1)
    session.attach("t", _dataset())
    cold = _run(session).to_dict()
    session.close()
    return store, cold


def _assert_warm_reopen(store, cold) -> None:
    counts = dict(BUILD_COUNTS)
    catalog = DurableCatalog(store)
    session = repro.connect(catalog=catalog, seed=1)
    warm = _run(session)
    assert isinstance(warm.engine, MappedNeedletailEngine)
    assert BUILD_COUNTS["needletail"] == counts["needletail"]
    assert BUILD_COUNTS["mapped"] == counts["mapped"] + 1
    assert warm.to_dict() == cold
    session.close()
    with Store(store) as raw:
        assert raw.quarantined() == []


def test_builds_no_longer_carry_row_bytes(built_store):
    store, cold = built_store
    metas = _needletail_metas(store)
    assert metas and all("row_bytes" not in m for m in metas)
    _assert_warm_reopen(store, cold)  # 3.x raised StorageError on this meta


def test_a_3x_build_with_row_bytes_reopens_warm(built_store):
    store, cold = built_store
    _rewrite_needletail_metas(store, lambda meta: {**meta, "row_bytes": 16})
    assert all(m["row_bytes"] == 16 for m in _needletail_metas(store))
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
