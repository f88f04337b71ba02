"""Self-healing storage: quarantine-and-rebuild, write degradation, repair.

The PR-10 storage acceptance bar:

* a corrupt segment (bit flipped on disk, by hand or by the
  ``flip_segment_bit`` fault site) never fails a query: the build is
  quarantined, rebuilt from source, re-persisted, and the result - bit
  identical to the uncorrupted run - carries a ``resilience:`` caveat;
* after the heal, a fresh open maps the re-persisted build with zero
  rebuilds and zero quarantined segments served;
* an ENOSPC write failure trips the sticky store breaker: the catalog
  degrades to memory-only write-through and queries keep answering;
* ``Store.repair()`` does what the old error message told the human to do:
  quarantine corrupt builds + sweep orphans, in one pass.
"""

from __future__ import annotations

import os

import numpy as np

import repro
from repro.data.population import BUILD_COUNTS
from repro.resilience.faults import Fault, FaultPlan, inject
from repro.storage import DurableCatalog, Store


def _dataset(rows_per_group=500, groups=4, seed=0):
    rng = np.random.default_rng(seed)
    means = np.linspace(10, 80, groups)
    return {
        "g": np.repeat([f"g{i}" for i in range(groups)], rows_per_group),
        "v": np.concatenate(
            [rng.normal(m, 6.0, rows_per_group).clip(0, 100) for m in means]
        ),
    }


def _sig(result):
    return (
        result.first.order(),
        result.total_samples,
        tuple(sorted((g.label, g.estimate, g.samples) for g in result.first)),
    )


def _run(session, seed=7):
    return session.table("t").group_by("g").agg(repro.avg("v")).run(seed=seed)


def _build_store(store):
    session = repro.connect(store=store, seed=1)
    session.attach("t", _dataset())
    result = _run(session)
    session.close()
    return result


def _flip_byte_of(store, kind):
    """Flip the last byte of one segment owned by a ``kind`` build."""
    with Store(store) as raw:
        row = raw._db.execute(
            "SELECT s.filename FROM segments s JOIN builds b ON s.build_id = b.id "
            "WHERE b.kind = ? ORDER BY s.id LIMIT 1",
            (kind,),
        ).fetchone()
        victim = os.path.join(raw.segments_dir, row["filename"])
    with open(victim, "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([byte[0] ^ 0x01]))
    return row["filename"]


class TestQuarantineAndRebuild:
    def test_corrupt_index_heals_transparently_with_a_caveat(self, tmp_path):
        store = tmp_path / "store"
        cold = _build_store(store)
        flipped = _flip_byte_of(store, "population")

        session = repro.connect(store=store, seed=1)
        healed = _run(session)
        assert _sig(healed) == _sig(cold), "healed result must be bit-identical"
        assert any(
            c.startswith("resilience:") and "quarantined" in c
            for c in healed.caveats
        ), healed.caveats
        # One heal, one caveat: the next result over the same store is clean.
        assert not any(c.startswith("resilience:") for c in _run(session).caveats)
        session.close()

        with Store(store) as raw:
            tombstones = raw.quarantined()
            assert flipped in {t["filename"] for t in tombstones}
            assert os.path.exists(os.path.join(raw.quarantine_dir, flipped))
            raw.verify()  # the re-persisted build is clean on disk

        # A fresh open serves the re-persisted build: mapped, no rebuild.
        counts = dict(BUILD_COUNTS)
        reopened = DurableCatalog(store)
        reopened.population("t", "g", "v")
        assert BUILD_COUNTS == {**counts, "mapped": counts["mapped"] + 1}
        assert reopened.drain_resilience_events() == []
        reopened.close()

    def test_flip_segment_bit_fault_site_drives_the_same_path(self, tmp_path):
        store = tmp_path / "store"
        cold = _build_store(store)
        # Read order on a fresh open: table columns (0, 1), then the first
        # query maps the population build (2) - flip its values array.
        plan = FaultPlan([Fault(kind="flip_segment_bit", at=2, times=1)])
        with inject(plan):
            session = repro.connect(store=store, seed=1)
            healed = _run(session)
            session.close()
        assert plan.fired() == [("flip_segment_bit", None, 2)]
        assert _sig(healed) == _sig(cold)
        assert any("quarantined" in c for c in healed.caveats), healed.caveats
        with Store(store) as raw:
            assert raw.quarantined(), "the flipped segment must be tombstoned"
            raw.verify()

    def test_missing_segment_file_heals_too(self, tmp_path):
        store = tmp_path / "store"
        cold = _build_store(store)
        with Store(store) as raw:
            row = raw._db.execute(
                "SELECT s.filename FROM segments s "
                "JOIN builds b ON s.build_id = b.id WHERE b.kind = 'population' "
                "ORDER BY s.id LIMIT 1"
            ).fetchone()
            os.unlink(os.path.join(raw.segments_dir, row["filename"]))
        session = repro.connect(store=store, seed=1)
        healed = _run(session)
        assert _sig(healed) == _sig(cold)
        assert any("quarantined" in c for c in healed.caveats)
        session.close()


class TestWriteDegradation:
    def test_enospc_trips_the_breaker_and_queries_continue(self, tmp_path):
        plan = FaultPlan([Fault(kind="enospc_segment_write", at=0, times=1)])
        cat = DurableCatalog(tmp_path / "store")
        with inject(plan):
            cat.attach("t", _dataset())  # first segment write hits ENOSPC
        assert plan.fired() == [("enospc_segment_write", None, 0)]
        assert cat.degraded, "one disk-full failure must open the breaker"

        session = repro.connect(catalog=cat, seed=1)
        result = _run(session)
        assert result.first.order()  # the query still answers
        assert any(
            c.startswith("resilience:") and "write-degraded" in c
            for c in result.caveats
        ), result.caveats
        # Memory-only write-through: nothing new lands on disk.
        assert cat.store.builds("t") == []
        assert cat.save_checkpoint("cp", kind="x", payload={}, state={}) is False
        session.close()

    def test_degraded_store_builds_the_index_once(self, tmp_path):
        """The persist never lands, so RAM is the only tier: the second
        query must reuse the first one's build, not rebuild per query."""
        healthy = _build_store(tmp_path / "healthy")

        plan = FaultPlan([Fault(kind="enospc_segment_write", at=0, times=1)])
        cat = DurableCatalog(tmp_path / "store")
        with inject(plan):
            cat.attach("t", _dataset())
        assert cat.degraded
        session = repro.connect(catalog=cat, seed=1)
        first = _run(session)
        before = dict(BUILD_COUNTS)
        second = _run(session)
        assert BUILD_COUNTS == before, "second query re-ran the population build"
        assert cat.store.builds("t") == []
        assert _sig(first) == _sig(second) == _sig(healthy)
        session.close()

    def test_snapshot_shares_breaker_and_events(self, tmp_path):
        cat = DurableCatalog(tmp_path / "store")
        cat.attach("t", _dataset(rows_per_group=20, groups=2))
        snap = cat.snapshot()
        cat._breaker.trip("test")
        assert snap.degraded
        snap._note("storage: test event")
        assert cat.drain_resilience_events() == ["storage: test event"]
        cat.close()


class TestRepair:
    def test_repair_quarantines_and_sweeps_in_one_pass(self, tmp_path):
        store = tmp_path / "store"
        _build_store(store)
        flipped = _flip_byte_of(store, "population")
        with Store(store) as raw:
            with open(os.path.join(raw.segments_dir, "stray.seg.tmp"), "wb") as fh:
                fh.write(b"junk")
            report = raw.repair()
            assert report["quarantined_builds"] == 1
            assert flipped in report["quarantined_files"]
            assert report["removed_orphans"] == ["stray.seg.tmp"]
            raw.verify()  # what remains is clean
            # Idempotent: a second pass finds nothing to do.
            again = raw.repair()
            assert again["quarantined_builds"] == 0
            assert again["removed_orphans"] == []

    def test_repair_on_a_healthy_store_is_a_no_op(self, tmp_path):
        store = tmp_path / "store"
        _build_store(store)
        with Store(store) as raw:
            checked = raw.verify()
            report = raw.repair()
            assert report["checked"] == checked
            assert report["quarantined_builds"] == 0


class TestCheckpoints:
    def test_roundtrip_list_delete(self, tmp_path):
        with Store(tmp_path / "store") as store:
            store.save_checkpoint(
                "sub-1", kind="subscription",
                payload={"sql": "SELECT 1"}, state={"emissions": 0},
            )
            store.save_checkpoint(
                "sub-1", kind="subscription",
                payload={"sql": "SELECT 1"}, state={"emissions": 3},
            )
            payload, state = store.load_checkpoint("sub-1")
            assert payload == {"sql": "SELECT 1"}
            assert state == {"emissions": 3}
            assert [c["id"] for c in store.checkpoints("subscription")] == ["sub-1"]
            assert store.checkpoints("other") == []
            assert store.delete_checkpoint("sub-1") is True
            assert store.delete_checkpoint("sub-1") is False
            assert store.load_checkpoint("sub-1") is None
