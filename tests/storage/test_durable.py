"""DurableCatalog: warm re-open, bit-identity, staleness, crash safety.

The PR-8 acceptance bar:

* queries over memory-mapped indexes are **bit-identical** to RAM-built
  ones, for every sampler kind, both executors, shards in {1, 4};
* a store built in one process re-opens in a *fresh* process in O(1) - no
  population build from source rows (``BUILD_COUNTS`` is the oracle) -
  serving identical results;
* a rewritten source can never serve the old segment (fingerprint miss at
  lookup time AND on-disk deletion at invalidate/rebind time);
* a process killed -9 mid-build leaves the store openable with the partial
  build simply absent.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import repro
from repro.engines.payload import live_pool_dirs
from repro.data.population import BUILD_COUNTS
from repro.storage import DurableCatalog, Store


def _dataset(rows_per_group=2000, groups=8, seed=0):
    rng = np.random.default_rng(seed)
    means = np.linspace(10, 80, groups)
    return {
        "g": np.repeat([f"g{i}" for i in range(groups)], rows_per_group),
        "v": np.concatenate(
            [rng.normal(m, 6.0, rows_per_group).clip(0, 100) for m in means]
        ),
    }


def _sig(result):
    """Everything observable about a result, hashable for == comparison."""
    return (
        result.first.order(),
        result.total_samples,
        tuple(
            (key, agg.total_samples,
             tuple(sorted((g.label, g.estimate, g.samples) for g in agg)))
            for key, agg in sorted(result.aggregates.items())
        ),
    )


def _run(session, seed=7):
    return session.table("t").group_by("g").agg(repro.avg("v")).run(seed=seed)


def _subprocess_env():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestWarmReopen:
    def test_reopen_is_o1_and_serves_mapped_engine(self, tmp_path):
        data = _dataset()
        store = tmp_path / "store"
        with repro.connect(store=store, seed=1) as _:
            pass  # connect(store=...)/close round trip alone must work
        session = repro.connect(store=store, seed=1)
        session.attach("t", data)
        cold = _run(session)
        session.close()

        counts = dict(BUILD_COUNTS)
        reopened = DurableCatalog(store)
        assert "t" in reopened.names
        warm_session = repro.connect(catalog=reopened, seed=1)
        warm = _run(warm_session)
        assert BUILD_COUNTS["source"] == counts["source"]
        assert BUILD_COUNTS["mapped"] == counts["mapped"] + 1
        assert _sig(warm) == _sig(cold)
        # The engine samples the mapped population: its values are the
        # segment's bytes, not a copy.
        assert isinstance(warm.engine.population.groups[0].values.base, np.memmap)
        warm_session.close()

    def test_fresh_process_reopen_is_o1_with_identical_results(self, tmp_path):
        data = _dataset()
        store = tmp_path / "store"
        session = repro.connect(store=store, seed=1)
        session.attach("t", data)
        cold = _run(session)
        session.close()

        script = textwrap.dedent(
            """
            import json, sys
            import repro
            from repro.data.population import BUILD_COUNTS

            session = repro.connect(store=sys.argv[1], seed=1)
            result = session.table("t").group_by("g").agg(repro.avg("v")).run(seed=7)
            print(json.dumps({
                "counts": dict(BUILD_COUNTS),
                "order": result.first.order(),
                "samples": result.total_samples,
                "estimates": sorted(
                    (g.label, g.estimate, g.samples) for g in result.first
                ),
            }))
            """
        )
        out = subprocess.run(
            [sys.executable, "-c", script, str(store)],
            capture_output=True, text=True, env=_subprocess_env(), timeout=120,
        )
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout.strip().splitlines()[-1])
        assert report["counts"]["source"] == 0, "warm open rebuilt from source rows"
        assert report["counts"]["mapped"] >= 1
        assert report["order"] == cold.first.order()
        assert report["samples"] == cold.total_samples
        assert report["estimates"] == sorted(
            [g.label, g.estimate, g.samples] for g in cold.first
        )

    @pytest.mark.parametrize("executor", ["unsharded", "process"])
    def test_composite_group_by_reopens_mapped(self, tmp_path, executor):
        """A composite GROUP BY persists its population like any other: a
        fresh catalog answers it from the store (one mapped build, none from
        source rows), and process shards read the mapped segments in place."""
        data = {**_dataset(), "h": np.tile(["x", "y"], 8000)}
        store = tmp_path / "store"

        def run(session):
            query = session.table("t").group_by("g", "h").agg(repro.avg("v"))
            if executor == "process":
                query = query.sharded(2, executor="process")
            return query.run(seed=7)

        session = repro.connect(store=store, seed=1)
        session.attach("t", data)
        cold = run(session).to_dict()
        session.close()

        counts = dict(BUILD_COUNTS)
        warm_session = repro.connect(store=store, seed=1)  # a fresh DurableCatalog
        warm = run(warm_session)
        pool_files = [name for path in live_pool_dirs() for name in os.listdir(path)]
        assert not warm_session.describe_table("t").table_cached
        warm_session.close()
        assert BUILD_COUNTS["source"] == counts["source"]
        assert BUILD_COUNTS["mapped"] == counts["mapped"] + 1
        assert warm.to_dict() == cold
        if executor == "process":
            assert pool_files and all(name.startswith("out-") for name in pool_files)
        assert live_pool_dirs() == []

    def test_memory_table_round_trips_by_content(self, tmp_path):
        data = _dataset(rows_per_group=50, groups=3)
        cat = DurableCatalog(tmp_path / "store")
        cat.attach("t", data)
        cat.close()
        back = DurableCatalog(tmp_path / "store")
        table = back.table("t")
        assert table.num_rows == 150
        assert np.array_equal(np.asarray(table.column("v")), data["v"])


class TestBitIdentityMatrix:
    """Warm (mapped) results == cold (RAM-built) results, across the matrix."""

    @pytest.fixture(scope="class")
    def warm_store(self, tmp_path_factory):
        store = tmp_path_factory.mktemp("durable") / "store"
        session = repro.connect(store=store, seed=1)
        session.attach("t", _dataset())
        _run(session)  # persist the population build
        session.close()
        return store

    @pytest.mark.parametrize("engine", ["needletail", "memory", "noindex"])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_thread_executor(self, warm_store, engine, shards):
        self._assert_identical(warm_store, engine, "thread", shards)

    @pytest.mark.parametrize("engine", ["needletail", "memory"])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_process_executor(self, warm_store, engine, shards):
        self._assert_identical(warm_store, engine, "process", shards)
        assert live_pool_dirs() == []

    def _assert_identical(self, warm_store, engine, executor, shards):
        kwargs = dict(seed=1, engine=engine, executor=executor, shards=shards)
        cold_session = repro.connect(**kwargs)
        cold_session.attach("t", _dataset())
        cold = _run(cold_session)
        cold_session.close()

        warm_session = repro.connect(store=warm_store, **kwargs)
        warm = _run(warm_session)
        warm_session.close()
        assert _sig(warm) == _sig(cold)


class TestStaleness:
    def _write_csv(self, path, rows):
        with open(path, "w") as fh:
            fh.write("g,v\n")
            for g, v in rows:
                fh.write(f"{g},{v}\n")

    def test_rewritten_csv_never_serves_the_old_segment(self, tmp_path):
        csv = tmp_path / "t.csv"
        self._write_csv(csv, [("a", 1.0), ("a", 2.0), ("b", 8.0), ("b", 9.0)])
        session = repro.connect(store=tmp_path / "store", seed=1)
        session.attach("t", csv)
        first = _run(session)
        assert first.first.order() == ["a", "b"]  # ascending: a is smaller
        session.close()

        # rewrite in place: same path, opposite ordering
        time.sleep(0.01)  # ensure the mtime_ns moves even on coarse clocks
        self._write_csv(csv, [("a", 8.0), ("a", 9.0), ("b", 1.0), ("b", 2.0)])

        session = repro.connect(store=tmp_path / "store", seed=1)
        session.attach("t", csv)
        assert _run(session).first.order() == ["b", "a"]
        session.close()

    def test_rebinding_deletes_on_disk_builds(self, tmp_path):
        cat = DurableCatalog(tmp_path / "store")
        cat.attach("t", _dataset(rows_per_group=100, groups=3))
        cat.prime("t", "g", "v")
        assert len(cat.store.builds("t")) >= 2
        cat.attach("t", _dataset(rows_per_group=100, groups=3, seed=9))
        builds = cat.store.builds("t")
        # only the rebound memory table itself is stored - population builds gone
        assert [b["kind"] for b in builds] == ["table"]
        cat.close()

    def test_invalidate_evicts_disk_and_ram(self, tmp_path):
        cat = DurableCatalog(tmp_path / "store")
        cat.attach("t", _dataset(rows_per_group=100, groups=3))
        cat.prime("t", "g", "v")
        kinds = {b["kind"] for b in cat.store.builds("t")}
        assert kinds == {"population", "table"}
        cat.invalidate("t")
        # the table build is re-persisted (the binding survives); caches gone
        assert {b["kind"] for b in cat.store.builds("t")} == {"table"}
        cat.close()


class TestCrashSafety:
    def test_sigkill_mid_build_leaves_store_openable(self, tmp_path):
        store = tmp_path / "store"
        script = textwrap.dedent(
            """
            import os, sys, time
            import numpy as np
            import repro.storage.segment as segment

            real_fsync = os.fsync
            def hang_fsync(fd):
                real_fsync(fd)
                sys.stdout.write("READY\\n")
                sys.stdout.flush()
                time.sleep(120)
            segment.os.fsync = hang_fsync

            from repro.storage import DurableCatalog
            cat = DurableCatalog(sys.argv[1])
            cat.attach("t", {"g": np.repeat(["a", "b"], 50),
                             "v": np.arange(100.0)})
            """
        )
        child = subprocess.Popen(
            [sys.executable, "-c", script, str(store)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_subprocess_env(),
        )
        try:
            line = child.stdout.readline()
            assert line.strip() == "READY", child.stderr.read()
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup on failure
                child.kill()
                child.wait()

        # mid-write kill: a .tmp orphan exists, no committed segment rows
        with Store(store) as raw:
            assert raw.builds("t") == []
            orphans = raw.gc()
            assert any(name.endswith(".tmp") for name in orphans)
            assert raw.verify() == 0

        # and the durable catalog opens; the half-built table is absent
        cat = DurableCatalog(store)
        assert "t" not in cat.names
        cat.close()

    def test_injected_write_fault_during_attach(self, tmp_path):
        from repro.errors import TransientError
        from repro.resilience.faults import Fault, FaultPlan, inject

        cat = DurableCatalog(tmp_path / "store")
        plan = FaultPlan([Fault(kind="fail_segment_write", at=0, times=1)])
        with inject(plan):
            with pytest.raises(TransientError, match="injected fault"):
                cat.attach("t", _dataset(rows_per_group=20, groups=2))
        assert plan.fired() == [("fail_segment_write", None, 0)]
        assert cat.store.builds("t") == []
        cat.close()

        # the store re-opens cleanly and the same attach now succeeds
        cat = DurableCatalog(tmp_path / "store")
        cat.attach("t", _dataset(rows_per_group=20, groups=2))
        assert [b["kind"] for b in cat.store.builds("t")] == ["table"]
        cat.close()
