#!/usr/bin/env python
"""CI smoke for the durable storage tier: build, restart, warm-open gate.

Runs the persistence path end to end in a throwaway store directory:

1. cold: attach a synthetic relation under ``connect(store=...)``, prime
   it (building + persisting the grouped population every engine door
   samples), and time the build; the same query run twice in this process
   must build nothing the second time - no population, from source or from
   disk - because the catalog keeps the built engine in RAM;
2. restart: re-open the same store in a **fresh python process** - the
   warm open must map the population without a single build from source
   rows (``BUILD_COUNTS["source"] == 0`` in the child is the oracle) and
   serve results identical to the cold run; so must a composite
   ``GROUP BY carrier, year`` over a small second table (a CSV file),
   whose population the cold run persisted like any other;
3. gate: the warm open must be at least 10x faster than the cold build
   (mapping segments is O(1) in the data; rebuilding is O(rows));
4. process shards: the same query with ``.sharded(2, executor="process")``
   over the re-opened store must answer bit-identically to the unsharded
   run, ship the store's segments to its workers in place (the pool
   directory holds only the workers' ``out-*`` buffers, no payload copy),
   and leave no pool directory behind once the session closes;
5. verify: every segment checksum must match its catalog row;
6. self-heal: flip one bit of a committed population segment on disk, re-open,
   and re-run the query - the corrupt build must be quarantined and
   rebuilt transparently, the answer bit-identical to the cold run with a
   ``resilience:`` caveat, and the store clean again afterwards.

Usage: python scripts/storage_smoke.py [--rows N] [--min-speedup X]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.engines.payload import live_pool_dirs  # noqa: E402
from repro.data.population import BUILD_COUNTS  # noqa: E402
from repro.storage import Store  # noqa: E402

WARM_CHILD = """
import json, sys, time
import repro
from repro.data.population import BUILD_COUNTS

# On the clock: open the store and map the persisted population - no query,
# so the parent's speedup gate compares build cost against open cost alone.
t0 = time.perf_counter()
session = repro.connect(store=sys.argv[1], seed=1)
session._catalog.population("t", "g", "v")
elapsed = time.perf_counter() - t0
assert BUILD_COUNTS == {"source": 0, "mapped": 1}, BUILD_COUNTS

result = session.table("t").group_by("g").agg(repro.avg("v")).run(seed=5)
build_counts = dict(BUILD_COUNTS)
composite = (
    session.table("u").group_by("carrier", "year").agg(repro.avg("delay")).run(seed=5)
)
session.close()
print(json.dumps({
    "warm_s": elapsed,
    "build_counts": build_counts,
    "order": result.first.order(),
    "samples": result.total_samples,
    "estimates": sorted((g.label, g.estimate, g.samples) for g in result.first),
    "composite_source_builds": BUILD_COUNTS["source"] - build_counts["source"],
    "composite": composite.to_dict(),
}))
"""


def _dataset(rows: int):
    groups = 32
    rng = np.random.default_rng(7)
    per = rows // groups
    return {
        "g": np.repeat([f"g{i:02d}" for i in range(groups)], per),
        "v": rng.normal(50.0, 12.0, per * groups).clip(0, 100),
    }


def _write_second_table(path: Path) -> None:
    """A small CSV for the composite GROUP BY leg: 4 carriers x 3 years."""
    rng = np.random.default_rng(11)
    rows = 4000
    carrier = rng.choice(["AA", "DL", "UA", "WN"], size=rows)
    year = rng.integers(2004, 2007, rows)
    delay = rng.normal(30.0, 9.0, rows).clip(0, 100) + (carrier == "DL") * 12
    path.write_text("carrier,year,delay\n" + "".join(
        f"{c},{int(y)},{float(d)!r}\n" for c, y, d in zip(carrier, year, delay)
    ))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=640_000)
    parser.add_argument("--min-speedup", type=float, default=10.0,
                        help="required cold-build / warm-open ratio")
    args = parser.parse_args(argv)

    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-storage-smoke-") as tmp:
        store = Path(tmp) / "store"

        # On the clock: attach + prime, i.e. scan the rows, build the
        # grouped population, persist every segment.  The query runs off
        # the clock - both sides pay it equally.
        t0 = time.perf_counter()
        session = repro.connect(store=store, seed=1)
        session.attach("t", _dataset(args.rows))
        session._catalog.prime("t", "g", "v")
        cold_s = time.perf_counter() - t0
        query = session.table("t").group_by("g").agg(repro.avg("v"))
        cold_result = query.run(seed=5)
        builds_before = dict(BUILD_COUNTS)
        repeat_result = query.run(seed=5)
        repeat_builds = {
            kind: BUILD_COUNTS[kind] - builds_before[kind] for kind in BUILD_COUNTS
        }
        _write_second_table(Path(tmp) / "u.csv")
        session.attach("u", Path(tmp) / "u.csv")
        cold_composite = (
            session.table("u").group_by("carrier", "year").agg(repro.avg("delay"))
            .run(seed=5)
        )
        session.close()
        print(f"cold attach + population build: {cold_s:.3f}s ({args.rows:,} rows)")

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", WARM_CHILD, str(store)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        if out.returncode != 0:
            print(out.stdout, file=sys.stderr)
            print(out.stderr, file=sys.stderr)
            print("FAIL: warm re-open process crashed", file=sys.stderr)
            return 1
        report = json.loads(out.stdout.strip().splitlines()[-1])
        warm_s = report["warm_s"]
        speedup = cold_s / warm_s if warm_s else float("inf")
        print(f"warm re-open, mapped population (fresh process): {warm_s:.3f}s "
              f"-> {speedup:.1f}x")

        failures = []
        if any(repeat_builds.values()):
            failures.append(
                f"the repeated in-process query rebuilt its engine: {repeat_builds}"
            )
        if repeat_result.to_dict() != cold_result.to_dict():
            failures.append("the repeated in-process query changed its answer")
        if report["build_counts"]["source"] != 0:
            failures.append(
                f"warm open rebuilt from source rows: BUILD_COUNTS="
                f"{report['build_counts']}"
            )
        if report["order"] != cold_result.first.order():
            failures.append(
                f"ordering drifted: {report['order']} != "
                f"{cold_result.first.order()}"
            )
        if report["samples"] != cold_result.total_samples:
            failures.append("total_samples drifted across the restart")
        cold_estimates = sorted(
            [g.label, g.estimate, g.samples] for g in cold_result.first
        )
        if report["estimates"] != cold_estimates:
            failures.append("per-group estimates drifted across the restart")
        if report["composite_source_builds"] != 0:
            failures.append(
                f"warm composite GROUP BY rebuilt from source rows "
                f"{report['composite_source_builds']} time(s)"
            )
        if report["composite"] != cold_composite.to_dict():
            failures.append("the composite GROUP BY answer drifted across the restart")
        print(f"composite GROUP BY carrier, year after restart: "
              f"{report['composite_source_builds']} source builds, "
              f"{len(cold_composite.labels)} groups")
        if speedup < args.min_speedup:
            failures.append(
                f"warm open only {speedup:.1f}x faster than the cold build "
                f"(need >= {args.min_speedup:.0f}x)"
            )

        sharded_session = repro.connect(store=store, seed=1)
        sharded = (
            sharded_session.table("t").group_by("g").agg(repro.avg("v"))
            .sharded(2, executor="process").run(seed=5)
        )
        pool_files = [name for path in live_pool_dirs() for name in os.listdir(path)]
        sharded_session.close()
        if sorted(
            [g.label, g.estimate, g.samples] for g in sharded.first
        ) != cold_estimates or sharded.first.order() != cold_result.first.order():
            failures.append("process-sharded answer differs from the unsharded one")
        if not pool_files or any(not name.startswith("out-") for name in pool_files):
            failures.append(f"process shards copied store segments: {pool_files}")
        if live_pool_dirs():
            failures.append(f"pool directories outlived the session: {live_pool_dirs()}")
        print(f"process shards: bit-identical, pool files {sorted(pool_files)}")

        with Store(store) as raw:
            checked = raw.verify()
        print(f"verified {checked} segments")

        # Self-heal: corrupt one committed population segment, then query again.
        with Store(store) as raw:
            row = raw._db.execute(
                "SELECT s.filename FROM segments s "
                "JOIN builds b ON s.build_id = b.id "
                "WHERE b.kind = 'population' ORDER BY s.id LIMIT 1"
            ).fetchone()
            victim = Path(raw.segments_dir) / row["filename"]
        with open(victim, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([byte[0] ^ 0x01]))
        print(f"flipped one bit of {row['filename']}")

        healed_session = repro.connect(store=store, seed=1)
        healed = (
            healed_session.table("t").group_by("g").agg(repro.avg("v")).run(seed=5)
        )
        healed_session.close()
        if sorted(
            [g.label, g.estimate, g.samples] for g in healed.first
        ) != cold_estimates:
            failures.append("healed estimates drifted from the cold run")
        if not any(
            c.startswith("resilience:") and "quarantined" in c
            for c in healed.caveats
        ):
            failures.append(
                f"healed result carries no quarantine caveat: {healed.caveats}"
            )
        with Store(store) as raw:
            tombstones = {t["filename"] for t in raw.quarantined()}
            if row["filename"] not in tombstones:
                failures.append("corrupt segment was not tombstoned")
            raw.verify()  # the re-persisted build must be clean on disk
        if not failures:
            print("self-heal: quarantined, rebuilt, bit-identical with caveat")

        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("storage smoke OK")
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
