"""Data sources: the pluggable catalog behind the Session front door.

Walks the `repro.catalog` surface: a chunked CSV source with predicate
pushdown, a streaming iterator source, a synthetic generator spec, and the
catalog's cached lazy builds.

Run:  python examples/data_sources.py
"""

import csv
import os
import tempfile

import numpy as np

import repro


def write_demo_csv(path: str, rows: int = 50_000) -> None:
    """A city/delay/year CSV large enough that chunking matters."""
    rng = np.random.default_rng(11)
    cities = ["NYC", "LA", "SF", "CHI", "HOU"]
    base = {"NYC": 22.0, "LA": 31.0, "SF": 48.0, "CHI": 36.0, "HOU": 27.0}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["city", "delay", "year"])
        for _ in range(rows):
            city = cities[int(rng.integers(len(cities)))]
            delay = max(0.0, rng.normal(base[city], 9.0))
            writer.writerow([city, f"{delay:.3f}", int(rng.integers(2015, 2025))])


def main() -> None:
    session = repro.connect(delta=0.05, engine="memory")

    # -- chunked CSV with predicate pushdown --------------------------------
    path = os.path.join(tempfile.mkdtemp(), "trips.csv")
    write_demo_csv(path)
    session.attach("trips", path, group_columns=["city"], chunk_rows=8_192)

    info = session.describe_table("trips")
    print(f"registered {info.description}: {info.row_count_hint:,} rows")
    print("columns:", ", ".join(f"{c.name}:{c.kind}" for c in info.schema))

    # WHERE is lowered into the chunked scan: rows failing year >= 2020 are
    # dropped chunk-by-chunk, before the population is built.
    builder = (
        session.table("trips")
        .where("year >= 2020")
        .group_by("city")
        .agg(repro.avg("delay"))
    )
    print("\nplan:")
    print(builder.explain())
    result = builder.run(seed=1)
    print("\nrecent-year delays (certified order):")
    for label in result.first.order():
        print(f"  {label:>4}  {result.estimates()[label]:7.2f}")

    # The build is cached: the same (table, group, value, predicate) key
    # reuses the population, so this run does not rescan the file.
    builder.run(seed=2)
    print("\ncached population builds:",
          len(session.describe_table("trips").cached_populations))

    # -- streaming ingest through an iterator source ------------------------
    def chunk_factory():
        rng = np.random.default_rng(3)
        for _ in range(20):  # e.g. micro-batches arriving from a socket
            g = rng.choice(["sensor-a", "sensor-b", "sensor-c"], size=2_000)
            base = {"sensor-a": 10.0, "sensor-b": 30.0, "sensor-c": 55.0}
            v = np.array([base[x] for x in g]) + rng.normal(0, 4, size=2_000)
            yield {"sensor": g, "value": np.clip(v, 0, 100)}

    session.attach("feed", repro.IteratorSource(chunk_factory))
    feed = (
        session.table("feed").group_by("sensor").agg(repro.avg("value")).run(seed=5)
    )
    print("\nsensor averages:", {k: round(v, 2) for k, v in feed.estimates().items()})

    # -- a synthetic generator spec as a relation ---------------------------
    # Virtual populations (distribution-backed, here 10M nominal rows) flow
    # straight into the population engine - no rows are ever materialized.
    session.attach(
        "bench",
        repro.SourceSpec(
            "synthetic", family="mixture", k=8, total_size=10_000_000, seed=42
        ),
    )
    bench = (
        session.table("bench").group_by("g").agg(repro.avg("value")).run(seed=6)
    )
    frac = bench.total_samples / 10_000_000
    print(
        f"\nsynthetic 10M-row mixture: ordered {len(bench.labels)} groups "
        f"after sampling {bench.total_samples:,} rows ({frac:.3%})"
    )


if __name__ == "__main__":
    main()
