"""The SQL front door: every query shape the paper supports, in one script.

Demonstrates the Section 6.3 generalizations through the Session API's SQL
door: selection predicates, SUM and COUNT aggregates, HAVING, and multiple
group-by columns - all answered by sampling with the ordering guarantee and
all lowering to the same QuerySpec IR the fluent builder produces.

Run:  python examples/sql_interface.py
"""

import repro

QUERIES = [
    # The paper's canonical visualization query.
    "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier",
    # Selection predicates (Section 6.3.3), evaluated as bitmaps.
    "SELECT carrier, AVG(departure_delay) FROM flights "
    "WHERE distance BETWEEN 300 AND 1500 AND year >= 2000 GROUP BY carrier",
    # SUM with known group sizes (Algorithm 4).
    "SELECT carrier, SUM(arrival_delay) FROM flights GROUP BY carrier",
    # COUNT is exact from bitmap-index metadata (Section 6.3.2).
    "SELECT carrier, COUNT(*) FROM flights GROUP BY carrier",
    # HAVING filters on the estimated aggregate (and surfaces a caveat).
    "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier "
    "HAVING AVG(arrival_delay) > 8",
    # Multiple group-bys via the cross-product key (Section 6.3.4).
    "SELECT carrier, year, AVG(arrival_delay) FROM flights "
    "WHERE year IN (1995, 2005) GROUP BY carrier, year",
]


def main() -> None:
    session = repro.connect(delta=0.05)
    session.attach("flights", repro.SourceSpec("flights", rows=150_000, seed=23))
    for sql in QUERIES:
        print("=" * 72)
        print(sql.strip())
        out = session.sql(sql).run(seed=13)
        for key, agg in out.aggregates.items():
            pairs = sorted(agg.estimates().items(), key=lambda p: -p[1])[:6]
            shown = ", ".join(f"{label}={value:.2f}" for label, value in pairs)
            print(f"  {key}: {shown}" + (" ..." if len(out.labels) > 6 else ""))
            print(f"    samples={agg.total_samples:,} algorithm={agg.algorithm}")
        if out.dropped_by_having:
            print(f"  HAVING dropped: {out.dropped_by_having}")
        for caveat in out.caveats:
            print(f"  caveat: {caveat.splitlines()[0]}")
    print("=" * 72)


if __name__ == "__main__":
    main()
