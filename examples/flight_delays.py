"""Flight-delay analytics: SQL queries over the NEEDLETAIL engine.

The workload the paper's Section 5.3 evaluates, end to end: a flights table,
a bitmap index on the carrier column, a WHERE predicate evaluated as a
bitmap, and the three algorithms compared on the same visualization query -
including a mini Table 3 with simulated runtimes.

Run:  python examples/flight_delays.py
"""

import numpy as np

import repro
from repro.data.flights import make_flights_table
from repro.experiments.costmodel import simulated_cost
from repro.viz import BarChart

QUERY = """
    SELECT carrier, AVG(arrival_delay)
    FROM flights
    WHERE distance > 500
    GROUP BY carrier
"""


def main() -> None:
    table = make_flights_table(num_rows=300_000, seed=11)
    print(f"flights table: {table.num_rows:,} rows, columns {table.column_names}")

    session = repro.connect(delta=0.05)
    session.register("flights", table)

    # --- the approximate visualization query ------------------------------
    out = session.sql(QUERY).run(seed=1)
    estimates = out.estimates()
    chart = BarChart(
        labels=list(estimates),
        values=np.array(list(estimates.values())),
        title=f"AVG(arrival_delay) WHERE distance > 500 "
        f"({out.total_samples:,} samples)",
    )
    print(chart.render(sort=True))
    print()

    # --- mini Table 3: algorithm comparison on the same engine -------------
    base = session.sql(QUERY)
    print("algorithm comparison (same query, same guarantee):")
    print(f"{'algorithm':>12}  {'samples':>10}  {'sim seconds':>11}  top carrier")
    for alg in ("roundrobin", "ifocus", "ifocusr"):
        builder = base.using(alg)
        if alg == "ifocusr":
            builder = builder.guarantee(resolution=0.01 * 120.0)
        res = builder.run(seed=5)
        agg = res.first
        best = agg.order(descending=True)[0]
        print(
            f"{alg:>12}  {agg.total_samples:>10,}  "
            f"{sum(simulated_cost(agg.raw.stats)):>11.4f}  {best}"
        )
    print("\n(ifocusr uses the 1% visual-resolution relaxation of Problem 2)")


if __name__ == "__main__":
    main()
