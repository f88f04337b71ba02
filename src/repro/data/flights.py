"""Synthetic flight-records dataset (the paper's Section 5.3 workload).

The paper uses the public US flight-records dump (1987-2008; ~120M rows) and
scales it to 1.2B and 12B rows "using probability density estimation".  The
raw files are not available offline, so we synthesize the population the same
way the paper scales it: per-carrier generating distributions whose means,
spreads and relative sizes mimic the real data's structure, then treat those
densities as the population at any requested row count (virtual groups: see
:class:`~repro.data.population.VirtualGroup` for what that stand-in preserves
and where it breaks - near exhaustion).

What matters for the Table 3 experiment is preserved by construction:

* several carrier pairs have nearly identical means (the "highly conflicting
  groups" the paper blames for the runtime growth) - e.g. the legacy
  carriers' arrival delays sit within a minute of each other;
* carrier sizes are heavily skewed (WN/DL/AA vs HA/AQ);
* three attributes with different separations: Elapsed Time (easy, means far
  apart), Arrival Delay and Departure Delay (hard, clustered means).

Carrier codes are the ones appearing in the real 1987-2008 data.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng
from repro.data.distributions import Mixture, TruncatedNormal
from repro.data.population import Population, VirtualGroup
from repro.needletail.table import Table

__all__ = [
    "CARRIERS",
    "FLIGHT_ATTRIBUTES",
    "make_flights_population",
    "make_flights_table",
]

# (carrier, relative traffic share) - loosely the real 1987-2008 ordering.
CARRIERS: list[tuple[str, float]] = [
    ("WN", 0.14),  # Southwest
    ("DL", 0.12),  # Delta
    ("AA", 0.11),  # American
    ("UA", 0.10),  # United
    ("US", 0.09),  # US Airways
    ("NW", 0.08),  # Northwest
    ("CO", 0.07),  # Continental
    ("TW", 0.05),  # TWA
    ("HP", 0.04),  # America West
    ("AS", 0.04),  # Alaska
    ("MQ", 0.04),  # American Eagle
    ("OO", 0.03),  # SkyWest
    ("XE", 0.03),  # ExpressJet
    ("EV", 0.02),  # Atlantic Southeast
    ("B6", 0.02),  # JetBlue
    ("FL", 0.01),  # AirTran
    ("F9", 0.005),  # Frontier
    ("HA", 0.003),  # Hawaiian
    ("AQ", 0.002),  # Aloha
]

# Per-attribute carrier mean tables.  Values are minutes.  Arrival/departure
# delays include deliberately conflicting clusters (pairs < 1 minute apart).
_ELAPSED_MEANS = {
    "WN": 95.0, "DL": 128.0, "AA": 142.0, "UA": 151.0, "US": 117.0,
    "NW": 134.0, "CO": 139.0, "TW": 125.0, "HP": 122.0, "AS": 131.0,
    "MQ": 78.0, "OO": 74.0, "XE": 88.0, "EV": 83.0, "B6": 158.0,
    "FL": 108.0, "F9": 137.0, "HA": 61.0, "AQ": 52.0,
}
_ARRIVAL_MEANS = {
    "WN": 4.8, "DL": 7.2, "AA": 7.6, "UA": 8.9, "US": 7.0,
    "NW": 6.3, "CO": 8.6, "TW": 7.5, "HP": 8.2, "AS": 8.4,
    "MQ": 9.8, "OO": 7.9, "XE": 10.3, "EV": 11.6, "B6": 10.1,
    "FL": 6.8, "F9": 6.6, "HA": 2.1, "AQ": 1.4,
}
_DEPARTURE_MEANS = {
    "WN": 7.9, "DL": 8.4, "AA": 9.1, "UA": 10.6, "US": 8.1,
    "NW": 7.4, "CO": 9.9, "TW": 8.6, "HP": 9.4, "AS": 9.2,
    "MQ": 10.4, "OO": 9.0, "XE": 11.8, "EV": 12.9, "B6": 11.3,
    "FL": 8.0, "F9": 7.7, "HA": 3.2, "AQ": 2.4,
}

# attribute -> (per-carrier means, value bound c, within-carrier spread)
FLIGHT_ATTRIBUTES: dict[str, tuple[dict[str, float], float, float]] = {
    "elapsed_time": (_ELAPSED_MEANS, 480.0, 28.0),
    "arrival_delay": (_ARRIVAL_MEANS, 120.0, 14.0),
    "departure_delay": (_DEPARTURE_MEANS, 120.0, 12.0),
}


def _carrier_distribution(
    mean: float, spread: float, c: float, rng: np.random.Generator
) -> Mixture:
    """A carrier's per-flight distribution: short-haul/long-haul style mixture.

    Two truncated-normal components around the carrier mean (a bulk component
    and a heavier "bad day" tail), weighted so the analytic mixture mean stays
    exactly at ``mean``-ish but is recomputed analytically regardless.
    """
    bulk = TruncatedNormal(mean * 0.9, spread * 0.6, 0.0, c)
    tail = TruncatedNormal(min(mean * 1.8 + 2.0, c * 0.9), spread * 1.6, 0.0, c)
    weight = 0.85 + 0.05 * rng.random()
    return Mixture([bulk, tail], [weight, 1.0 - weight])


def make_flights_population(
    attribute: str = "arrival_delay",
    total_rows: int = 120_000_000,
    seed: int | None = 0,
) -> Population:
    """Virtual flight population for one attribute, grouped by carrier.

    Args:
        attribute: one of ``elapsed_time``, ``arrival_delay``,
            ``departure_delay``.
        total_rows: population size; 120M matches the real dump, 1.2B/12B the
            paper's density-estimation scale-ups (group distributions are
            unchanged - only the nominal sizes scale, exactly like the
            paper's procedure).
        seed: controls the mixture-shape jitter.
    """
    if attribute not in FLIGHT_ATTRIBUTES:
        raise KeyError(
            f"unknown attribute {attribute!r}; pick from {sorted(FLIGHT_ATTRIBUTES)}"
        )
    means, c, spread = FLIGHT_ATTRIBUTES[attribute]
    rng = as_rng(seed)
    share_total = sum(share for _, share in CARRIERS)
    groups = []
    for code, share in CARRIERS:
        size = max(int(total_rows * share / share_total), 1)
        dist = _carrier_distribution(means[code], spread, c, rng)
        groups.append(VirtualGroup(code, dist, size))
    return Population(groups=groups, c=c, name=f"flights-{attribute}({total_rows})")


def make_flights_table(
    num_rows: int = 100_000,
    seed: int | None = 0,
) -> Table:
    """A materialized flights table for the query-layer examples and tests.

    Columns: carrier (group-by), elapsed_time, arrival_delay,
    departure_delay, distance, year.
    """
    rng = as_rng(seed)
    share = np.array([s for _, s in CARRIERS])
    share = share / share.sum()
    codes = [c for c, _ in CARRIERS]
    carrier_ids = rng.choice(len(codes), size=num_rows, p=share)
    carriers = np.array(codes, dtype="U2")[carrier_ids]

    columns: dict[str, np.ndarray] = {"carrier": carriers}
    for attribute, (means, c, spread) in FLIGHT_ATTRIBUTES.items():
        mu = np.array([means[code] for code in codes])[carrier_ids]
        vals = rng.normal(mu, spread * 0.7)
        columns[attribute] = np.clip(vals, 0.0, c)
    columns["distance"] = rng.gamma(2.0, 350.0, num_rows).clip(60, 4500)
    columns["year"] = rng.integers(1987, 2009, num_rows)
    return Table.from_dict("flights", columns)
