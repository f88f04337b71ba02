"""SUM and COUNT-unknown on the one IFOCUS executor (Algorithms 4 and 5).

The statistical behaviour lives in ``test_aggregates.py``; this file pins
what running SUM on the batched executor changed: exhausted groups are
obstacles in sum units, Algorithm 5's z streams are per group and
reproducible, and COUNT-unknown's rescaling is the same helper, bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.data.population import MaterializedGroup, Population
from repro.engines.memory import InMemoryEngine
from repro.extensions.counts import run_count_unknown
from repro.extensions.sums import run_ifocus_sum, run_ifocus_sum_unknown
from tests.conftest import make_materialized_population


def near_tie_sums(s: int) -> Population:
    """j: 1,000 rows around 50; i: 2,000 rows around 25, shifted so that
    sum(i) = sum(j) + 100.  The smaller group j is read in full first."""
    rng = np.random.default_rng([s, 99])
    j = np.clip(rng.normal(50.0, 7.0, 1_000), 0.0, 100.0)
    i = rng.normal(25.0, 7.0, 2_000)
    i += (j.sum() + 100.0 - i.sum()) / i.size
    i = np.clip(i, 0.0, 100.0)
    return Population(groups=[MaterializedGroup("i", i), MaterializedGroup("j", j)], c=100.0)


def test_exhausted_sums_are_obstacles():
    """Once j is exhausted its exact sum is a zero-width obstacle: i may not
    leave while n_i * (nu_i +- eps) still covers it (at most delta * N
    misorders; without the obstacle about 38 % of seeds misorder)."""
    misorders = 0
    for s in range(60):
        pop = near_tie_sums(s)
        truth = pop.true_means() * pop.sizes()
        res = run_ifocus_sum(InMemoryEngine(pop), delta=0.05, seed=s)
        misorders += (res.estimates[0] > res.estimates[1]) != (truth[0] > truth[1])
    assert misorders <= 3


def test_sum_unknown_is_reproducible_for_numpy_integer_seeds():
    pop = make_materialized_population(
        [90.0, 50.0, 10.0], sizes=[20_000, 8_000, 1_000], spread=5.0, seed=3
    )
    engine = InMemoryEngine(pop)
    runs = [
        run_ifocus_sum_unknown(engine, delta=0.05, seed=seed, max_rounds=3_000)
        for seed in (np.int64(11), np.int64(11), 11)
    ]
    for res in runs[1:]:
        assert np.array_equal(res.estimates, runs[0].estimates)
        assert np.array_equal(res.samples_per_group, runs[0].samples_per_group)
        assert res.inactive_order == runs[0].inactive_order


def test_count_unknown_is_pinned():
    """COUNT-unknown reports through the shared rescaling helper; this result
    was computed before the helper existed and must not move a bit."""
    pop = make_materialized_population(
        [50.0, 50.0, 50.0, 50.0], sizes=[40_000, 10_000, 9_000, 2_000], spread=5.0, seed=14
    )
    res = run_count_unknown(InMemoryEngine(pop), delta=0.05, seed=15)
    assert res.algorithm == "count-unknown"
    assert res.estimates.tolist() == [
        34478.260869565216,
        9931.212753093883,
        8952.768146877737,
        1848.4848484848485,
    ]
    assert res.samples_per_group.tolist() == [115, 81047, 81047, 858]
    assert res.inactive_order == [0, 3, 1, 2]
    assert res.rounds == 81047
    assert [g.half_width for g in res.groups] == [
        11854.999418622936,
        489.15011272403245,
        489.15011272403245,
        4513.160907821291,
    ]
    assert res.params["total_rows"] == 61000.0
