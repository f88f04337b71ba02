"""Tests for the frozen-exact-obstacle rule.

A group read to exhaustion freezes at its *exact* mean.  Our executors keep
that frozen value as an obstacle: no active group may leave the active set
while its confidence interval still covers a frozen exact mean.  Without the
rule, an active group whose only close competitor exhausted early could
finalize on the wrong side of the competitor's exact average (see the module
docstring of repro.core.ifocus).
"""

from __future__ import annotations

import numpy as np

from repro.core.ifocus import run_ifocus
from repro.core.reference import run_ifocus_reference
from repro.data.population import MaterializedGroup, Population
from repro.engines.memory import InMemoryEngine
from repro.viz.properties import check_ordering


def asymmetric_population(seed: int, gap: float = 0.6, tiny_size: int = 120) -> Population:
    """A tiny group (exhausts quickly) with a big group ``gap`` above it,
    plus a far-away easy group."""
    rng = np.random.default_rng(seed)
    small = np.clip(rng.normal(50.0, 10.0, tiny_size), 0, 100)
    big = np.clip(rng.normal(50.0 + gap, 10.0, 200_000), 0, 100)
    far = np.clip(rng.normal(90.0, 5.0, 200_000), 0, 100)
    return Population(
        groups=[
            MaterializedGroup("tiny", small),
            MaterializedGroup("big", big),
            MaterializedGroup("far", far),
        ],
        c=100.0,
    )


class TestObstacleRule:
    def test_big_group_keeps_sampling_past_frozen_value(self):
        pop = asymmetric_population(seed=1)
        engine = InMemoryEngine(pop)
        res = run_ifocus(engine, delta=0.05, seed=2)
        assert res.groups[0].exhausted
        # The big group must have sampled enough that its interval cleared
        # the tiny group's exact mean.
        big = res.groups[1]
        tiny_exact = pop.groups[0].true_mean
        assert abs(big.estimate - tiny_exact) > big.half_width or big.exhausted

    def test_ordering_correct_across_seeds(self):
        failures = 0
        for seed in range(20):
            pop = asymmetric_population(seed=100 + seed)
            engine = InMemoryEngine(pop)
            res = run_ifocus(engine, delta=0.1, seed=seed)
            failures += not check_ordering(res.estimates, pop.true_means())
        assert failures <= 2  # delta = 0.1; typically 0

    def test_batched_and_reference_agree(self):
        pop = asymmetric_population(seed=3)
        engine = InMemoryEngine(pop)
        fast = run_ifocus(engine, delta=0.05, seed=4)
        ref = run_ifocus_reference(engine, delta=0.05, seed=4)
        assert np.allclose(fast.estimates, ref.estimates)
        assert np.array_equal(fast.samples_per_group, ref.samples_per_group)
        assert fast.inactive_order == ref.inactive_order

    def test_far_group_not_blocked(self):
        # The obstacle rule must not force extra work on groups whose
        # intervals never cover the frozen value.
        pop = asymmetric_population(seed=5)
        engine = InMemoryEngine(pop)
        res = run_ifocus(engine, delta=0.05, seed=6)
        far = res.groups[2]
        big = res.groups[1]
        assert far.samples < big.samples

    def test_both_sides_exhaust_on_tiny_gap(self):
        # With a sub-resolvable gap the big group must end up reading a lot
        # (the small group is exact at ~gap below; the big group samples
        # until its interval clears that point).  The tiny group is made
        # large enough (5000 rows) that its empirical mean pins the gap.
        pop = asymmetric_population(seed=7, gap=0.3, tiny_size=5_000)
        engine = InMemoryEngine(pop)
        res = run_ifocus(engine, delta=0.05, seed=8)
        assert res.groups[0].exhausted
        assert check_ordering(res.estimates, pop.true_means())
        assert res.groups[1].samples > 50_000
