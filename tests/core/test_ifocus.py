"""Tests for the batched IFOCUS executor and its equivalence to the reference."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ifocus import run_ifocus
from repro.core.reference import run_ifocus_reference
from repro.engines.memory import InMemoryEngine
from repro.viz.properties import check_ordering
from tests.conftest import (
    make_materialized_population,
    make_twopoint_population,
    make_virtual_population,
)


class TestBasicBehaviour:
    def test_returns_all_groups(self, small_engine):
        res = run_ifocus(small_engine, delta=0.05, seed=1)
        assert res.k == 4
        assert len(res.groups) == 4
        assert len(res.inactive_order) == 4
        assert res.algorithm == "ifocus"

    def test_correct_ordering_well_separated(self, small_engine):
        res = run_ifocus(small_engine, delta=0.05, seed=1)
        true = small_engine.population.true_means()
        assert check_ordering(res.estimates, true)

    def test_estimates_close_to_truth(self, small_engine):
        res = run_ifocus(small_engine, delta=0.05, seed=2)
        true = small_engine.population.true_means()
        # Final half-widths bound the error (the guarantee held in this run).
        for g in res.groups:
            assert abs(g.estimate - true[g.index]) <= max(g.half_width, 1e-9) + 5.0

    def test_samples_bounded_by_group_sizes(self, small_engine):
        res = run_ifocus(small_engine, delta=0.05, seed=3)
        assert np.all(res.samples_per_group <= small_engine.population.sizes())

    def test_total_samples_consistent(self, small_engine):
        res = run_ifocus(small_engine, delta=0.05, seed=4)
        assert res.total_samples == int(res.samples_per_group.sum())
        assert res.stats.total_samples == res.total_samples

    def test_hard_pair_gets_more_samples(self, close_engine):
        res = run_ifocus(close_engine, delta=0.05, seed=5)
        # Groups 1 and 2 (42 vs 45) are the contentious pair; each must get
        # at least as many samples as every well-separated group.
        s = res.samples_per_group
        assert s[1] >= s.max() - 1
        assert s[2] >= s.max() - 1
        assert s[0] < s[1]

    def test_inactive_order_matches_finalized_rounds(self, close_engine):
        res = run_ifocus(close_engine, delta=0.05, seed=6)
        rounds = [res.groups[g].finalized_round for g in res.inactive_order]
        assert rounds == sorted(rounds)

    def test_single_group(self):
        pop = make_materialized_population([50.0], sizes=100)
        res = run_ifocus(InMemoryEngine(pop), delta=0.05, seed=0)
        # A lone group has nothing to be ordered against: one sample decides.
        assert res.samples_per_group[0] == 1 and res.rounds == 1

    def test_invalid_delta(self, small_engine):
        with pytest.raises(ValueError):
            run_ifocus(small_engine, delta=0.0)
        with pytest.raises(ValueError):
            run_ifocus(small_engine, delta=1.0)

    def test_invalid_batching(self, small_engine):
        with pytest.raises(ValueError):
            run_ifocus(small_engine, initial_batch=0)
        with pytest.raises(ValueError):
            run_ifocus(small_engine, initial_batch=64, max_batch=32)

    def test_negative_resolution_rejected(self, small_engine):
        with pytest.raises(ValueError):
            run_ifocus(small_engine, resolution=-1.0)


class TestDeterminism:
    def test_same_seed_same_result(self, close_engine):
        r1 = run_ifocus(close_engine, delta=0.05, seed=42)
        r2 = run_ifocus(close_engine, delta=0.05, seed=42)
        assert np.array_equal(r1.estimates, r2.estimates)
        assert np.array_equal(r1.samples_per_group, r2.samples_per_group)

    def test_different_seed_different_draws(self, close_engine):
        r1 = run_ifocus(close_engine, delta=0.05, seed=1)
        r2 = run_ifocus(close_engine, delta=0.05, seed=2)
        assert not np.array_equal(r1.estimates, r2.estimates)

    def test_batch_size_invariance(self, close_engine):
        base = run_ifocus(close_engine, delta=0.05, seed=9)
        for ib, mb in [(1, 1), (3, 17), (500, 100000)]:
            res = run_ifocus(close_engine, delta=0.05, seed=9, initial_batch=ib, max_batch=max(ib, mb))
            assert np.allclose(base.estimates, res.estimates)
            assert np.array_equal(base.samples_per_group, res.samples_per_group)
            assert base.inactive_order == res.inactive_order


class TestReferenceEquivalence:
    def _assert_equivalent(self, engine, **kw):
        fast = run_ifocus(engine, **kw)
        ref = run_ifocus_reference(engine, **kw)
        assert np.allclose(fast.estimates, ref.estimates, rtol=1e-12, atol=1e-9)
        assert np.array_equal(fast.samples_per_group, ref.samples_per_group)
        assert fast.inactive_order == ref.inactive_order
        assert fast.rounds == ref.rounds

    def test_equivalence_default(self, close_engine):
        self._assert_equivalent(close_engine, delta=0.05, seed=13)

    def test_equivalence_with_replacement(self, close_engine):
        self._assert_equivalent(close_engine, delta=0.05, seed=14, without_replacement=False)

    def test_equivalence_resolution(self, close_engine):
        self._assert_equivalent(close_engine, delta=0.05, seed=15, resolution=2.0)

    def test_equivalence_heuristic(self, close_engine):
        self._assert_equivalent(close_engine, delta=0.05, seed=16, heuristic_factor=2.0)

    def test_equivalence_exhaustion(self):
        # Tiny groups with nearly equal means force full reads.
        pop = make_materialized_population([50.0, 50.4], sizes=60, spread=8.0, seed=3)
        self._assert_equivalent(InMemoryEngine(pop), delta=0.05, seed=17)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=5),
        spread=st.floats(min_value=1.0, max_value=15.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_equivalence_randomized(self, seed, k, spread):
        rng = np.random.default_rng(seed)
        means = rng.uniform(10, 90, k).tolist()
        pop = make_materialized_population(means, sizes=300, spread=spread, seed=seed + 1)
        self._assert_equivalent(InMemoryEngine(pop), delta=0.1, seed=seed)


class TestResolutionVariant:
    def test_resolution_cuts_samples_on_close_pair(self):
        # Means 0.5 apart: plain IFOCUS must drill far; r=2 stops early.
        pop = make_virtual_population([40.0, 40.5, 80.0], sizes=10**7, spread=5.0)
        engine = InMemoryEngine(pop)
        coarse = run_ifocus(engine, delta=0.05, resolution=2.0, seed=21)
        fine = run_ifocus(engine, delta=0.05, resolution=0.1, seed=21)
        assert coarse.total_samples < fine.total_samples
        assert coarse.algorithm == "ifocusr"

    def test_resolution_stop_bounds_close_pair_half_width(self):
        # Groups 0 and 1 (means 0.2 apart) cannot separate before eps < r/4,
        # so they must be finalized by the resolution stop with eps < r/4.
        pop = make_virtual_population([40.0, 40.2, 80.0], sizes=10**7)
        res = run_ifocus(InMemoryEngine(pop), delta=0.05, resolution=4.0, seed=22)
        for gid in (0, 1):
            assert res.groups[gid].half_width < 4.0 / 4.0


class TestExhaustion:
    def test_tiny_identical_groups_exhaust(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 100, 50)
        pop = make_materialized_population([50.0, 50.0], sizes=50, spread=10.0, seed=8)
        engine = InMemoryEngine(pop)
        res = run_ifocus(engine, delta=0.05, seed=23)
        # Both groups have close means and only 50 elements - they are read
        # in full and finalized exactly.
        assert all(g.exhausted for g in res.groups)
        true = engine.population.true_means()
        assert np.allclose(res.estimates, true)
        del values

    def test_exhausted_estimate_is_exact(self):
        pop = make_materialized_population([30.0, 30.1], sizes=40, spread=5.0, seed=9)
        engine = InMemoryEngine(pop)
        res = run_ifocus(engine, delta=0.05, seed=24)
        for g in res.groups:
            if g.exhausted:
                assert g.estimate == pytest.approx(engine.population.groups[g.index].true_mean)
                assert g.half_width == 0.0
                assert g.samples == engine.population.groups[g.index].size


class TestMaxRounds:
    def test_truncation_flag(self, close_engine):
        res = run_ifocus(close_engine, delta=0.05, seed=25, max_rounds=10)
        assert res.params["truncated"]
        assert res.rounds <= 10
        assert np.all(res.samples_per_group <= 10)

    def test_no_truncation_when_finishing_early(self, small_engine):
        res = run_ifocus(small_engine, delta=0.05, seed=26, max_rounds=10**7)
        assert not res.params["truncated"]


class TestTrace:
    def test_trace_recorded(self, close_engine):
        res = run_ifocus(close_engine, delta=0.05, seed=27, trace_every=10)
        assert res.trace is not None
        assert len(res.trace) > 0
        samples = res.trace.samples_series()
        assert np.all(np.diff(samples) > 0)
        counts = res.trace.active_counts()
        assert np.all(np.diff(counts) <= 0)  # active set only shrinks

    def test_trace_estimates_shape(self, close_engine):
        res = run_ifocus(close_engine, delta=0.05, seed=28, trace_every=25)
        mat = res.trace.estimate_matrix()
        assert mat.shape[1] == close_engine.k

    def test_trace_matches_reference(self, close_engine):
        fast = run_ifocus(close_engine, delta=0.05, seed=29, trace_every=7)
        ref = run_ifocus_reference(close_engine, delta=0.05, seed=29, trace_every=7)
        assert len(fast.trace) == len(ref.trace)
        for a, b in zip(fast.trace, ref.trace):
            assert a.round_index == b.round_index
            assert a.cumulative_samples == b.cumulative_samples
            assert a.active == b.active
            assert np.allclose(a.estimates, b.estimates)


class TestStatisticalGuarantee:
    @pytest.mark.slow
    def test_ordering_holds_with_high_probability(self):
        """Run many trials on a moderately hard instance; the failure rate
        must stay at or below delta (it is, in practice, far below)."""
        delta = 0.2
        failures = 0
        trials = 40
        pop = make_twopoint_population([0.30, 0.38, 0.55, 0.70], sizes=10**6)
        engine = InMemoryEngine(pop)
        true = pop.true_means()
        for t in range(trials):
            res = run_ifocus(engine, delta=delta, seed=1000 + t)
            if not check_ordering(res.estimates, true):
                failures += 1
        assert failures / trials <= delta

    @pytest.mark.slow
    def test_heuristic_factor_breaks_accuracy_eventually(self):
        """Fig 5(b): aggressive interval shrinking must cause mistakes on the
        hard instance while the honest schedule stays correct."""
        from repro.data.synthetic import make_hard_dataset

        honest_fails = 0
        aggressive_fails = 0
        trials = 25
        for t in range(trials):
            pop = make_hard_dataset(k=5, gamma=0.4, group_size=10**7, seed=t)
            engine = InMemoryEngine(pop)
            true = pop.true_means()
            honest = run_ifocus(engine, delta=0.05, resolution=1.0, seed=t)
            aggressive = run_ifocus(
                engine, delta=0.05, resolution=1.0, seed=t, heuristic_factor=8.0
            )
            honest_fails += not check_ordering(honest.estimates, true, resolution=1.0)
            aggressive_fails += not check_ordering(aggressive.estimates, true, resolution=1.0)
        assert honest_fails == 0
        assert aggressive_fails > 0
