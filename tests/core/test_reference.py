"""Tests for the executors' hooks (on_finalize, leave rules) and reactivation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ifocus import LeaveRule, run_ifocus
from repro.core.reference import default_policy, run_ifocus_reference
from repro.engines.memory import InMemoryEngine
from repro.extensions.mistakes import MistakesRule
from repro.extensions.values import ValuesRule
from repro.viz.properties import check_ordering
from tests.conftest import make_materialized_population


class TestHooks:
    def test_on_finalize_called_once_per_group(self, small_engine):
        seen: list[int] = []
        run_ifocus(
            small_engine, delta=0.05, seed=1, on_finalize=lambda gid, o: seen.append(gid)
        )
        assert sorted(seen) == list(range(small_engine.k))

    def test_on_finalize_order_matches_inactive_order(self, close_engine):
        seen: list[int] = []
        res = run_ifocus(
            close_engine, delta=0.05, seed=2, on_finalize=lambda gid, o: seen.append(gid)
        )
        assert seen == res.inactive_order

    def test_min_half_width_forces_extra_sampling(self, small_engine):
        plain = run_ifocus_reference(small_engine, delta=0.05, seed=3)
        tight = run_ifocus_reference(
            small_engine, delta=0.05, seed=3, rule=ValuesRule(2.0)
        )
        assert tight.total_samples > plain.total_samples
        for g in tight.groups:
            if not g.exhausted:
                assert g.half_width < 1.0

    def test_stop_rule_stops_early(self, close_engine):
        full = run_ifocus_reference(close_engine, delta=0.05, seed=4)
        rule = MistakesRule(0.1)
        res = run_ifocus_reference(close_engine, delta=0.05, seed=4, rule=rule)
        assert rule.fired
        assert res.rounds < full.rounds

    def test_custom_policy_receives_context(self, small_engine):
        rows: list[tuple[int, int]] = []

        class Spy(LeaveRule):
            def leave(self, est, eps, gids, inactive):
                rows.append((est.shape[0], est.shape[1] + inactive.estimates.size))
                return super().leave(est, eps, gids, inactive)

        run_ifocus_reference(small_engine, delta=0.05, seed=5, rule=Spy())
        # One round per call, and every group is either live or inactive.
        assert rows and all(r == (1, small_engine.k) for r in rows)

    def test_algorithm_name_override(self, small_engine):
        class Custom(LeaveRule):
            algorithm = "custom"

        assert run_ifocus(small_engine, seed=6, rule=Custom()).algorithm == "custom"
        ref = run_ifocus_reference(small_engine, seed=6, rule=Custom())
        assert ref.algorithm == "custom-reference"

    def test_default_policy_is_pairwise_separation(self):
        est = np.array([0.0, 1.0, 5.0, 9.0])
        hw = np.array([0.6, 0.6, 1.0, 1.0])
        active = np.array([True, True, True, False])
        assert default_policy(est, hw, active).tolist() == [False, False, True, False]


class TestReactivation:
    def test_reactivation_runs_and_orders(self, close_engine):
        res = run_ifocus_reference(close_engine, delta=0.05, seed=7, reactivation=True)
        assert check_ordering(res.estimates, close_engine.population.true_means())
        assert res.params["reactivation"]

    def test_reactivation_never_cheaper(self):
        # Option (b) can only add samples relative to option (a) on the same
        # draws (re-activated groups resume sampling).
        pop = make_materialized_population([30.0, 33.0, 70.0], sizes=20_000, spread=12.0, seed=8)
        engine = InMemoryEngine(pop)
        a = run_ifocus_reference(engine, delta=0.1, seed=9, reactivation=False)
        b = run_ifocus_reference(engine, delta=0.1, seed=9, reactivation=True)
        assert b.total_samples >= a.total_samples

    def test_reactivation_takes_no_rule(self, small_engine):
        with pytest.raises(ValueError, match="reactivation"):
            run_ifocus_reference(
                small_engine, seed=1, reactivation=True, rule=ValuesRule(1.0)
            )
