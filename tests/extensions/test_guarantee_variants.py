"""Tests for the mistakes, values, and partial-results variants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ifocus import run_ifocus
from repro.engines.memory import InMemoryEngine
from repro.extensions.mistakes import run_ifocus_mistakes
from repro.extensions.values import run_ifocus_values
from repro.session import avg, connect
from repro.viz.properties import pair_accuracy
from tests.conftest import make_materialized_population


class TestMistakes:
    def test_terminates_early_with_contentious_pair(self):
        # One contentious pair among 5 groups: the 3 easy groups resolve
        # early, giving a committed-pair fraction of 3*2/(5*4) = 0.3;
        # requesting that fraction skips the expensive pair entirely.
        pop = make_materialized_population(
            [20.0, 50.0, 50.2, 80.0, 95.0], sizes=30_000, seed=1
        )
        engine = InMemoryEngine(pop)
        relaxed = run_ifocus_mistakes(engine, min_correct_fraction=0.3, delta=0.05, seed=2)
        full = run_ifocus(engine, delta=0.05, seed=2)
        assert relaxed.total_samples < full.total_samples
        assert relaxed.params["early_terminated"]
        assert relaxed.params["resolved_pair_fraction"] >= 0.3

    def test_accuracy_on_resolved_fraction(self):
        pop = make_materialized_population(
            [20.0, 50.0, 50.2, 80.0, 95.0], sizes=30_000, seed=3
        )
        engine = InMemoryEngine(pop)
        res = run_ifocus_mistakes(engine, min_correct_fraction=0.3, delta=0.05, seed=4)
        # The committed pairs are correct w.h.p.; in practice the flushed
        # estimates rarely add mistakes, so well over 30% come out right.
        assert pair_accuracy(res.estimates, pop.true_means()) >= 0.3

    def test_fraction_one_is_plain_ifocus(self, small_engine):
        a = run_ifocus_mistakes(small_engine, min_correct_fraction=1.0, delta=0.05, seed=5)
        b = run_ifocus(small_engine, delta=0.05, seed=5)
        assert a.total_samples == b.total_samples

    def test_invalid_fraction(self, small_engine):
        with pytest.raises(ValueError):
            run_ifocus_mistakes(small_engine, min_correct_fraction=1.5)


class TestValues:
    def test_estimates_within_d(self):
        pop = make_materialized_population([20.0, 40.0, 60.0, 80.0], sizes=50_000, seed=6)
        engine = InMemoryEngine(pop)
        d = 2.0
        res = run_ifocus_values(engine, d=d, delta=0.05, seed=7)
        true = pop.true_means()
        for g in res.groups:
            assert abs(g.estimate - true[g.index]) <= d
            if not g.exhausted:
                assert g.half_width < d / 2

    def test_costs_more_than_plain(self, small_engine):
        plain = run_ifocus(small_engine, delta=0.05, seed=8)
        accurate = run_ifocus_values(small_engine, d=1.0, delta=0.05, seed=8)
        assert accurate.total_samples > plain.total_samples

    def test_d_validation(self, small_engine):
        with pytest.raises(ValueError):
            run_ifocus_values(small_engine, d=0.0)


def _stream(engine, seed):
    """``.stream()`` over a table holding the engine's (materialized) groups."""
    groups = engine.population.groups
    session = connect(engine="memory", delta=0.05).register(
        "t",
        {
            "g": np.repeat([g.name for g in groups], [g.size for g in groups]),
            "y": np.concatenate([g.values for g in groups]),
        },
    )
    return session.table("t").group_by("g").agg(avg("y")).stream(seed=seed)


class TestPartial:
    def test_callback_receives_groups_in_finalization_order(self, close_engine):
        emitted = []
        res = run_ifocus(
            close_engine,
            delta=0.05,
            seed=9,
            on_finalize=lambda gid, outcome: emitted.append(outcome),
        )
        assert [o.index for o in emitted] == res.inactive_order
        assert len(emitted) == close_engine.k

    def test_emitted_prefix_is_internally_ordered(self, close_engine):
        # At each emission, the already-emitted groups must be correctly
        # ordered among themselves (the Problem 7 guarantee).
        true = close_engine.population.true_means()
        emitted = []

        def check(gid, outcome):
            emitted.append(outcome)
            ests = [o.estimate for o in emitted]
            trues = [true[o.index] for o in emitted]
            order_est = np.argsort(ests)
            order_true = np.argsort(trues)
            assert np.array_equal(order_est, order_true)

        run_ifocus(close_engine, delta=0.05, seed=10, on_finalize=check)

    def test_stream_yields_all_updates(self, small_engine):
        updates = list(_stream(small_engine, seed=11))
        assert len(updates) == small_engine.k
        assert updates[-1].done
        assert [u.emitted_so_far for u in updates] == list(range(1, small_engine.k + 1))

    def test_stream_matches_callback(self, small_engine):
        updates = list(_stream(small_engine, seed=12))
        emitted = []
        run_ifocus(
            small_engine,
            delta=0.05,
            seed=12,
            on_finalize=lambda gid, outcome: emitted.append(outcome),
        )
        assert [u.group.label for u in updates] == [o.name for o in emitted]
