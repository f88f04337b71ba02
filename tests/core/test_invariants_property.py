"""Property-based invariants of the ordering algorithms (hypothesis).

Every algorithm run, regardless of instance, must satisfy structural
invariants: sample counts within bounds, estimates inside the value domain,
finalization bookkeeping consistent, and the guarantee-relevant relation
between half-widths and separation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ifocus import run_ifocus
from repro.core.irefine import run_irefine
from repro.core.roundrobin import run_roundrobin
from repro.engines.memory import InMemoryEngine
from tests.conftest import make_materialized_population


@st.composite
def small_instances(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    means = [draw(st.floats(min_value=5, max_value=95)) for _ in range(k)]
    size = draw(st.integers(min_value=50, max_value=800))
    spread = draw(st.floats(min_value=1.0, max_value=20.0))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    pop = make_materialized_population(means, sizes=size, spread=spread, seed=seed)
    return pop, seed


def _check_structural(res, pop):
    k = pop.k
    assert res.estimates.shape == (k,)
    assert np.all(res.samples_per_group >= 1)
    assert np.all(res.samples_per_group <= pop.sizes() + 1)
    assert np.all(res.estimates >= 0.0) and np.all(res.estimates <= pop.c)
    assert sorted(res.inactive_order) == list(range(k))
    assert len(res.groups) == k
    for g in res.groups:
        assert g.samples == res.samples_per_group[g.index]
        assert g.estimate == pytest.approx(res.estimates[g.index])
        if g.exhausted:
            assert g.half_width == 0.0
            assert g.estimate == pytest.approx(pop.groups[g.index].true_mean)


class TestIFocusInvariants:
    @given(instance=small_instances())
    @settings(max_examples=25, deadline=None)
    def test_structural(self, instance):
        pop, seed = instance
        res = run_ifocus(InMemoryEngine(pop), delta=0.1, seed=seed)
        _check_structural(res, pop)

    @given(instance=small_instances())
    @settings(max_examples=15, deadline=None)
    def test_resolution_never_increases_samples(self, instance):
        pop, seed = instance
        engine = InMemoryEngine(pop)
        plain = run_ifocus(engine, delta=0.1, seed=seed)
        relaxed = run_ifocus(engine, delta=0.1, resolution=5.0, seed=seed)
        assert relaxed.total_samples <= plain.total_samples

    @given(instance=small_instances())
    @settings(max_examples=15, deadline=None)
    def test_larger_heuristic_factor_fewer_samples(self, instance):
        pop, seed = instance
        engine = InMemoryEngine(pop)
        honest = run_ifocus(engine, delta=0.1, seed=seed)
        aggressive = run_ifocus(engine, delta=0.1, heuristic_factor=4.0, seed=seed)
        assert aggressive.total_samples <= honest.total_samples


class TestRoundRobinInvariants:
    @given(instance=small_instances())
    @settings(max_examples=20, deadline=None)
    def test_structural_and_dominates_ifocus(self, instance):
        pop, seed = instance
        engine = InMemoryEngine(pop)
        rr = run_roundrobin(engine, delta=0.1, seed=seed)
        _check_structural(rr, pop)
        ifocus = run_ifocus(engine, delta=0.1, seed=seed)
        assert rr.total_samples >= ifocus.total_samples


class TestIRefineInvariants:
    @given(instance=small_instances())
    @settings(max_examples=15, deadline=None)
    def test_structural(self, instance):
        pop, seed = instance
        res = run_irefine(InMemoryEngine(pop), delta=0.1, seed=seed)
        k = pop.k
        assert res.estimates.shape == (k,)
        assert sorted(res.inactive_order) == list(range(k))
        # IREFINE's counts can exceed group sizes (fresh WR draws per
        # refinement plus a possible final scan), but never by more than
        # earlier refinements + the scan.
        assert np.all(res.samples_per_group >= 1)
