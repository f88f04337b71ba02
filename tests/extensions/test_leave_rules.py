"""The leave rules (Section 6 and ROUNDROBIN): one definition, two executors.

Each rule is checked twice:

* against a brute-force per-group Python loop on random rows - the loop is
  the rule's definition (the policy each variant used before it became a
  rule object);
* end to end, the batched executor (:func:`run_ifocus`) against the
  one-sample-at-a-time oracle (:func:`run_ifocus_reference`) evaluating the
  same rule on one round at a time: per-group samples, rounds and
  finalization order must match exactly, estimates to 1e-12.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ifocus import Inactive, LeaveRule, run_ifocus
from repro.core.intervals import separated_general
from repro.core.reference import run_ifocus_reference
from repro.core.roundrobin import RoundRobinRule
from repro.engines.memory import InMemoryEngine
from repro.extensions.mistakes import MistakesRule, resolved_pair_fraction
from repro.extensions.sums import SumRule, _ProductEngine
from repro.extensions.topt import TopRule
from repro.extensions.trends import TrendsRule, chain_neighbors
from repro.extensions.values import ValuesRule
from tests.conftest import make_materialized_population

# --------------------------------------------------------------------------
# Brute force: one random round, every group in a Python loop
# --------------------------------------------------------------------------


def random_round(rng, k):
    """Estimates/half-widths of k groups, a random inactive subset (some of it
    exhausted: zero width) and the live groups' shared eps."""
    est = rng.uniform(0, 20, k)
    if rng.random() < 0.3:  # exact ties stress the strict inequalities
        est[rng.integers(k)] = est[rng.integers(k)]
    active = rng.random(k) < 0.6
    active[rng.integers(k)] = True
    exhausted = ~active & (rng.random(k) < 0.4)
    eps = float(rng.uniform(0.1, 4.0))
    hw = np.where(active, eps, rng.uniform(0.1, 4.0, k))
    hw[exhausted] = 0.0
    return est, hw, active, eps


def evaluate(rule, est, hw, active, eps):
    gids = np.flatnonzero(active)
    done = ~active
    inactive = Inactive(est[done], hw[done])
    row = rule.leave(est[gids][None, :], np.array([eps]), gids, inactive)
    assert row.shape == (1, gids.size)
    out = np.zeros(est.shape[0], dtype=bool)
    out[gids] = row[0]
    return out


def brute_separated(est, hw, active):
    out = np.zeros(est.shape[0], dtype=bool)
    idx = np.flatnonzero(active)
    out[idx] = separated_general(est[idx], hw[idx])
    return out


def brute_top(est, hw, active, t, largest):
    out = brute_separated(est, hw, active)
    if largest:
        lower, upper = est - hw, est + hw
    else:
        lower, upper = -est - hw, -est + hw
    for i in np.flatnonzero(active & ~out):
        if int(np.sum(np.delete(lower, i) > upper[i])) >= t:
            out[i] = True
    return out


def brute_trends(est, hw, active, neighbors):
    out = np.zeros(est.shape[0], dtype=bool)
    for i in np.flatnonzero(active):
        out[i] = not any(
            active[j] and abs(est[i] - est[j]) <= hw[i] + hw[j] for j in neighbors[i]
        )
    return out


def brute_roundrobin(est, hw, active):
    """All or nothing: every live interval is disjoint from every other
    group's interval (live, or inactive at its zero width)."""
    live = np.flatnonzero(active)
    ok = all(
        abs(est[i] - est[j]) > hw[i] + hw[j]
        for i in live
        for j in range(est.shape[0])
        if j != i
    )
    out = np.zeros(est.shape[0], dtype=bool)
    out[live] = ok
    return out


def random_graph(rng, k):
    adj = [set() for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < 0.35:
                adj[i].add(j)
                adj[j].add(i)
    return [sorted(a) for a in adj]


TRIALS = 300


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_default_rule_is_pairwise_separation(k):
    rng = np.random.default_rng(k)
    for _ in range(TRIALS):
        est, hw, active, eps = random_round(rng, k)
        expected = brute_separated(est, hw, active)
        got = evaluate(LeaveRule(), est, hw, active, eps)
        assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("largest", [True, False])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_top_rule_matches_brute_force(k, largest):
    rng = np.random.default_rng(10 * k + largest)
    for _ in range(TRIALS):
        est, hw, active, eps = random_round(rng, k)
        t = int(rng.integers(1, k + 1))
        expected = brute_top(est, hw, active, t, largest)
        got = evaluate(TopRule(t, largest), est, hw, active, eps)
        assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("k", [1, 4, 9])
def test_trends_rule_matches_brute_force(k):
    rng = np.random.default_rng(20 + k)
    for trial in range(TRIALS):
        est, hw, active, eps = random_round(rng, k)
        neighbors = chain_neighbors(k) if trial % 2 else random_graph(rng, k)
        expected = brute_trends(est, hw, active, neighbors)
        got = evaluate(TrendsRule(neighbors), est, hw, active, eps)
        assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("k", [1, 6])
def test_values_rule_matches_brute_force(k):
    rng = np.random.default_rng(30 + k)
    for _ in range(TRIALS):
        est, hw, active, eps = random_round(rng, k)
        d = float(rng.uniform(0.1, 8.0))
        expected = brute_separated(est, hw, active) & (hw < d / 2.0)
        got = evaluate(ValuesRule(d), est, hw, active, eps)
        assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("k", [1, 3, 8])
def test_sum_rule_is_separation_of_scaled_intervals(k):
    """Algorithm 4: interval i is n_i * (nu_i +- eps)."""
    rng = np.random.default_rng(50 + k)
    for _ in range(TRIALS):
        est, hw, active, eps = random_round(rng, k)
        sizes = rng.choice([1, 40, 400, 1000], k)
        hw = np.where(active, eps, hw)
        expected = brute_separated(est * sizes, hw * sizes, active)
        got = evaluate(SumRule(sizes), est, hw, active, eps)
        assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_roundrobin_rule_matches_brute_force(k):
    """Under ROUNDROBIN the only inactive groups are exhausted ones (nothing
    else leaves before the stop), so they are zero-width obstacles."""
    rng = np.random.default_rng(60 + k)
    fired = 0
    for _ in range(TRIALS):
        est, hw, active, eps = random_round(rng, k)
        hw[~active] = 0.0
        if rng.random() < 0.5:  # a small eps, so that the rule can fire
            eps = float(rng.uniform(0.01, 0.5))
            hw[active] = eps
        expected = brute_roundrobin(est, hw, active)
        got = evaluate(RoundRobinRule(), est, hw, active, eps)
        assert got.tolist() == expected.tolist()
        fired += bool(expected.any())
    assert fired > 0


def test_rules_evaluate_every_row_of_a_window():
    """A window of W rows is W independent one-row evaluations."""
    rng = np.random.default_rng(40)
    k, w = 6, 17
    est = rng.uniform(0, 20, (w, k))
    eps = rng.uniform(0.1, 3.0, w)
    gids = np.arange(k)
    inactive = Inactive(np.array([4.0]), np.array([0.0]))
    for rule in (
        LeaveRule(),
        TopRule(2),
        TopRule(3, largest=False),
        TrendsRule(chain_neighbors(k + 1)),
        ValuesRule(3.0),
        SumRule(rng.integers(1, 500, k)),
        RoundRobinRule(),
    ):
        window = rule.leave(est, eps, gids, inactive)
        rows = [rule.leave(est[r : r + 1], eps[r : r + 1], gids, inactive)[0] for r in range(w)]
        assert window.tolist() == [r.tolist() for r in rows]


class TestMistakesRule:
    def test_resolved_pair_fraction(self):
        # 2 inactive of 4: 2*1 / (4*3) = 1/6.
        assert resolved_pair_fraction(2, 4) == pytest.approx(1 / 6)

    def test_single_group_fraction_is_one(self):
        assert resolved_pair_fraction(0, 1) == 1.0

    def test_stop_matches_brute_force(self):
        for gamma in (0.0, 0.3, 0.9, 1.0):
            for k in range(1, 7):
                for n in range(k + 1):
                    rule = MistakesRule(gamma)
                    frac = 1.0 if k < 2 else n * (n - 1) / (k * (k - 1))
                    expected = gamma < 1.0 and frac >= gamma
                    assert rule.stop(n, k) == expected
                    assert rule.fired == expected
                    if expected:
                        assert rule.fraction == frac


# --------------------------------------------------------------------------
# End to end: batched executor == reference oracle, per mode
# --------------------------------------------------------------------------


def make_rule(mode, data, k):
    if mode == "top":
        t = data.draw(st.integers(min_value=1, max_value=k), label="t")
        return TopRule(t, data.draw(st.booleans(), label="largest"))
    if mode == "trends":
        if data.draw(st.booleans(), label="chain"):
            return TrendsRule(chain_neighbors(k))
        rng = np.random.default_rng(data.draw(st.integers(0, 99), label="graph"))
        return TrendsRule(random_graph(rng, k))
    if mode == "values":
        return ValuesRule(data.draw(st.floats(min_value=0.5, max_value=12.0), label="d"))
    if mode == "roundrobin":
        return RoundRobinRule()
    gamma = data.draw(st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]), label="gamma")
    return MistakesRule(gamma)


def assert_equivalent(fast, ref):
    assert np.array_equal(fast.samples_per_group, ref.samples_per_group)
    assert fast.inactive_order == ref.inactive_order
    assert fast.rounds == ref.rounds
    assert np.allclose(fast.estimates, ref.estimates, rtol=1e-12, atol=1e-9)
    assert [g.exhausted for g in fast.groups] == [g.exhausted for g in ref.groups]
    assert fast.params["truncated"] == ref.params["truncated"]


@pytest.mark.parametrize("mode", ["top", "trends", "values", "mistakes", "roundrobin"])
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_fused_equals_reference(mode, data):
    seed = data.draw(st.integers(min_value=0, max_value=10_000), label="seed")
    k = data.draw(st.integers(min_value=1, max_value=8), label="k")
    # Small groups (40 rows) force exhaustion; 400 rows mostly separate.
    size = data.draw(st.sampled_from([40, 120, 400]), label="size")
    rng = np.random.default_rng(seed)
    means = rng.uniform(20, 80, k).tolist()
    pop = make_materialized_population(means, sizes=size, spread=10.0, seed=seed + 1)
    kw = dict(
        delta=0.1,
        seed=seed,
        without_replacement=data.draw(st.booleans(), label="wor"),
        resolution=data.draw(st.sampled_from([0.0, 0.0, 3.0]), label="r"),
        max_rounds=data.draw(st.sampled_from([None, None, 60]), label="max_rounds"),
    )
    if not kw["without_replacement"] and kw["max_rounds"] is None:
        kw["max_rounds"] = 2_000  # nothing exhausts with replacement: bound the run
    fast_rule = make_rule(mode, data, k)
    ref_rule = copy.copy(fast_rule)  # a mistakes rule records its stop
    engine = InMemoryEngine(pop)
    fast = run_ifocus(engine, rule=fast_rule, **kw)
    ref = run_ifocus_reference(engine, rule=ref_rule, **kw)
    assert_equivalent(fast, ref)
    assert fast.algorithm == fast_rule.algorithm
    if mode == "mistakes":
        assert (fast_rule.fired, fast_rule.fraction) == (ref_rule.fired, ref_rule.fraction)


@pytest.mark.parametrize(
    "rule",
    [None, TopRule(1), TrendsRule(chain_neighbors(1)), MistakesRule(0.9),
     RoundRobinRule(), SumRule([400]), ValuesRule(4.0)],
    ids=["ifocus", "top", "trends", "mistakes", "roundrobin", "sum", "values"],
)
def test_a_lone_group_leaves_after_one_sample(rule):
    """k = 1: nothing to order against, so one sample decides - unless the
    rule asks for a narrow interval (values mode)."""
    engine = InMemoryEngine(make_materialized_population([50.0], sizes=400, seed=3))
    fast = run_ifocus(engine, rule=copy.copy(rule), delta=0.05, seed=4)
    ref = run_ifocus_reference(engine, rule=copy.copy(rule), delta=0.05, seed=4)
    assert_equivalent(fast, ref)
    if isinstance(rule, ValuesRule):
        assert fast.samples_per_group[0] > 1 and fast.groups[0].half_width < 2.0
    else:
        assert fast.samples_per_group.tolist() == [1] and fast.rounds == 1
        assert fast.stats.samples_per_group.tolist() == [1]
        assert not fast.groups[0].exhausted


@pytest.mark.parametrize(
    "means, sizes, resolution",
    [
        # The 80-row group exhausts at a mean inside the others' intervals:
        # both must clear its exact mean before anything stops.
        ([50.0, 50.8, 90.0], [80, 3_000, 3_000], 0.0),
        # Two obstacles, one of them read in full after the first.
        ([50.0, 51.5, 58.0, 90.0], [60, 1_500, 1_500, 300], 0.0),
        ([40.0, 40.5, 80.0], [6_000] * 3, 8.0),
    ],
    ids=["exhaustion-obstacle", "two-obstacles", "resolution"],
)
def test_roundrobin_fused_equals_reference(means, sizes, resolution):
    pop = make_materialized_population(means, sizes=sizes, spread=6.0, seed=9)
    engine = InMemoryEngine(pop)
    kw = dict(delta=0.05, seed=10, resolution=resolution)
    fast = run_ifocus(engine, rule=RoundRobinRule(resolution), **kw)
    ref = run_ifocus_reference(engine, rule=RoundRobinRule(resolution), **kw)
    assert_equivalent(fast, ref)
    assert fast.algorithm == ("roundrobinr" if resolution else "roundrobin")
    # Nothing leaves before the stop: every non-exhausted group ends together.
    live = [g for g in fast.groups if not g.exhausted]
    assert len({(g.samples, g.finalized_round, g.half_width) for g in live}) == 1
    assert any(g.exhausted for g in fast.groups) == (resolution == 0.0)


@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_sum_rule_fused_equals_reference(data):
    """Algorithm 4 on both executors: the rule, and the obstacle test and
    resolution cap both executors read in sum units (``SumRule.scale``)."""
    seed = data.draw(st.integers(min_value=0, max_value=10_000), label="seed")
    k = data.draw(st.integers(min_value=1, max_value=8), label="k")
    # 40-row groups force exhaustion: their exact sums become obstacles.
    sizes = data.draw(st.lists(st.sampled_from([40, 120, 400]), min_size=k, max_size=k))
    rng = np.random.default_rng(seed)
    if data.draw(st.booleans(), label="close_sums"):
        # Sums within 2x of each other across sizes: exhausted small groups
        # then sit among the large groups' sum intervals.
        means = (rng.uniform(1_600, 3_200, k) / np.array(sizes)).tolist()
    else:
        means = rng.uniform(20, 80, k).tolist()
    pop = make_materialized_population(means, sizes=sizes, spread=10.0, seed=seed + 1)
    kw = dict(
        delta=0.1,
        seed=seed,
        without_replacement=data.draw(st.booleans(), label="wor"),
        # r in sum units: a few rows' worth of the largest group's values.
        resolution=data.draw(st.sampled_from([0.0, 0.0, 150.0 * max(sizes)]), label="r"),
        max_rounds=data.draw(st.sampled_from([None, None, 60]), label="max_rounds"),
    )
    if not kw["without_replacement"] and kw["max_rounds"] is None:
        kw["max_rounds"] = 2_000
    engine = InMemoryEngine(pop)
    fast = run_ifocus(engine, rule=SumRule(pop.sizes()), **kw)
    ref = run_ifocus_reference(engine, rule=SumRule(pop.sizes()), **kw)
    assert_equivalent(fast, ref)
    assert fast.algorithm == "ifocus-sum"


@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_product_stream_fused_equals_reference(data):
    """Algorithm 5: plain IFOCUS with replacement over the x*z view."""
    seed = data.draw(st.integers(min_value=0, max_value=10_000), label="seed")
    k = data.draw(st.integers(min_value=1, max_value=6), label="k")
    sizes = data.draw(st.lists(st.sampled_from([40, 400, 4000]), min_size=k, max_size=k))
    rng = np.random.default_rng(seed)
    pop = make_materialized_population(
        rng.uniform(20, 80, k).tolist(), sizes=sizes, spread=10.0, seed=seed + 1
    )
    view = _ProductEngine(InMemoryEngine(pop))
    kw = dict(
        delta=0.1,
        seed=seed,
        without_replacement=False,
        resolution=data.draw(st.sampled_from([0.0, 40.0]), label="r"),
        max_rounds=data.draw(st.sampled_from([300, 2_000]), label="max_rounds"),
    )
    assert_equivalent(run_ifocus(view, **kw), run_ifocus_reference(view, **kw))
