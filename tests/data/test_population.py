"""Tests for groups, samplers, and populations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.distributions import TwoPoint
from repro.data.population import MaterializedGroup, Population, VirtualGroup, split_by_key


class TestMaterializedGroup:
    def test_mean_and_size(self):
        g = MaterializedGroup("g", np.array([1.0, 2.0, 3.0]))
        assert g.size == 3 and g.true_mean == pytest.approx(2.0)

    def test_wor_sampler_is_permutation(self):
        values = np.arange(100, dtype=np.float64)
        g = MaterializedGroup("g", values)
        sampler = g.sampler(np.random.default_rng(0), without_replacement=True)
        draws = sampler.draw(100)
        assert np.array_equal(np.sort(draws), values)
        with pytest.raises(ValueError):
            sampler.draw(1)

    def test_wor_prefix_is_uniform_subset(self):
        # First-m draws must hit each element with equal probability.
        values = np.arange(10, dtype=np.float64)
        g = MaterializedGroup("g", values)
        counts = np.zeros(10)
        for s in range(500):
            sampler = g.sampler(np.random.default_rng(s), without_replacement=True)
            first = sampler.draw(3)
            counts[first.astype(int)] += 1
        freq = counts / counts.sum()
        assert np.all(np.abs(freq - 0.1) < 0.03)

    def test_wor_draw_is_read_only(self):
        """Regression: draw used to hand out a writable view of the run's
        permutation, so a caller mutating the block corrupted later draws."""
        values = np.arange(50, dtype=np.float64)
        g = MaterializedGroup("g", values)
        sampler = g.sampler(np.random.default_rng(3), without_replacement=True)
        reference = g.sampler(np.random.default_rng(3), without_replacement=True)
        block = sampler.draw(10)
        with pytest.raises(ValueError):
            block[0] = -1.0
        # Even a copy-then-mutate must leave the stream untouched.
        _ = block.copy()
        reference.draw(10)
        assert np.array_equal(sampler.draw(40), reference.draw(40))

    def test_wr_sampler_unbounded(self):
        g = MaterializedGroup("g", np.array([5.0, 7.0]))
        sampler = g.sampler(np.random.default_rng(1), without_replacement=False)
        draws = sampler.draw(1000)
        assert set(np.unique(draws)) <= {5.0, 7.0}
        assert sampler.consumed == 1000

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MaterializedGroup("g", np.array([]))


def _unique_split(keys, values):
    """The grouping ``split_by_key`` replaced: argsort + ``np.unique``."""
    order = np.argsort(keys, kind="stable")
    uniq, starts = np.unique(keys[order], return_index=True)
    return uniq, np.split(values[order], starts[1:])


class TestSplitByKey:
    @pytest.mark.parametrize(
        "keys",
        [
            np.repeat(np.array(["a", "b", "c"]), [3, 1, 4]),  # presorted
            np.random.default_rng(0).choice(["x", "y", "zz", "w"], 500),  # shuffled
            np.random.default_rng(1).integers(-3, 4, 400),
            np.array([2.0, np.nan, 1.0, np.nan, 2.0, -0.0, 0.0, np.nan, 1.0]),
            np.array(["only"] * 5),
        ],
        ids=["presorted", "shuffled", "ints", "floats-with-nan", "one-key"],
    )
    def test_matches_argsort_and_unique(self, keys):
        values = np.arange(keys.size, dtype=np.float64)
        got_keys, got_chunks = split_by_key(keys, values)
        want_keys, want_chunks = _unique_split(keys, values)
        np.testing.assert_array_equal(got_keys, want_keys)  # NaN == NaN here
        assert len(got_chunks) == len(want_chunks)
        for got, want in zip(got_chunks, want_chunks):
            np.testing.assert_array_equal(got, want)

    def test_nan_keys_form_one_group(self):
        keys = np.array([np.nan, 1.0, np.nan, np.nan])
        got_keys, chunks = split_by_key(keys, np.arange(4.0))
        assert got_keys[0] == 1.0 and np.isnan(got_keys[1]) and got_keys.size == 2
        assert chunks[1].tolist() == [0.0, 2.0, 3.0]

    def test_chunks_lie_end_to_end(self):
        keys = np.random.default_rng(2).integers(0, 5, 100)
        _, chunks = split_by_key(keys, np.arange(100.0))
        assert all(np.shares_memory(chunk, chunks[0].base) for chunk in chunks)

    def test_empty(self):
        keys, chunks = split_by_key(np.empty(0, dtype=str), np.empty(0))
        assert keys.size == 0 and chunks == []


class TestVirtualGroup:
    def test_analytic_mean(self):
        g = VirtualGroup("g", TwoPoint(0.4, 0.0, 100.0), 10**9)
        assert g.true_mean == pytest.approx(40.0)
        assert g.size == 10**9

    def test_draws_from_distribution(self):
        g = VirtualGroup("g", TwoPoint(0.4, 0.0, 100.0), 1000)
        sampler = g.sampler(np.random.default_rng(2), without_replacement=True)
        draws = sampler.draw(500)
        assert set(np.unique(draws)) <= {0.0, 100.0}

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            VirtualGroup("g", TwoPoint(0.5), 0)


class TestPopulation:
    def _pop(self):
        return Population(
            groups=[
                MaterializedGroup("a", np.full(10, 10.0)),
                MaterializedGroup("b", np.full(20, 30.0)),
                MaterializedGroup("c", np.full(30, 31.0)),
            ],
            c=100.0,
        )

    def test_shape_accessors(self):
        pop = self._pop()
        assert pop.k == 3
        assert pop.total_size == 60
        assert pop.sizes().tolist() == [10, 20, 30]
        assert pop.group_names == ["a", "b", "c"]
        assert np.allclose(pop.true_means(), [10.0, 30.0, 31.0])

    def test_eta(self):
        pop = self._pop()
        # a: min(|10-30|, |10-31|) = 20; b: min(20, 1) = 1; c: 1.
        assert np.allclose(pop.eta(), [20.0, 1.0, 1.0])

    def test_difficulty(self):
        assert self._pop().difficulty() == pytest.approx((100.0 / 1.0) ** 2)

    def test_difficulty_infinite_on_ties(self):
        pop = Population(
            groups=[
                MaterializedGroup("a", np.full(5, 10.0)),
                MaterializedGroup("b", np.full(5, 10.0)),
            ],
            c=100.0,
        )
        assert pop.difficulty() == float("inf")

    def test_single_group_eta_infinite(self):
        pop = Population(groups=[MaterializedGroup("a", np.full(5, 1.0))], c=10.0)
        assert pop.eta()[0] == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            Population(groups=[], c=1.0)
        with pytest.raises(ValueError):
            Population(groups=[MaterializedGroup("a", np.ones(3))], c=0.0)
        with pytest.raises(ValueError):
            Population(
                groups=[
                    MaterializedGroup("a", np.ones(3)),
                    MaterializedGroup("a", np.ones(3)),
                ],
                c=1.0,
            )

    def test_from_arrays(self):
        pop = Population.from_arrays(["x", "y"], [np.ones(4), np.zeros(2)], c=1.0)
        assert pop.k == 2 and pop.total_size == 6
        with pytest.raises(ValueError):
            Population.from_arrays(["x"], [np.ones(1), np.ones(1)], c=1.0)


@pytest.mark.parametrize(
    "groups",
    [
        [MaterializedGroup("a", np.arange(100.0)), MaterializedGroup("b", np.arange(50.0))],
        [VirtualGroup("a", TwoPoint(0.4, 0.0, 100.0), 100), VirtualGroup("b", TwoPoint(0.6), 50)],
    ],
    ids=["materialized", "virtual"],
)
def test_a_finished_run_is_freed_without_the_cyclic_gc(groups):
    """Bound samplers point at their run's fused kernel, so the kernel must
    not point back: a cycle keeps each run's buffers alive until a full
    collection, which a long-lived shard worker (few Python allocations per
    run) reaches rarely - its memory grew with every query it served."""
    import gc
    import weakref

    from repro.engines.memory import InMemoryEngine

    engine = InMemoryEngine(Population(groups=groups, c=100.0))
    gc.disable()
    try:
        run = engine.open_run(0)
        run.draw_block(np.array([0, 1]), 5)
        kernel = weakref.ref(run._samplers[0]._store)
        del run
        assert kernel() is None
    finally:
        gc.enable()
