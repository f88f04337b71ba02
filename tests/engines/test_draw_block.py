"""Tests for the fused block-draw fast path (draw_block / charge_block).

The contract: ``run.draw_block(gids, count)`` is bit-for-bit identical to
stacking sequential per-group ``run.draw(g, count)`` calls, for every sampler
kind - materialized with/without replacement, virtual (fusable and
rejection-based), and NEEDLETAIL indexed groups - and ``charge_block``
accounts exactly like the per-group charge loop it replaces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.confidence import EpsilonSchedule
from repro.core.ifocus import run_ifocus
from repro.core.intervals import first_event_row, separated_equal_width_batch
from repro.data.distributions import (
    Mixture,
    PointMass,
    TruncatedNormal,
    TwoPoint,
    UniformValues,
)
from repro.data.population import Population, VirtualGroup
from repro.data.synthetic import make_mixture_dataset
from repro.engines.memory import InMemoryEngine
from repro.needletail.engine import NeedletailEngine
from repro.needletail.table import Column, Table
from tests.conftest import make_materialized_population


def _sequential(run, k: int, count: int) -> np.ndarray:
    return np.stack([run.draw(g, count) for g in range(k)], axis=1)


@pytest.fixture()
def materialized_engine() -> InMemoryEngine:
    pop = make_materialized_population([15.0, 35.0, 55.0, 75.0], sizes=400, seed=3)
    return InMemoryEngine(pop)


@pytest.fixture()
def virtual_engine_mixed() -> InMemoryEngine:
    """One group per distribution kind, fusable and not, in one population."""
    pop = Population(
        groups=[
            VirtualGroup("uniform", UniformValues(10.0, 90.0), 10**6),
            VirtualGroup("twopoint", TwoPoint(0.4, 0.0, 100.0), 10**6),
            VirtualGroup("point", PointMass(42.0), 10**6),
            VirtualGroup("truncnorm", TruncatedNormal(50.0, 5.0, 0.0, 100.0), 10**6),
            VirtualGroup(
                "mixture",
                Mixture([UniformValues(0.0, 10.0), TwoPoint(0.5, 0.0, 100.0)]),
                10**6,
            ),
        ],
        c=100.0,
    )
    return InMemoryEngine(pop)


@pytest.fixture()
def needletail_engine() -> NeedletailEngine:
    rng = np.random.default_rng(11)
    n = 4000
    table = Table(
        "t",
        [
            Column("grp", rng.integers(0, 5, size=n), 4),
            Column("val", rng.uniform(0.0, 100.0, size=n), 8),
        ],
    )
    return NeedletailEngine(table, group_by="grp", value_column="val", c=100.0)


class TestBitExactEquivalence:
    def test_materialized_without_replacement(self, materialized_engine):
        r_seq = materialized_engine.open_run(seed=7)
        r_blk = materialized_engine.open_run(seed=7)
        assert np.array_equal(
            _sequential(r_seq, 4, 50), r_blk.draw_block(np.arange(4), 50)
        )

    def test_materialized_with_replacement(self, materialized_engine):
        r_seq = materialized_engine.open_run(seed=8, without_replacement=False)
        r_blk = materialized_engine.open_run(seed=8, without_replacement=False)
        assert np.array_equal(
            _sequential(r_seq, 4, 50), r_blk.draw_block(np.arange(4), 50)
        )

    def test_virtual_all_kinds(self, virtual_engine_mixed):
        r_seq = virtual_engine_mixed.open_run(seed=9)
        r_blk = virtual_engine_mixed.open_run(seed=9)
        assert np.array_equal(
            _sequential(r_seq, 5, 64), r_blk.draw_block(np.arange(5), 64)
        )

    def test_needletail_without_replacement(self, needletail_engine):
        k = needletail_engine.k
        r_seq = needletail_engine.open_run(seed=10)
        r_blk = needletail_engine.open_run(seed=10)
        assert np.array_equal(
            _sequential(r_seq, k, 40), r_blk.draw_block(np.arange(k), 40)
        )

    def test_needletail_with_replacement(self, needletail_engine):
        k = needletail_engine.k
        r_seq = needletail_engine.open_run(seed=12, without_replacement=False)
        r_blk = needletail_engine.open_run(seed=12, without_replacement=False)
        assert np.array_equal(
            _sequential(r_seq, k, 40), r_blk.draw_block(np.arange(k), 40)
        )

    def test_interleaved_draw_and_block(self, materialized_engine):
        """Per-group and fused draws advance the same underlying streams."""
        r_seq = materialized_engine.open_run(seed=13)
        r_mix = materialized_engine.open_run(seed=13)
        first_seq = _sequential(r_seq, 4, 10)
        first_blk = r_mix.draw_block(np.arange(4), 10)
        assert np.array_equal(first_seq, first_blk)
        # Continue group 2 alone, then a partial active set.
        assert np.array_equal(r_seq.draw(2, 5), r_mix.draw(2, 5))
        subset = np.array([0, 1, 3])
        cont_seq = np.stack([r_seq.draw(int(g), 8) for g in subset], axis=1)
        assert np.array_equal(cont_seq, r_mix.draw_block(subset, 8))

    def test_bound_matches_standalone_sampler(self, materialized_engine):
        """The columnar store's in-place slice shuffle must equal the
        standalone sampler's ``rng.permutation`` draw for the same stream."""
        from repro._util import spawn_group_rngs

        pop = materialized_engine.population
        run = materialized_engine.open_run(seed=19)
        rngs = spawn_group_rngs(19, pop.k)
        for gid, (group, rng) in enumerate(zip(pop.groups, rngs)):
            standalone = group.sampler(rng, without_replacement=True)
            assert np.array_equal(standalone.draw(group.size), run.draw(gid, group.size))

    def test_subset_of_groups(self, virtual_engine_mixed):
        r_seq = virtual_engine_mixed.open_run(seed=14)
        r_blk = virtual_engine_mixed.open_run(seed=14)
        subset = np.array([1, 3, 4])
        seq = np.stack([r_seq.draw(int(g), 16) for g in subset], axis=1)
        assert np.array_equal(seq, r_blk.draw_block(subset, 16))


class TestDrawBlockContract:
    def test_zero_count_and_empty_gids(self, materialized_engine):
        run = materialized_engine.open_run(seed=1)
        assert run.draw_block(np.arange(4), 0).shape == (0, 4)
        assert run.draw_block(np.array([], dtype=np.int64), 5).shape == (5, 0)

    def test_negative_count_rejected(self, materialized_engine):
        run = materialized_engine.open_run(seed=1)
        with pytest.raises(ValueError):
            run.draw_block(np.arange(4), -1)

    def test_uncharged(self, materialized_engine):
        run = materialized_engine.open_run(seed=2)
        run.draw_block(np.arange(4), 25)
        assert run.stats.total_samples == 0

    def test_exhaustion_raises(self, materialized_engine):
        run = materialized_engine.open_run(seed=3)
        with pytest.raises(ValueError, match="exhausted"):
            run.draw_block(np.arange(4), 401)

    def test_caller_owns_the_block(self, materialized_engine):
        """Mutating the returned matrix must not corrupt later draws."""
        r_a = materialized_engine.open_run(seed=4)
        r_b = materialized_engine.open_run(seed=4)
        block = r_a.draw_block(np.arange(4), 10)
        block[:] = -1.0
        assert np.array_equal(
            r_a.draw_block(np.arange(4), 10), r_b.draw_block(np.arange(4), 20)[10:]
        )


class TestChargeBlock:
    def test_matches_per_group_charges(self, materialized_engine):
        r_loop = materialized_engine.open_run(seed=5)
        r_blk = materialized_engine.open_run(seed=5)
        for g in range(4):
            r_loop.charge(g, 37)
        r_blk.charge_block(np.arange(4), 37)
        assert np.array_equal(
            r_loop.stats.samples_per_group, r_blk.stats.samples_per_group
        )
        assert r_loop.stats.scanned_rows == r_blk.stats.scanned_rows == 0

    def test_zero_noop_and_negative(self, materialized_engine):
        run = materialized_engine.open_run(seed=6)
        run.charge_block(np.arange(4), 0)
        assert run.stats.total_samples == 0
        with pytest.raises(ValueError):
            run.charge_block(np.arange(4), -2)


class TestScheduleSegment:
    def test_segment_matches_call(self):
        schedule = EpsilonSchedule(k=12, delta=0.05, c=100.0, heuristic_factor=2.0)
        rounds = np.arange(2.0, 5002.0)
        for n_max in (None, 1e6):
            assert np.array_equal(
                np.asarray(schedule(rounds, n_max)), schedule.segment(rounds, n_max)
            )

    def test_segment_bit_identical_across_parameters(self):
        """The precomputed tail constant must match anytime_epsilon's own
        evaluation order to the last ulp for arbitrary (k, delta) - the
        algebraically equal log(pi^2 k / (3 delta)) form can differ."""
        rng = np.random.default_rng(23)
        rounds = np.arange(2.0, 502.0)
        for _ in range(50):
            k = int(rng.integers(1, 2000))
            delta = float(rng.uniform(1e-4, 0.5))
            schedule = EpsilonSchedule(k=k, delta=delta, c=100.0)
            for n_max in (None, 1e5):
                assert np.array_equal(
                    np.asarray(schedule(rounds, n_max)),
                    schedule.segment(rounds, n_max),
                )


class TestFirstEventRow:
    def _reference(self, est, eps, obstacles):
        ok = separated_equal_width_batch(est, eps)
        if obstacles is not None and obstacles.size:
            for v in obstacles:
                ok &= np.abs(est - v) > eps[:, None]
        rows = np.flatnonzero(ok.any(axis=1))
        if rows.size:
            return int(rows[0]), ok[int(rows[0])]
        return None, None

    @pytest.mark.parametrize("with_obstacles", [False, True])
    def test_matches_full_scan(self, with_obstacles):
        rng = np.random.default_rng(17)
        for trial in range(20):
            b, k = int(rng.integers(1, 300)), int(rng.integers(2, 7))
            est = rng.uniform(0, 100, size=(b, k))
            eps = rng.uniform(0.1, 30.0, size=b)
            obstacles = rng.uniform(0, 100, size=2) if with_obstacles else None
            want_row, want_mask = self._reference(est, eps, obstacles)
            got_row, got_mask = first_event_row(
                est, eps, obstacles=obstacles, start_window=7
            )
            assert got_row == want_row
            if want_row is not None:
                assert np.array_equal(got_mask, want_mask)

    def test_empty_batch(self):
        row, mask = first_event_row(np.empty((0, 3)), np.empty(0))
        assert row is None and mask is None


class TestIFocusBatchInvarianceAtScale:
    def test_k500_results_independent_of_batching(self):
        """The fused executor's output must not depend on batch sizing even
        with hundreds of groups finalizing at staggered rounds."""
        pop = make_mixture_dataset(k=500, total_size=100_000, seed=21, materialize=True)
        engine = InMemoryEngine(pop)
        base = run_ifocus(engine, delta=0.1, seed=22)
        assert base.k == 500
        for ib, mb in [(5, 40), (256, 1 << 18)]:
            res = run_ifocus(engine, delta=0.1, seed=22, initial_batch=ib, max_batch=mb)
            assert np.array_equal(base.estimates, res.estimates)
            assert np.array_equal(base.samples_per_group, res.samples_per_group)
            assert base.inactive_order == res.inactive_order
            assert base.rounds == res.rounds
