"""Query-level resilience: deadlines, cooperative cancellation, scan retry.

The contract (ISSUE 6):

* a query that hits its deadline **returns** - anytime behaviour, never a
  raise: every group carries a valid (wider) interval, the result is
  flagged via ``Result.deadline_exceeded`` and a ``deadline_exceeded``
  caveat, and fewer samples were spent than an unbounded twin;
* ``Session.submit`` futures cancel cooperatively mid-run via their
  deadline token (:class:`~repro.errors.QueryCancelled`), leaving no
  leaked workers or pool directories;
* transient scan failures during the population build are retried by
  restarting the build (a pure function of the source) and surfaced as a
  ``resilience:`` caveat; a fault that outlives the retry budget escapes
  as :class:`~repro.errors.TransientError`.
"""

from __future__ import annotations

import time
from concurrent.futures import CancelledError

import numpy as np
import pytest

import repro
from repro.catalog import TableSource
from repro.engines.payload import live_pool_dirs
from repro.errors import QueryCancelled, TransientError
from repro.resilience.faults import Fault, FaultPlan, inject

K = 5
N = 20_000


@pytest.fixture(autouse=True)
def no_pool_dir_leaks():
    baseline = live_pool_dirs()
    yield
    assert live_pool_dirs() == baseline, "leaked pool directories"


def _separated_session() -> repro.Session:
    """Well-separated group means: the unbounded query finishes quickly."""
    rng = np.random.default_rng(0)
    session = repro.connect(delta=0.05, engine="memory")
    session.register(
        "delays",
        {
            "grp": np.repeat([f"g{i}" for i in range(K)], N),
            "val": np.concatenate(
                [
                    rng.normal(10.0 + 20.0 * i, 5.0, N).clip(0.0, 100.0)
                    for i in range(K)
                ]
            ),
        },
    )
    return session


def _query(session: repro.Session):
    return session.table("delays").group_by("grp").agg(repro.avg("val"))


class TestDeadline:
    def test_expired_deadline_returns_wider_intervals_not_an_error(self):
        session = _separated_session()
        full = _query(session).run(seed=42)
        assert not full.deadline_exceeded
        assert not any("deadline" in c for c in full.caveats)

        bounded = _query(session).deadline(0.001).run(seed=42)
        assert bounded.deadline_exceeded
        assert any("deadline_exceeded" in c for c in bounded.caveats)
        assert bounded.total_samples < full.total_samples
        # Anytime contract: every group still carries a *valid* interval -
        # finite half-width, no wider-than-physics estimates, just wider
        # than the converged twin's.
        for est in bounded.first:
            assert np.isfinite(est.half_width) and est.half_width > 0.0
            lo, hi = est.interval
            assert lo <= hi
            assert est.half_width >= full.first[est.label].half_width

    def test_streaming_respects_the_deadline(self):
        session = _separated_session()
        stream = _query(session).deadline(0.001).stream(seed=42)
        result = stream.drain()
        assert result.deadline_exceeded
        assert any("deadline_exceeded" in c for c in result.caveats)

    def test_two_avg_query_honours_the_deadline(self):
        with repro.connect(delta=0.05) as session:
            session.attach("flights", repro.SourceSpec("flights", rows=200_000, seed=0))
            out = (
                session.table("flights")
                .group_by("carrier")
                .agg(repro.avg("arrival_delay"), repro.avg("departure_delay"))
                .deadline(1.0)
                .run(seed=1)
            )
        assert out.deadline_exceeded
        for key in ("AVG(arrival_delay)", "AVG(departure_delay)"):
            assert any(f"the {key} run hit its deadline" in c for c in out.caveats)

    def test_session_default_deadline_is_inherited(self):
        rng = np.random.default_rng(0)
        session = repro.connect(delta=0.05, engine="memory", deadline_ms=0.001)
        session.register(
            "delays",
            {
                "grp": np.repeat(["a", "b"], 5000),
                "val": rng.uniform(0.0, 100.0, 10000),
            },
        )
        out = _query(session).run(seed=1)
        assert out.deadline_exceeded


class TestCancellation:
    def test_submit_cancel_mid_run_raises_query_cancelled(self):
        """Two groups with equal means never separate (with replacement,
        they never exhaust either), so the query runs until cancelled -
        cancellation is the only way this test can pass."""
        n = 4000
        session = repro.connect(delta=0.05, engine="memory")
        session.register(
            "forever",
            {
                "grp": np.repeat(["a", "b"], n),
                "val": np.concatenate(
                    [np.tile([0.0, 84.0], n // 2), np.full(n, 42.0)]
                ),
            },
        )
        with session:
            future = session.submit(
                _forever_query(session), seed=0, without_replacement=False
            )
            time.sleep(0.3)
            assert future.cancel()
            assert future.cancelled()
            # QueryCancelled when sampling had started (the cooperative
            # path); CancelledError if the pool had not picked it up yet.
            with pytest.raises((QueryCancelled, CancelledError)):
                future.result(timeout=60)

    def test_cancel_after_completion_returns_false(self):
        session = _separated_session()
        with session:
            future = session.submit(_query(session), seed=7)
            result = future.result(timeout=120)
            assert result.total_samples > 0
            assert future.done()
            assert not future.cancel()
            assert not future.cancelled()


def _forever_query(session: repro.Session):
    return session.table("forever").group_by("grp").agg(repro.avg("val"))


class TestScanRetry:
    def _chunked_session(self) -> repro.Session:
        rng = np.random.default_rng(3)
        session = repro.connect(delta=0.05, engine="memory")
        session.attach(
            "chunked",
            TableSource(
                {
                    "grp": np.repeat(["a", "b", "c"], 600),
                    "val": rng.uniform(0.0, 100.0, 1800),
                },
                name="chunked",
                chunk_rows=100,
            ),
        )
        return session

    def test_transient_scan_failure_is_retried_and_surfaced(self):
        session = self._chunked_session()
        plan = FaultPlan([Fault("fail_scan_chunk", at=1)])
        with inject(plan):
            out = (
                session.table("chunked").group_by("grp").agg(repro.avg("val"))
            ).run(seed=5)
        assert plan.fired() == [("fail_scan_chunk", None, 1)]
        assert any("retried" in c and "resilience" in c for c in out.caveats)
        assert out.total_samples > 0

    def test_fault_outliving_the_budget_escapes_as_transient(self):
        session = self._chunked_session()
        plan = FaultPlan([Fault("fail_scan_chunk", times=100)])
        with inject(plan):
            with pytest.raises(TransientError, match="injected fault"):
                (
                    session.table("chunked")
                    .group_by("grp")
                    .agg(repro.avg("val"))
                    .retries(1)
                ).run(seed=5)
