"""ROUNDROBIN - the conventional stratified-sampling baseline (Section 5.1).

Round-robin stratified sampling is what online aggregation systems use: one
extra sample from *every* group per round.  The paper's baseline adds the
same termination test IFOCUS uses, so it carries the identical 1 - delta
ordering guarantee - it just keeps sampling groups whose intervals are
already separated, which is exactly the work IFOCUS avoids.

ROUNDROBIN-R (``resolution`` > 0) additionally stops once eps < r/4, matching
IFOCUS-R's relaxation.

ROUNDROBIN is IFOCUS without focusing, so it is a :class:`RoundRobinRule`
on the one IFOCUS executor (and on the :mod:`repro.core.reference` oracle):
no live group leaves until every live interval is disjoint from every other
and clears every exhausted group's exact mean, and then all of them leave.
Groups sampled to exhaustion (m = n_i under without-replacement sampling)
still leave on their own, frozen at their exact mean, as under IFOCUS.
"""

from __future__ import annotations

import numpy as np

from repro.core.ifocus import LeaveRule, run_ifocus
from repro.core.intervals import _obstacle_clearance
from repro.core.types import OrderingResult
from repro.engines.base import SamplingEngine
from repro.resilience.deadline import Deadline

__all__ = ["RoundRobinRule", "run_roundrobin"]


class RoundRobinRule(LeaveRule):
    """All live groups leave together, at the first row where every live
    interval is disjoint from every other one and clears every inactive
    group's estimate.

    The obstacle test belongs inside this all-or-nothing verdict: the
    executors AND their own one per column, which would let the clear groups
    leave alone.  Until the rule fires only exhausted groups are inactive,
    so ``inactive.estimates`` are exactly the frozen exact means.
    """

    def __init__(self, resolution: float = 0.0) -> None:
        self.algorithm = "roundrobinr" if resolution > 0 else "roundrobin"

    def leave(self, est, eps, gids, inactive):
        # Only the sorted values matter for "is every interval separated".
        srt = np.sort(est, axis=1)
        ok = np.all(np.diff(srt, axis=1) > 2.0 * eps[:, None], axis=1)
        if inactive.estimates.size:
            clearance = _obstacle_clearance(srt, np.sort(inactive.estimates))
            ok &= np.all(clearance > eps[:, None], axis=1)
        return np.repeat(ok[:, None], est.shape[1], axis=1)


def run_roundrobin(
    engine: SamplingEngine,
    *,
    delta: float = 0.05,
    resolution: float = 0.0,
    kappa: float = 1.0,
    heuristic_factor: float = 1.0,
    without_replacement: bool = True,
    seed: int | np.random.Generator | None = None,
    trace_every: int = 0,
    initial_batch: int = 64,
    max_batch: int = 1 << 18,
    max_rounds: int | None = None,
    deadline: Deadline | None = None,
) -> OrderingResult:
    """Run ROUNDROBIN (or ROUNDROBIN-R when ``resolution`` > 0).

    Parameters mirror :func:`repro.core.ifocus.run_ifocus`.
    """
    return run_ifocus(
        engine,
        delta=delta,
        resolution=resolution,
        kappa=kappa,
        heuristic_factor=heuristic_factor,
        without_replacement=without_replacement,
        seed=seed,
        trace_every=trace_every,
        initial_batch=initial_batch,
        max_batch=max_batch,
        max_rounds=max_rounds,
        deadline=deadline,
        rule=RoundRobinRule(resolution),
    )
