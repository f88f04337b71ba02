"""Top-t results (Problem 4, §6.1.2).

With many groups the analyst only inspects the t largest (or smallest), so a
group may stop sampling as soon as either

* it is clearly *outside* the top t: at least t other groups' interval lower
  bounds lie entirely above its upper bound (its exact position among the
  losers is irrelevant), or
* it is separated from every other active group (the plain IFOCUS rule,
  which settles its position among the potential top-t).

With probability >= 1 - delta the reported t groups are the true top t and
are correctly ordered among themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ifocus import LeaveRule, run_ifocus
from repro.core.types import OrderingResult
from repro.engines.base import SamplingEngine

__all__ = ["TopRule", "TopTResult", "run_ifocus_topt"]


@dataclass
class TopTResult:
    """Result wrapper: the full OrderingResult plus the reported top-t."""

    result: OrderingResult
    t: int
    largest: bool

    @property
    def top_indices(self) -> np.ndarray:
        """Group indices of the reported top-t, best first."""
        sign = -1.0 if self.largest else 1.0
        return np.argsort(sign * self.result.estimates, kind="stable")[: self.t]

    @property
    def top_names(self) -> list[str]:
        return [self.result.groups[int(i)].name for i in self.top_indices]


class TopRule(LeaveRule):
    """Leave when separated, or when clearly outside the top t.

    Group i is clearly outside when its upper bound lies below the t-th
    largest lower bound over all groups - the live ones at this round and
    the frozen intervals of the inactive ones.  Its own lower bound never
    exceeds its own upper bound, so it never counts itself.  ``largest=False``
    mirrors the test by negating every value.
    """

    algorithm = "ifocus-topt"

    def __init__(self, t: int, largest: bool = True) -> None:
        self.t, self.largest = int(t), bool(largest)

    def leave(self, est, eps, gids, inactive):
        live, frozen = (est, inactive.estimates) if self.largest else (-est, -inactive.estimates)
        w = eps[:, None]
        frozen_lower = np.broadcast_to(frozen - inactive.half_widths, (est.shape[0], frozen.size))
        lower = np.concatenate([live - w, frozen_lower], axis=1)
        kth = lower.shape[1] - self.t
        outside = (live + w) < np.partition(lower, kth, axis=1)[:, kth, None]
        return super().leave(est, eps, gids, inactive) | outside


def run_ifocus_topt(
    engine: SamplingEngine,
    t: int,
    *,
    delta: float = 0.05,
    resolution: float = 0.0,
    largest: bool = True,
    **kwargs,
) -> TopTResult:
    """IFOCUS specialized to the top-t property.

    Args:
        engine: sampling engine.
        t: how many top groups must be identified and internally ordered.
        largest: report the largest-t (True) or smallest-t (False) groups.
        Other keyword arguments are forwarded to
        :func:`~repro.core.ifocus.run_ifocus`.
    """
    if not 1 <= t <= engine.k:
        raise ValueError(f"t must be in [1, {engine.k}], got {t}")
    result = run_ifocus(
        engine,
        delta=delta,
        resolution=resolution,
        rule=TopRule(t, largest),
        **kwargs,
    )
    return TopTResult(result=result, t=t, largest=largest)
