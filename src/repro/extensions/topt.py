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

from repro.core.reference import LoopContext, default_policy, run_ifocus_reference
from repro.core.types import OrderingResult
from repro.engines.base import SamplingEngine

__all__ = ["TopTResult", "run_ifocus_topt"]


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

    @property
    def top_estimates(self) -> np.ndarray:
        return self.result.estimates[self.top_indices]


def _topt_policy(t: int, largest: bool):
    def policy(ctx: LoopContext) -> np.ndarray:
        out = default_policy(ctx)  # fully separated groups may always leave
        est, hw = ctx.estimates, ctx.half_widths
        if largest:
            lower, upper = est - hw, est + hw
        else:
            # Mirror: "above" means better (smaller); negate values.
            lower, upper = -est - hw, -est + hw
        for i in np.flatnonzero(ctx.active & ~out):
            i = int(i)
            # Groups whose entire interval lies above i's upper bound.
            clearly_above = int(np.sum(np.delete(lower, i) > upper[i]))
            if clearly_above >= t:
                out[i] = True
        return out

    return policy


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
    """
    if not 1 <= t <= engine.k:
        raise ValueError(f"t must be in [1, {engine.k}], got {t}")
    result = run_ifocus_reference(
        engine,
        delta=delta,
        resolution=resolution,
        policy=_topt_policy(t, largest),
        algorithm_name="ifocus-topt",
        **kwargs,
    )
    return TopTResult(result=result, t=t, largest=largest)
