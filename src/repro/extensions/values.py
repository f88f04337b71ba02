"""Approximate actual values (Problem 6, §6.2.1).

Besides the ordering guarantee, the analyst may want every displayed bar to
be within d of its true value.  The fix is a *minimum sampling* rule: no
group may leave the active set while its half-width exceeds d/2, so every
finalized estimate satisfies |nu_i - mu_i| <= d/2 <= d with probability
>= 1 - delta.  Sample complexity is that of IFOCUS with eta_i replaced by
min(eta_i, d/2).
"""

from __future__ import annotations

from repro._util import check_positive
from repro.core.ifocus import LeaveRule, run_ifocus
from repro.core.types import OrderingResult
from repro.engines.base import SamplingEngine

__all__ = ["ValuesRule", "run_ifocus_values"]


class ValuesRule(LeaveRule):
    """Algorithm 1's rule, counted only on rounds where eps < d/2."""

    algorithm = "ifocus-values"

    def __init__(self, d: float) -> None:
        self.d = check_positive(d, "d")

    def leave(self, est, eps, gids, inactive):
        return super().leave(est, eps, gids, inactive) & (eps < self.d / 2.0)[:, None]


def run_ifocus_values(
    engine: SamplingEngine,
    *,
    d: float,
    delta: float = 0.05,
    resolution: float = 0.0,
    **kwargs,
) -> OrderingResult:
    """IFOCUS with the value-accuracy guarantee |nu_i - mu_i| <= d.

    Args:
        d: maximum tolerated deviation of any displayed value (same units as
            the aggregated attribute).

    Returns:
        An :class:`OrderingResult` whose groups all finalized with
        half-width < d/2 (exhausted groups are exact).
    """
    result = run_ifocus(
        engine, delta=delta, resolution=resolution, rule=ValuesRule(d), **kwargs
    )
    result.params["d"] = d
    return result
