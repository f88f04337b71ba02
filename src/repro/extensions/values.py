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
from repro.core.reference import run_ifocus_reference
from repro.core.types import OrderingResult
from repro.engines.base import SamplingEngine

__all__ = ["run_ifocus_values"]


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
    check_positive(d, "d")
    result = run_ifocus_reference(
        engine,
        delta=delta,
        resolution=resolution,
        min_half_width=d / 2.0,
        algorithm_name="ifocus-values",
        **kwargs,
    )
    result.params["d"] = d
    return result
