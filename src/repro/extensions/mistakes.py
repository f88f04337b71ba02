"""Allowing mistakes (Problem 5, §6.1.3).

If the analyst tolerates incorrect ordering on a fraction of the pairwise
comparisons, the algorithm can skip the most contentious pairs: it tracks the
fraction of pairs whose relative order is committed (both endpoints inactive)
and terminates as soon as that fraction reaches the requested level, leaving
the still-active groups at their current estimates.
"""

from __future__ import annotations

from repro._util import check_probability
from repro.core.ifocus import LeaveRule, run_ifocus
from repro.core.types import OrderingResult
from repro.engines.base import SamplingEngine

__all__ = ["MistakesRule", "resolved_pair_fraction", "run_ifocus_mistakes"]


def resolved_pair_fraction(n_inactive: int, k: int) -> float:
    """Fraction of group pairs with both endpoints inactive: the pairs whose
    relative order the algorithm has committed to (Problem 5)."""
    return 1.0 if k < 2 else (n_inactive * (n_inactive - 1)) / (k * (k - 1))


class MistakesRule(LeaveRule):
    """Algorithm 1's rule, stopping once enough pairs are resolved; ``fired``
    and ``fraction`` record the last run's stop, if any."""

    algorithm = "ifocus-mistakes"

    def __init__(self, min_correct_fraction: float) -> None:
        self.min_correct_fraction = min_correct_fraction
        self.fired, self.fraction = False, 1.0

    def stop(self, n_inactive: int, k: int) -> bool:
        frac = resolved_pair_fraction(n_inactive, k)
        if self.min_correct_fraction >= 1.0 or frac < self.min_correct_fraction:
            return False
        self.fired, self.fraction = True, frac
        return True


def run_ifocus_mistakes(
    engine: SamplingEngine,
    *,
    min_correct_fraction: float = 0.9,
    delta: float = 0.05,
    resolution: float = 0.0,
    **kwargs,
) -> OrderingResult:
    """IFOCUS that stops once enough pairwise orderings are resolved.

    Args:
        min_correct_fraction: the gamma of Problem 5 - the fraction of pairs
            (i, j) that must be ordered correctly (with probability
            >= 1 - delta).  1.0 degenerates to plain IFOCUS.

    Returns:
        An :class:`OrderingResult`; ``params["resolved_pair_fraction"]``
        records the fraction actually resolved at termination.
    """
    if min_correct_fraction != 1.0:
        check_probability(min_correct_fraction, "min_correct_fraction")
    rule = MistakesRule(min_correct_fraction)
    result = run_ifocus(engine, delta=delta, resolution=resolution, rule=rule, **kwargs)
    result.params["min_correct_fraction"] = min_correct_fraction
    result.params["early_terminated"] = rule.fired
    result.params["resolved_pair_fraction"] = rule.fraction
    return result
