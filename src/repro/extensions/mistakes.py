"""Allowing mistakes (Problem 5, §6.1.3).

If the analyst tolerates incorrect ordering on a fraction of the pairwise
comparisons, the algorithm can skip the most contentious pairs: it tracks the
fraction of pairs whose relative order is committed (both endpoints inactive)
and terminates as soon as that fraction reaches the requested level, leaving
the still-active groups at their current estimates.
"""

from __future__ import annotations

from repro._util import check_probability
from repro.core.reference import LoopContext, run_ifocus_reference
from repro.core.types import OrderingResult
from repro.engines.base import SamplingEngine

__all__ = ["run_ifocus_mistakes"]


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

    observed = {"fraction": 1.0, "fired": False}

    def terminate(ctx: LoopContext) -> bool:
        frac = ctx.resolved_pair_fraction()
        if frac >= min_correct_fraction:
            observed["fraction"] = frac
            observed["fired"] = True
            return True
        return False

    result = run_ifocus_reference(
        engine,
        delta=delta,
        resolution=resolution,
        terminate_when=terminate if min_correct_fraction < 1.0 else None,
        algorithm_name="ifocus-mistakes",
        **kwargs,
    )
    result.params["min_correct_fraction"] = min_correct_fraction
    result.params["early_terminated"] = observed["fired"]
    result.params["resolved_pair_fraction"] = observed["fraction"]
    return result
