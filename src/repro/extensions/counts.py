"""COUNT aggregation (§6.3.2).

With bitmap indexes the per-group row counts are index metadata, so COUNT is
answered *exactly* with zero samples (:func:`run_count_known`).  Without that
metadata (but with the total row count known), COUNT reduces to estimating
the fractional sizes s_i in [0, 1]: each uniformly random tuple is a
Bernoulli(s_i) indicator for group i, and the plain IFOCUS machinery applies
with c = 1 (:func:`run_count_unknown`).
"""

from __future__ import annotations

import numpy as np

from repro.core.ifocus import run_ifocus
from repro.core.types import GroupOutcome, OrderingResult
from repro.data.distributions import TwoPoint
from repro.data.population import Population, VirtualGroup
from repro.engines.base import SamplingEngine
from repro.engines.memory import InMemoryEngine
from repro.extensions.sums import _rescaled

__all__ = ["run_count_known", "run_count_unknown"]


def run_count_known(engine: SamplingEngine) -> OrderingResult:
    """Exact COUNT per group from index metadata (no sampling)."""
    sizes = engine.population.sizes()
    names = engine.population.group_names
    groups = [
        GroupOutcome(
            index=i,
            name=names[i],
            estimate=float(sizes[i]),
            samples=0,
            half_width=0.0,
            exhausted=True,
            finalized_round=0,
        )
        for i in range(engine.k)
    ]
    return OrderingResult(
        algorithm="count-known",
        estimates=sizes.astype(np.float64),
        samples_per_group=np.zeros(engine.k, dtype=np.int64),
        rounds=0,
        groups=groups,
        inactive_order=list(range(engine.k)),
        trace=None,
        params={"exact": True},
    )


def run_count_unknown(
    engine: SamplingEngine,
    *,
    delta: float = 0.05,
    resolution_fraction: float = 0.0,
    seed: int | np.random.Generator | None = None,
    max_rounds: int | None = None,
) -> OrderingResult:
    """Estimate per-group COUNTs by sampling group-membership indicators.

    Each "sample" for group i is the indicator of a uniformly random tuple
    belonging to S_i (a Bernoulli(s_i) draw in [0, 1]); IFOCUS orders the
    indicator means - and hence the counts - with probability >= 1 - delta.
    ``resolution_fraction`` is the Problem-2 resolution on the [0, 1]
    fraction scale.  Returned estimates and half-widths are scaled back to
    counts (x N, the shared sum-units helper of :mod:`repro.extensions.sums`).
    """
    sizes = engine.population.sizes().astype(np.float64)
    total = float(sizes.sum())
    fractions = sizes / total
    indicator_pop = Population(
        groups=[
            VirtualGroup(name, TwoPoint(float(p), 0.0, 1.0), int(total))
            for name, p in zip(engine.population.group_names, fractions)
        ],
        c=1.0,
        name=f"{engine.population.name}-indicators",
    )
    indicator_engine = InMemoryEngine(indicator_pop)
    result = run_ifocus(
        indicator_engine,
        delta=delta,
        resolution=resolution_fraction,
        without_replacement=False,  # indicator draws are i.i.d.
        seed=seed,
        max_rounds=max_rounds,
    )
    return _rescaled(result, total, "count-unknown", total_rows=total)
