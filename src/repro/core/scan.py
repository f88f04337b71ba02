"""SCAN - the exact full-scan baseline (Section 5.1).

SCAN sequentially reads every record, maintaining per-group running sums in a
hash map, and returns exact group means.  It is what a conventional system
(e.g. PostgreSQL) does for the visualization query, and it anchors the
runtime comparisons of Fig. 4 and the paper's headline 1000x claim.  A run
counts its scanned rows; the experiments price them linearly - bytes/bandwidth
of sequential I/O plus one hash probe + update per record of CPU (the paper
measures ~800 MB/s and ~10M probes/s; see :mod:`repro.experiments.costmodel`).
"""

from __future__ import annotations

from repro.core.types import GroupOutcome, OrderingResult
from repro.engines.base import SamplingEngine

__all__ = ["run_scan"]


def run_scan(engine: SamplingEngine, **_ignored) -> OrderingResult:
    """Compute exact group means by scanning the entire dataset.

    Extra keyword arguments (delta, seed, ...) are accepted and ignored so
    SCAN is call-compatible with the sampling algorithms in the registry.
    """
    means, stats = engine.scan_means()
    sizes = engine.population.sizes()
    names = engine.population.group_names
    groups = [
        GroupOutcome(
            index=i,
            name=names[i],
            estimate=float(means[i]),
            samples=int(sizes[i]),
            half_width=0.0,
            exhausted=True,
            finalized_round=int(sizes[i]),
        )
        for i in range(engine.k)
    ]
    return OrderingResult(
        algorithm="scan",
        estimates=means.copy(),
        samples_per_group=sizes.copy(),
        rounds=int(sizes.max()),
        groups=groups,
        inactive_order=list(range(engine.k)),
        trace=None,
        params={"exact": True},
        stats=stats,
    )
