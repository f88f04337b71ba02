"""Multiple group-bys and multiple aggregates (§6.3.4, §6.3.5).

* :func:`composite_group_column` - GROUP BY X, Z becomes a single group-by
  on the cross-product key "x|z" (the two-dimensional visualization with a
  cross-product x axis the paper describes); the catalog's population scan
  joins it, so ``.group_by(X, Z)`` runs the standard engine.
* :func:`run_ifocus_multi_avg` - SELECT X, AVG(Y), AVG(Z) (Problem 8): one
  ordinary IFOCUS run per aggregate at delta/2, so both orderings hold with
  probability >= 1 - delta by the union bound.  The two engines read every
  group as a prefix of the same seeded permutation, so each sampled row
  serves both aggregates and the rows read are the per-group maximum of the
  two runs' counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_probability, reusable_seed
from repro.core.ifocus import run_ifocus
from repro.core.types import OrderingResult
from repro.data.population import composite_group_column
from repro.needletail.engine import NeedletailEngine
from repro.needletail.table import Table

__all__ = [
    "composite_group_column",
    "MultiAvgResult",
    "run_ifocus_multi_avg",
]


@dataclass
class MultiAvgResult:
    """Result of the two-aggregate run: one OrderingResult per aggregate.

    ``samples_per_group`` is the per-group maximum of the two runs' counts:
    the rows actually read, each serving both aggregates.
    """

    y: OrderingResult
    z: OrderingResult
    samples_per_group: np.ndarray

    @property
    def total_samples(self) -> int:
        return int(self.samples_per_group.sum())


def run_ifocus_multi_avg(
    table: Table,
    group_by: str,
    y_column: str,
    z_column: str,
    *,
    delta: float = 0.05,
    c_y: float | None = None,
    c_z: float | None = None,
    seed: int | np.random.Generator | None = None,
    max_rounds: int | None = None,
) -> MultiAvgResult:
    """SELECT X, AVG(Y), AVG(Z) ... GROUP BY X (Problem 8).

    Both orderings (by AVG(Y) and by AVG(Z)) are correct simultaneously with
    probability >= 1 - delta: each aggregate is an IFOCUS run at delta/2 over
    a :class:`~repro.needletail.engine.NeedletailEngine`, with the same seed,
    so each result is bit-identical to the single-AVG query at delta/2.
    """
    check_probability(delta, "delta")
    seed = reusable_seed(seed)
    y, z = (
        run_ifocus(
            NeedletailEngine(table, group_by, column, c=c),
            delta=delta / 2.0,
            seed=seed,
            max_rounds=max_rounds,
        )
        for column, c in ((y_column, c_y), (z_column, c_z))
    )
    return MultiAvgResult(
        y=y,
        z=z,
        samples_per_group=np.maximum(y.samples_per_group, z.samples_per_group),
    )
