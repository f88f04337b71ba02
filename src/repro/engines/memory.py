"""The plain in-memory sampling engine.

This is the paper's idealized setting (Section 2.2): the relation is in main
memory with an index on the group-by attribute, so retrieving one random tuple
from any group costs the same regardless of group.  Runs count samples, which
is all the sample-complexity experiments (Fig. 3(a)/(c), Fig. 5-7) need; the
runtime experiments price those counts with :mod:`repro.experiments.costmodel`.

Fast path: runs opened over materialized populations sample through the
columnar permutation store of :mod:`repro.data.population`, so a batched
executor's ``draw_block`` is one fancy-index gather per batch regardless of
the number of groups; virtual populations with uniform-transform
distributions share one RNG call per batch.  See DESIGN_PERF.md.
"""

from __future__ import annotations

import numpy as np

from repro.data.population import Population
from repro.engines.base import SamplingEngine

__all__ = ["InMemoryEngine"]


class InMemoryEngine(SamplingEngine):
    """Sampling engine over an in-memory (or virtual) population."""

    @classmethod
    def from_arrays(
        cls,
        names: list[str],
        arrays: list[np.ndarray],
        c: float,
    ) -> "InMemoryEngine":
        """Convenience constructor from parallel name/value-array lists."""
        return cls(Population.from_arrays(names, arrays, c))
