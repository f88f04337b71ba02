"""Trend-lines and choropleths: neighbor-only ordering (Problem 3, §6.1.1).

When the x axis is ordinal (time) or spatial (regions of a map), only
comparisons between *adjacent* groups drive the visual impression, so a group
may stop sampling as soon as its interval is disjoint from its still-active
neighbors' intervals.  The effective difficulty per group improves from
eta_i = min over all j of |mu_i - mu_j| to
eta*_i = min(tau_{i-1,i}, tau_{i,i+1}).

For choropleths, adjacency generalizes to an arbitrary neighbor graph; pass
``neighbors`` as an adjacency list.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.reference import LoopContext, run_ifocus_reference
from repro.core.types import OrderingResult
from repro.engines.base import SamplingEngine

__all__ = ["run_ifocus_trends", "chain_neighbors", "grid_neighbors"]


def chain_neighbors(k: int) -> list[list[int]]:
    """Adjacency of an ordinal axis: group i borders i-1 and i+1."""
    return [[j for j in (i - 1, i + 1) if 0 <= j < k] for i in range(k)]


def grid_neighbors(rows: int, cols: int) -> list[list[int]]:
    """4-neighborhood adjacency of a rows x cols choropleth grid.

    Group index is row-major: region (r, c) is group r*cols + c.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    out: list[list[int]] = []
    for r in range(rows):
        for c in range(cols):
            adj = []
            if r > 0:
                adj.append((r - 1) * cols + c)
            if r < rows - 1:
                adj.append((r + 1) * cols + c)
            if c > 0:
                adj.append(r * cols + c - 1)
            if c < cols - 1:
                adj.append(r * cols + c + 1)
            out.append(adj)
    return out


def _neighbor_policy(neighbors: Sequence[Sequence[int]]):
    def policy(ctx: LoopContext) -> np.ndarray:
        out = np.zeros(ctx.k, dtype=bool)
        est, hw = ctx.estimates, ctx.half_widths
        for i in np.flatnonzero(ctx.active):
            i = int(i)
            clear = True
            for j in neighbors[i]:
                if ctx.active[j] and abs(est[i] - est[j]) <= hw[i] + hw[j]:
                    clear = False
                    break
            out[i] = clear
        return out

    return policy


def run_ifocus_trends(
    engine: SamplingEngine,
    *,
    delta: float = 0.05,
    resolution: float = 0.0,
    neighbors: Sequence[Sequence[int]] | None = None,
    **kwargs,
) -> OrderingResult:
    """IFOCUS with the neighbor-overlap active-set rule.

    Args:
        engine: sampling engine; group order is the x-axis order.
        neighbors: adjacency list; defaults to the ordinal chain
            (trend-line).  Pass :func:`grid_neighbors` output for a
            choropleth.
        Other keyword arguments are forwarded to the reference loop.

    Returns:
        An :class:`OrderingResult`; with probability >= 1 - delta all
        adjacent pairs (per the graph) are ordered correctly.
    """
    k = engine.k
    if neighbors is None:
        neighbors = chain_neighbors(k)
    if len(neighbors) != k:
        raise ValueError(f"neighbors must list all {k} groups, got {len(neighbors)}")
    for i, adj in enumerate(neighbors):
        for j in adj:
            if not 0 <= j < k:
                raise ValueError(f"neighbor {j} of group {i} out of range")
            if i not in neighbors[j]:
                raise ValueError(f"neighbor graph must be symmetric: {i} -> {j}")
    return run_ifocus_reference(
        engine,
        delta=delta,
        resolution=resolution,
        policy=_neighbor_policy(neighbors),
        algorithm_name="ifocus-trends",
        **kwargs,
    )
