"""Multiple group-bys and multiple aggregates (§6.3.4, §6.3.5).

* :func:`composite_group_column` - GROUP BY X, Z becomes a single group-by
  on the cross-product key "x|z" (the two-dimensional visualization with a
  cross-product x axis the paper describes); the Session planner indexes it
  and runs the standard engine (``.group_by(X, Z)``).
* :func:`run_ifocus_multi_avg` - SELECT X, AVG(Y), AVG(Z): Problem 8's
  two-phase schedule.  Phase 1 runs IFOCUS on AVG(Y) with budget delta/2
  while *also* accumulating Z from every sampled row; phase 2 re-activates
  all groups and continues sampling until the AVG(Z) intervals separate,
  starting from the phase-1 counts - which is why the second phase is
  usually much cheaper than a fresh run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_probability, spawn_group_rngs
from repro.core.confidence import EpsilonSchedule
from repro.core.intervals import separated_general
from repro.core.types import GroupOutcome, OrderingResult
from repro.needletail.index import BitmapIndex
from repro.needletail.table import Table

__all__ = [
    "composite_group_column",
    "MultiAvgResult",
    "run_ifocus_multi_avg",
]


def composite_group_column(table: Table, columns: list[str], sep: str = "|") -> np.ndarray:
    """Cross-product key column for GROUP BY over several attributes."""
    if not columns:
        raise ValueError("need at least one group-by column")
    parts = [np.asarray(table.column(c)).astype(str) for c in columns]
    out = parts[0]
    for part in parts[1:]:
        out = np.char.add(np.char.add(out, sep), part)
    return out


@dataclass
class MultiAvgResult:
    """Result of the two-aggregate run: one OrderingResult per aggregate."""

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
    probability >= 1 - delta (each phase gets delta/2).  Every sampled row
    contributes to both aggregates, so phase 2 starts from the phase-1 sample
    counts instead of from scratch.
    """
    check_probability(delta, "delta")
    y_values = np.asarray(table.column(y_column), dtype=np.float64)
    z_values = np.asarray(table.column(z_column), dtype=np.float64)
    if c_y is None:
        c_y = max(float(y_values.max()), 1e-9)
    if c_z is None:
        c_z = max(float(z_values.max()), 1e-9)
    index = BitmapIndex(table, group_by)
    keys = [str(k) for k in index.keys]
    k = len(keys)
    sizes = np.array([index.count_for(key) for key in index.keys], dtype=np.int64)
    rngs = spawn_group_rngs(seed, k)
    perms = [rng.permutation(int(n)) for rng, n in zip(rngs, sizes)]

    sched_y = EpsilonSchedule(k, delta / 2.0, c=c_y)
    sched_z = EpsilonSchedule(k, delta / 2.0, c=c_z)

    counts = np.zeros(k, dtype=np.int64)
    sum_y = np.zeros(k)
    sum_z = np.zeros(k)
    samples = np.zeros(k, dtype=np.int64)

    def draw(gid: int) -> None:
        if counts[gid] >= sizes[gid]:
            raise RuntimeError(f"group {keys[gid]} exhausted")  # guarded by caller
        rank = perms[gid][counts[gid]]
        rowid = index.sample_rowids(index.keys[gid], np.array([rank]))[0]
        sum_y[gid] += y_values[rowid]
        sum_z[gid] += z_values[rowid]
        counts[gid] += 1
        samples[gid] += 1

    def run_phase(
        target_sums: np.ndarray, schedule: EpsilonSchedule
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
        """Sample active groups until their target-aggregate intervals separate."""
        active = np.ones(k, dtype=bool)
        exhausted = np.zeros(k, dtype=bool)
        half_widths = np.full(k, np.inf)
        finalized = np.zeros(k, dtype=np.int64)
        order: list[int] = []
        guard = 0
        while active.any():
            guard += 1
            if max_rounds is not None and guard > max_rounds:
                for gid in np.flatnonzero(active):
                    active[gid] = False
                    order.append(int(gid))
                break
            for gid in np.flatnonzero(active & (counts >= sizes)):
                active[gid] = False
                exhausted[gid] = True
                half_widths[gid] = 0.0
                finalized[gid] = int(counts[gid])
                order.append(int(gid))
            if not active.any():
                break
            idx = np.flatnonzero(active)
            n_max = float(sizes[idx].max())
            for gid in idx:
                draw(int(gid))
            half_widths[idx] = np.asarray(
                schedule(counts[idx].astype(np.float64), n_max)
            )
            est = target_sums / np.maximum(counts, 1)
            sep = separated_general(est[idx], half_widths[idx])
            for pos, gid in enumerate(idx):
                if sep[pos]:
                    active[gid] = False
                    finalized[gid] = int(counts[gid])
                    order.append(int(gid))
        est = target_sums / np.maximum(counts, 1)
        return est.copy(), half_widths, exhausted, order

    # Seed: one sample per group, then the two phases.
    for gid in range(k):
        draw(gid)
    est_y, hw_y, exh_y, order_y = run_phase(sum_y, sched_y)
    est_z, hw_z, exh_z, order_z = run_phase(sum_z, sched_z)
    # Phase 2 continued sampling, so refresh the Y estimates too (they only
    # get more accurate; ordering was already certified at phase-1 widths).
    est_y = sum_y / counts

    def build(est, hw, exh, order, name) -> OrderingResult:
        groups = [
            GroupOutcome(
                index=i,
                name=keys[i],
                estimate=float(est[i]),
                samples=int(counts[i]),
                half_width=float(hw[i]) if not exh[i] else 0.0,
                exhausted=bool(exh[i]),
                finalized_round=int(counts[i]),
            )
            for i in range(k)
        ]
        return OrderingResult(
            algorithm=name,
            estimates=np.asarray(est, dtype=np.float64),
            samples_per_group=counts.copy(),
            rounds=int(counts.max()),
            groups=groups,
            inactive_order=order,
            trace=None,
            params={"delta": delta / 2.0},
        )

    return MultiAvgResult(
        y=build(est_y, hw_y, exh_y, order_y, "ifocus-multi-avg-y"),
        z=build(est_z, hw_z, exh_z, order_z, "ifocus-multi-avg-z"),
        samples_per_group=samples.copy(),
    )
