"""No-index querying (Problem 9, §6.3.6).

Without an index on the group-by attribute, the engine cannot sample a
*chosen* group - only a uniformly random tuple from the whole relation, which
then lands in whatever group it belongs to.  The per-group sample counts are
therefore proportional to group sizes rather than to need, so contentious
small groups starve; the paper notes this behaves like round-robin at best
(and strictly worse under skew), yet still beats a full scan.

The anytime Hoeffding intervals still apply per group (counts just arrive
unevenly), and the run stops when all pairwise intervals are disjoint or the
resolution kicks in - or, at the latest, once it has drawn as many tuples as
the table holds, when one scan answers exactly.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_nonnegative, check_probability, reusable_seed
from repro.core.confidence import EpsilonSchedule
from repro.core.intervals import separated_general
from repro.core.types import GroupOutcome, OrderingResult
from repro.engines.base import SamplingEngine
from repro.resilience.deadline import Deadline

__all__ = ["run_noindex"]


def run_noindex(
    engine: SamplingEngine,
    *,
    delta: float = 0.05,
    resolution: float = 0.0,
    seed: int | np.random.Generator | None = None,
    batch: int = 256,
    max_samples: int | None = None,
    deadline: Deadline | None = None,
) -> OrderingResult:
    """Order group averages using only whole-table uniform sampling.

    Args:
        engine: sampling engine (its per-group streams emulate "this uniform
            tuple happened to belong to group i").
        batch: tuples drawn between termination checks.
        max_samples: optional cap on total tuples; hitting it finalizes the
            remaining groups at their current estimates
            (``params["truncated"]`` is set).
        deadline: optional time budget / cancel token, polled once per
            batch; expiry finalizes at current estimates and sets
            ``params["deadline_exceeded"]``.

    No-index sampling pays only while it beats a scan (§6.3.6): once as many
    tuples as the table holds have been drawn, the run charges one full
    scan and finalizes every group at its exact mean with a zero-width
    interval (``params["scanned"]`` is set).
    """
    check_probability(delta, "delta")
    check_nonnegative(resolution, "resolution")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    # One pinned integer seeds both the engine's group streams and the
    # whole-table chooser, so a Generator or numpy-integer seed repeats too.
    seed = reusable_seed(seed)
    run = engine.open_run(seed, without_replacement=False)
    k = run.k
    sizes = run.sizes().astype(np.float64)
    weights = sizes / sizes.sum()
    schedule = EpsilonSchedule(k, delta, c=run.c)
    chooser = np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(0xF00D,))
    )

    sums = np.zeros(k)
    counts = np.zeros(k, dtype=np.int64)
    total = 0
    rows = int(sizes.sum())
    truncated = False
    scanned = False
    deadline_exceeded = False

    while True:
        gids = chooser.choice(k, size=batch, p=weights)
        for gid in range(k):
            hit = int((gids == gid).sum())
            if hit:
                block = run.draw(gid, hit)
                sums[gid] += float(block.sum())
                counts[gid] += hit
                run.charge(gid, hit)
        total += batch
        if np.all(counts >= 1):
            est = sums / counts
            widths = np.asarray(schedule(counts.astype(np.float64), None), dtype=np.float64)
            if resolution > 0.0 and float(widths.max()) < resolution / 4.0:
                break
            if separated_general(est, widths).all():
                break
        if total >= rows:
            scanned = True
            break
        if max_samples is not None and total >= max_samples:
            truncated = True
            break
        if deadline is not None and deadline.check():
            deadline_exceeded = True
            break

    if scanned:
        run.charge_scan()
        est = np.array([run.exact_mean(gid) for gid in range(k)])
        widths = np.zeros(k)
    else:
        est = sums / np.maximum(counts, 1)
        widths = np.asarray(
            schedule(np.maximum(counts, 1).astype(np.float64), None), dtype=np.float64
        )
    groups = [
        GroupOutcome(
            index=i,
            name=run.group_names()[i],
            estimate=float(est[i]),
            samples=int(counts[i]),
            half_width=float(widths[i]),
            exhausted=scanned,
            finalized_round=int(counts[i]),
        )
        for i in range(k)
    ]
    return OrderingResult(
        algorithm="noindex",
        estimates=est,
        samples_per_group=counts.copy(),
        rounds=total,
        groups=groups,
        inactive_order=list(np.argsort(counts, kind="stable")),
        trace=None,
        params={
            "delta": delta,
            "resolution": resolution,
            "truncated": truncated,
            "scanned": scanned,
            "deadline_exceeded": deadline_exceeded,
        },
        stats=run.stats,
    )
