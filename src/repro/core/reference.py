"""Reference (one-sample-at-a-time) IFOCUS loop - an oracle, not an executor.

This is the literal transcription of Algorithm 1: a Python loop over rounds,
one draw per active group per round.  No public door runs it; it exists for
two reasons:

1. **Ground truth** - the batched executor in :mod:`repro.core.ifocus` must
   produce exactly the same estimates, removal rounds and sample counts; the
   test suite asserts this on randomized instances for :func:`default_policy`
   (the pairwise Algorithm 1 rule, independent of the executor's sorted
   adjacent-gap scan), for every Section 6 ``LeaveRule`` (SUM's
   ``SumRule`` included) and for the Section 5.1 ROUNDROBIN baseline
   (``RoundRobinRule``: all live groups leave together), each evaluated
   here on one round at a time.  Like the executor, it reads a rule's
   ``scale`` in its two own comparisons: the exhausted-value obstacle test
   and the resolution cap.
2. **Alternative (b)** - Section 3.1 discusses letting inactive groups
   re-activate when another estimate drifts into them; that variant
   (``reactivation=True``) loses the optimality guarantee and exists here for
   the ablation benchmark (:mod:`repro.experiments.ablations`).

Unlike the batched executor, this loop maintains *per-group* round counts and
half-widths, which is what reactivation needs; in the default configuration
every active group has the same count, so the two implementations coincide.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_nonnegative, check_probability
from repro.core.confidence import EpsilonSchedule
from repro.core.ifocus import Inactive, LeaveRule, _lone_group_leaves
from repro.core.intervals import separated_general
from repro.core.types import GroupOutcome, OrderingResult, RoundSnapshot, Trace
from repro.engines.base import SamplingEngine

__all__ = ["default_policy", "run_ifocus_reference"]


def default_policy(estimates: np.ndarray, half_widths: np.ndarray, active: np.ndarray):
    """Algorithm 1's rule: an active group may leave the active set iff its
    interval is disjoint from every *other active* group's interval."""
    out = np.zeros(estimates.shape[0], dtype=bool)
    idx = np.flatnonzero(active)
    if idx.size:
        out[idx] = separated_general(estimates[idx], half_widths[idx])
    return out


def run_ifocus_reference(
    engine: SamplingEngine,
    *,
    delta: float = 0.05,
    resolution: float = 0.0,
    kappa: float = 1.0,
    heuristic_factor: float = 1.0,
    without_replacement: bool = True,
    seed: int | np.random.Generator | None = None,
    trace_every: int = 0,
    max_rounds: int | None = None,
    reactivation: bool = False,
    rule: LeaveRule | None = None,
) -> OrderingResult:
    """Run the reference IFOCUS loop.

    See :func:`repro.core.ifocus.run_ifocus` for the shared parameters.

    Args:
        reactivation: alternative (b) of Section 3.1 - inactive,
            non-exhausted groups whose frozen interval overlaps an active
            interval re-enter the active set (``rule=None`` only).
        rule: a :class:`~repro.core.ifocus.LeaveRule` replacing
            :func:`default_policy`: ``leave`` on each round's active
            estimates (one row), ``stop`` once per round after removals;
            its ``scale`` sets the units of the obstacle test and the
            resolution cap.
    """
    check_probability(delta, "delta")
    check_nonnegative(resolution, "resolution")
    if reactivation and rule is not None:
        raise ValueError("reactivation runs Algorithm 1's rule only (rule=None)")
    run = engine.open_run(seed, without_replacement=without_replacement)
    k = run.k
    sizes = run.sizes()
    # The units of the obstacle test and the resolution cap (LeaveRule.scale).
    scale = np.ones(k) if rule is None or rule.scale is None else rule.scale
    schedule = EpsilonSchedule(k, delta, c=run.c, kappa=kappa, heuristic_factor=heuristic_factor)

    sums = np.zeros(k, dtype=np.float64)
    counts = np.zeros(k, dtype=np.int64)
    estimates = np.zeros(k, dtype=np.float64)
    half_widths = np.full(k, np.inf)
    active = np.ones(k, dtype=bool)
    exhausted = np.zeros(k, dtype=bool)
    finalized_round = np.zeros(k, dtype=np.int64)
    inactive_order: list[int] = []
    trace = Trace(every=trace_every) if trace_every > 0 else None
    names = run.group_names()

    def current_n_max() -> float | None:
        if not without_replacement:
            return None
        idx = np.flatnonzero(active)
        if idx.size == 0:
            return None
        return float(sizes[idx].max())

    def finalize(gid: int, width: float, round_m: int, is_exhausted: bool) -> None:
        active[gid] = False
        half_widths[gid] = width
        finalized_round[gid] = round_m
        exhausted[gid] = is_exhausted
        inactive_order.append(gid)
        if is_exhausted:
            estimates[gid] = run.exact_mean(gid)

    def finalize_active() -> None:
        for gid in np.flatnonzero(active):
            finalize(int(gid), float(half_widths[gid]), m, False)

    # Round 1: one sample per group.
    for gid in range(k):
        value = float(run.draw(gid, 1)[0])
        sums[gid] = value
        estimates[gid] = value
        counts[gid] = 1
        run.charge(gid, 1)
    m = 1
    n_max = current_n_max()
    half_widths[:] = float(schedule(1.0, n_max))
    if trace is not None:
        trace.append(
            RoundSnapshot(
                round_index=1,
                cumulative_samples=int(counts.sum()),
                active=tuple(range(k)),
                estimates=estimates.copy(),
                epsilon=float(half_widths[0]),
            )
        )

    # A lone group may leave after round 1 (as in the executor); a one-row
    # group is left to the loop's exhaustion check instead.
    if k == 1 and not (without_replacement and sizes[0] <= 1):
        if _lone_group_leaves(rule, estimates, float(half_widths[0])):
            finalize(0, float(half_widths[0]), 1, False)

    truncated = False
    while active.any():
        if max_rounds is not None and m >= max_rounds:
            truncated = True
            finalize_active()
            break

        # Exhaustion: a fully-read group is finalized at its exact mean.
        if without_replacement:
            for gid in np.flatnonzero(active & (sizes <= counts)):
                finalize(int(gid), 0.0, m, True)
            if not active.any():
                break

        m += 1
        n_max = current_n_max()
        for gid in np.flatnonzero(active):
            value = float(run.draw(int(gid), 1)[0])
            sums[gid] += value
            counts[gid] += 1
            estimates[gid] = sums[gid] / counts[gid]
            half_widths[gid] = float(schedule(float(counts[gid]), n_max))
            run.charge(int(gid), 1)

        if reactivation:
            idx_active = np.flatnonzero(active)
            if idx_active.size:
                for gid in np.flatnonzero(~active & ~exhausted):
                    lo = estimates[gid] - half_widths[gid]
                    hi = estimates[gid] + half_widths[gid]
                    a_lo = estimates[idx_active] - half_widths[idx_active]
                    a_hi = estimates[idx_active] + half_widths[idx_active]
                    if np.any((lo <= a_hi) & (a_lo <= hi)):
                        active[gid] = True
                        inactive_order.remove(int(gid))

        active_eps = half_widths[active] * scale[active]
        # Resolution relaxation (Problem 2): stop once eps < r/4.
        if resolution > 0.0 and active_eps.size and float(active_eps.max()) < resolution / 4.0:
            finalize_active()
            _trace_round(trace, m, counts, active, estimates, half_widths)
            break

        if rule is None:
            may_leave = default_policy(estimates, half_widths, active)
        else:
            # Every active group has the same count, hence one half-width.
            idx = np.flatnonzero(active)
            inactive = Inactive(estimates[~active], half_widths[~active])
            may_leave = np.zeros(k, dtype=bool)
            may_leave[idx] = rule.leave(
                estimates[idx][None, :], half_widths[idx[:1]], idx, inactive
            )[0]
        # Exhausted groups are zero-width obstacles: a group may not leave
        # while its interval still covers a frozen exact value, both in the
        # rule's units (mirrors the batched executor; keeps ordering sound vs
        # fully-read groups).
        frozen = estimates[exhausted] * scale[exhausted]
        if frozen.size:
            for gid in np.flatnonzero(may_leave):
                reach = half_widths[gid] * scale[gid]
                if np.any(np.abs(estimates[gid] * scale[gid] - frozen) <= reach):
                    may_leave[gid] = False
        for gid in np.flatnonzero(may_leave):
            finalize(int(gid), float(half_widths[gid]), m, False)

        _trace_round(trace, m, counts, active, estimates, half_widths)

        if rule is not None and rule.stop(len(inactive_order), k):
            finalize_active()
            break

    groups = [
        GroupOutcome(
            index=i,
            name=names[i],
            estimate=float(estimates[i]),
            samples=int(counts[i]),
            half_width=float(half_widths[i]) if not exhausted[i] else 0.0,
            exhausted=bool(exhausted[i]),
            finalized_round=int(finalized_round[i]),
        )
        for i in range(k)
    ]
    if rule is not None:
        label = rule.algorithm
    else:
        label = "ifocusr" if resolution > 0 else "ifocus"
    return OrderingResult(
        algorithm=f"{label}-reference",
        estimates=estimates.copy(),
        samples_per_group=counts.copy(),
        rounds=m,
        groups=groups,
        inactive_order=inactive_order,
        trace=trace,
        params={
            "delta": delta,
            "resolution": resolution,
            "kappa": kappa,
            "heuristic_factor": heuristic_factor,
            "without_replacement": without_replacement,
            "c": run.c,
            "truncated": truncated,
            "reactivation": reactivation,
        },
        stats=run.stats,
    )


def _trace_round(
    trace: Trace | None,
    m: int,
    counts: np.ndarray,
    active: np.ndarray,
    estimates: np.ndarray,
    half_widths: np.ndarray,
) -> None:
    if trace is None or m % trace.every != 0:
        return
    idx = np.flatnonzero(active)
    eps = float(half_widths[idx].max()) if idx.size else 0.0
    trace.append(
        RoundSnapshot(
            round_index=m,
            cumulative_samples=int(counts.sum()),
            active=tuple(int(g) for g in idx),
            estimates=estimates.copy(),
            epsilon=eps,
        )
    )
