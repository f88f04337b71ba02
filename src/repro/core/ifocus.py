"""IFOCUS (Algorithm 1) - the paper's core contribution.

IFOCUS maintains, for every group, an anytime confidence interval
[nu_i - eps_m, nu_i + eps_m] around the running mean of the samples drawn so
far.  Each round it draws one extra sample from every *active* group (a group
whose interval still intersects another active group's interval) and removes
groups whose intervals have become disjoint from all other active intervals.
With the Hoeffding-Serfling epsilon schedule of Theorem 3.2 the returned
estimates are ordered like the true means with probability >= 1 - delta, at
near-optimal sample cost (Theorems 3.5/3.6/3.8).

This module contains the *production* executor, the only one behind every
public IFOCUS door: it is batched over rounds and fully vectorized with numpy,
yet produces exactly the same samples, removal rounds, and estimates as the
one-sample-at-a-time oracle in :mod:`repro.core.reference` (the equivalence
is asserted in the test suite).  Exactness comes from two facts:

* every group has its own independent random stream (see
  :func:`repro._util.spawn_group_rngs`), so pre-drawing a block for a group
  and discarding an unused suffix never perturbs any other group's draws.
  Bit-exact equivalence additionally requires the group sampler to be
  *stream-stable* (drawing a block of B samples consumes the stream exactly
  like B single draws) - true for materialized groups (the without-
  replacement permutation trivially so); distribution-backed virtual groups
  use rejection sampling internally and match the reference loop in
  distribution rather than bit-for-bit;
* within one batch the running means after every round are recoverable from a
  cumulative sum, and with a shared per-round epsilon the "is this interval
  disjoint from all others" test reduces to an exact sorted adjacent-gap test
  (:func:`repro.core.intervals.separated_equal_width_batch`).

Per batch the executor draws one ``(batch, k_active)`` block
(:meth:`~repro.engines.base.EngineRun.draw_block`, bit-exact with per-group
draws), charges survivors with one ``charge_block`` call, and walks the batch
incrementally with galloping windows; DESIGN_PERF.md ("The fused draw API",
"Incremental batch walking") has the details.

Supported configuration (all of Section 3 and 5 of the paper):

* ``resolution`` r > 0 - the IFOCUS-R variant for Problem 2: terminate every
  remaining group once eps_m < r/4 (Section 3.6, "Visual Resolution").
* ``without_replacement`` - Hoeffding-Serfling epsilon with the
  finite-population factor, plus exhaustion (a group sampled m = n_i times is
  finalized at its exact mean); with replacement drops the factor and needs
  no group sizes (Section 3.6, "Sampling with Replacement").
* ``heuristic_factor`` h - divides epsilon by h to emulate the (unsound)
  aggressive shrinking studied in Fig. 5(a)/(b).
* ``trace_every`` - record strided per-round snapshots for the convergence
  experiments (Fig. 5(c), Fig. 6(a)) and the Table 1 execution trace.

Partial results, the Section 6 variants and the ROUNDROBIN baseline change
only *when a group may leave the active set* or *when the loop stops*, so
they are two hooks on this one loop: ``on_finalize`` (Problem 7's
partial-results stream) and a :class:`LeaveRule` (top-t, trends, values,
mistakes and SUM's Algorithm 4 live in :mod:`repro.extensions`; ROUNDROBIN,
under which every live group leaves at once when all intervals are
disjoint, in :mod:`repro.core.roundrobin`).

Groups removed from the active set are never re-activated (alternative (a) in
Section 3.1, the optimality-preserving choice; alternative (b) is available in
the reference implementation for the ablation benchmark).

One deliberate strengthening beyond the paper's pseudocode: a group sampled
to exhaustion freezes at its *exact* mean, and that frozen value remains an
obstacle - no active group may leave the active set while its interval still
covers a frozen exact mean (under a rule with a ``scale``, SUM's sizes n_i:
while n_i * (nu_i +- eps_m) covers a frozen exact sum).  Algorithm 1 never
considers exhaustion; without
this rule a group could finalize on the wrong side of a fully-read
neighbor's exact average, silently breaking strict ordering on hard
instances (this is why the paper's real-data runs read *both* sides of every
conflicting pair in full).

And one shortcut: a lone group (k = 1) has nothing to be ordered against,
so it leaves after its first sample, where the literal loop tests only
after a second round - unless its rule wants more (a values-mode width).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro._util import check_nonnegative, check_probability
from repro.core.confidence import EpsilonSchedule
from repro.core.intervals import (
    _obstacle_clearance,
    first_event_row,
    first_resolution_row,
    separated_equal_width_batch,
)
from repro.core.types import GroupOutcome, OrderingResult, RoundSnapshot, Trace
from repro.engines.base import EngineRun, SamplingEngine
from repro.resilience.deadline import Deadline

__all__ = ["Inactive", "LeaveRule", "run_ifocus"]

_DEFAULT_INITIAL_BATCH = 64
_DEFAULT_MAX_BATCH = 1 << 18


class Inactive(NamedTuple):
    """The groups that left the active set: their frozen estimates and
    half-widths (an exhausted group: its exact mean, width 0)."""

    estimates: np.ndarray
    half_widths: np.ndarray


class LeaveRule:
    """When a live group may leave the active set, and when the run stops.

    The base class is Algorithm 1's rule; the Section 6 variants and
    ROUNDROBIN subclass it and set ``algorithm``, the result's label.
    :func:`run_ifocus` evaluates :meth:`leave` on galloping windows of
    pre-drawn rounds, the reference loop on one round at a time - one
    object, so the two cannot drift apart.  Both executors AND the result
    with the exhausted-mean obstacle test.

    ``scale`` is the unit the rule orders in: ``None`` for means, or a
    per-group factor (SUM's group sizes n_i, Algorithm 4) so that group i's
    interval is scale_i * (nu_i +- eps_m).  The executors read it in the only
    two places they compare values themselves - the exhausted-value obstacle
    test and the resolution cap (stop once the largest live scale_i * eps_m
    is below r/4) - and :meth:`leave` applies it to its own test.
    """

    algorithm = "ifocus"
    scale: np.ndarray | None = None

    def leave(self, est, eps, gids, inactive: Inactive) -> np.ndarray:
        """(W, L) mask: which live groups may leave at each row of a window of
        their running means ``est`` (live gids ascending, one row per round,
        shared half-width ``eps`` per round).  Default: disjoint from every
        other live interval."""
        return separated_equal_width_batch(est, eps)

    def stop(self, n_inactive: int, k: int) -> bool:
        """Stop the run (live groups finalize where they are)?  Evaluated
        after each round's removals; depends on the inactive count only."""
        return False


def _lone_group_leaves(rule: LeaveRule | None, estimates: np.ndarray, eps: float) -> bool:
    """k = 1: may the lone group leave after its first sample?

    It has no other interval to be separated from, so Algorithm 1's rule
    lets it go at once - where the literal loop would draw a second round
    before its first test.  A rule may still ask for more samples
    (:class:`~repro.extensions.values.ValuesRule`'s interval width).  Both
    executors ask this once, after round 1.
    """
    none = np.empty(0)
    gids = np.zeros(1, dtype=np.int64)
    ok = (rule or LeaveRule()).leave(
        estimates[None, :1], np.array([eps]), gids, Inactive(none, none)
    )
    return bool(ok[0, 0])


class _IFocusState:
    """Mutable per-run state for the batched executor."""

    def __init__(self, run: EngineRun, trace_every: int, on_finalize=None) -> None:
        k = run.k
        self.run = run
        self.k = k
        self.names = run.group_names()
        self.on_finalize = on_finalize
        self.sizes = run.sizes()
        self.sums = np.zeros(k, dtype=np.float64)
        self.estimates = np.zeros(k, dtype=np.float64)
        self.samples = np.zeros(k, dtype=np.int64)
        self.half_widths = np.zeros(k, dtype=np.float64)
        self.finalized_round = np.zeros(k, dtype=np.int64)
        self.exhausted = np.zeros(k, dtype=bool)
        self.active = np.ones(k, dtype=bool)
        self.inactive_order: list[int] = []
        self.trace = Trace(every=trace_every) if trace_every > 0 else None

    def finalize(
        self,
        gid: int,
        estimate: float,
        round_m: int,
        half_width: float,
        exhausted: bool,
        batch_rounds_consumed: int,
    ) -> None:
        """Remove group ``gid`` from the active set at round ``round_m``."""
        self.active[gid] = False
        self.estimates[gid] = estimate
        self.samples[gid] += batch_rounds_consumed
        self.half_widths[gid] = half_width
        self.finalized_round[gid] = round_m
        self.exhausted[gid] = exhausted
        self.inactive_order.append(gid)
        self.run.charge(gid, batch_rounds_consumed)
        if self.on_finalize is not None:
            self.on_finalize(gid, self.outcome(gid))

    def finalize_exhausted(self, gids: np.ndarray, round_m: int) -> None:
        """Vectorized finalization of fully-read groups at their exact means.

        Mass exhaustion (hundreds of equal-sized groups hitting n_i = m in
        the same round) is the common endgame at large k; this replaces the
        per-group ``finalize`` loop.  Nothing is charged: the n_i draws that
        reached exhaustion were already charged.
        """
        self.active[gids] = False
        self.estimates[gids] = [self.run.exact_mean(int(g)) for g in gids]
        self.half_widths[gids] = 0.0
        self.finalized_round[gids] = round_m
        self.exhausted[gids] = True
        self.inactive_order.extend(int(g) for g in gids)
        if self.on_finalize is not None:
            for gid in gids:
                self.on_finalize(int(gid), self.outcome(int(gid)))

    def outcome(self, gid: int) -> GroupOutcome:
        """Group ``gid`` as the result reports it (final once it is inactive)."""
        return GroupOutcome(
            index=gid,
            name=self.names[gid],
            estimate=float(self.estimates[gid]),
            samples=int(self.samples[gid]),
            half_width=float(self.half_widths[gid]),
            exhausted=bool(self.exhausted[gid]),
            finalized_round=int(self.finalized_round[gid]),
        )


def run_ifocus(
    engine: SamplingEngine,
    *,
    delta: float = 0.05,
    resolution: float = 0.0,
    kappa: float = 1.0,
    heuristic_factor: float = 1.0,
    without_replacement: bool = True,
    seed: int | np.random.Generator | None = None,
    trace_every: int = 0,
    initial_batch: int = _DEFAULT_INITIAL_BATCH,
    max_batch: int = _DEFAULT_MAX_BATCH,
    max_rounds: int | None = None,
    deadline: "Deadline | None" = None,
    on_finalize: Callable[[int, GroupOutcome], None] | None = None,
    rule: LeaveRule | None = None,
) -> OrderingResult:
    """Run IFOCUS (or IFOCUS-R when ``resolution`` > 0) over an engine.

    Args:
        engine: a :class:`~repro.engines.base.SamplingEngine` over the target
            population.
        delta: failure probability; the output ordering is correct with
            probability >= 1 - delta (Theorem 3.5).
        resolution: minimal resolution r of Problem 2; groups whose true means
            are within r of each other need not be ordered, and the algorithm
            stops refining once eps < r/4.  0 disables the relaxation.
        kappa: geometric grid parameter of the epsilon schedule (paper uses 1).
        heuristic_factor: divide epsilon by this factor (Fig. 5 experiments;
            values > 1 void the guarantee).
        without_replacement: sample each group without replacement (requires
            group sizes; tighter epsilon; exhaustion finalizes a fully-read
            group at its exact mean).
        seed: RNG seed for the run's sampling streams.
        trace_every: record a snapshot every this many rounds (0 = no trace).
        initial_batch / max_batch: internal batching knobs; results are
            independent of them (asserted in tests).
        max_rounds: optional safety cap on the number of rounds; if reached,
            remaining active groups are finalized at their current estimates
            and ``params["truncated"]`` is set.
        deadline: optional :class:`~repro.resilience.deadline.Deadline`,
            polled once per round: on expiry remaining active groups are
            finalized at their current estimates (anytime behaviour) and
            ``params["deadline_exceeded"]`` is set; on cancellation
            :class:`~repro.errors.QueryCancelled` propagates.
        on_finalize: optional callback ``(gid, outcome)`` invoked the moment
            a group leaves the active set, in ``inactive_order`` order; each
            outcome equals the group's entry in the returned result.
        rule: optional :class:`LeaveRule` replacing Algorithm 1's leave test
            (the Section 6 variants); its ``algorithm`` labels the result.

    Returns:
        An :class:`~repro.core.types.OrderingResult`.
    """
    check_probability(delta, "delta")
    check_nonnegative(resolution, "resolution")
    if initial_batch < 1 or max_batch < initial_batch:
        raise ValueError("need 1 <= initial_batch <= max_batch")
    variant = "ifocusr" if resolution > 0 else "ifocus"
    if rule is not None:
        variant = rule.algorithm
    run = engine.open_run(seed, without_replacement=without_replacement)
    k = run.k
    schedule = EpsilonSchedule(
        k, delta, c=run.c, kappa=kappa, heuristic_factor=heuristic_factor
    )
    state = _IFocusState(run, trace_every, on_finalize)

    # Round m = 1: one sample per group to seed the estimates (Alg. 1 line 2).
    all_gids = np.arange(k, dtype=np.int64)
    first = run.draw_block(all_gids, 1)[0]
    state.sums[:] = first
    state.estimates[:] = first
    run.charge_block(all_gids, 1)
    state.samples[:] = 1
    m = 1
    _maybe_trace_initial(state, schedule, without_replacement)
    # A lone group may leave after round 1; a one-row group is left to the
    # loop's exhaustion pre-check instead.
    if k == 1 and not (without_replacement and state.sizes[0] <= 1):
        eps = float(schedule(1.0, _n_max(state, all_gids, without_replacement)))
        if _lone_group_leaves(rule, state.estimates, eps):
            state.finalize(0, float(state.estimates[0]), 1, eps, False, 0)

    batch = int(initial_batch)
    truncated = False
    deadline_exceeded = False
    while state.active.any():
        if max_rounds is not None and m >= max_rounds:
            truncated = True
            _truncate_active(state, schedule, m, without_replacement)
            break
        if deadline is not None and deadline.check():
            deadline_exceeded = True
            _truncate_active(state, schedule, m, without_replacement)
            break

        # Exhaustion pre-check: an active group with n_i == m has been read in
        # full; its running mean is the exact group mean.
        if without_replacement:
            exhaust = np.flatnonzero(state.active & (state.sizes <= m))
            if exhaust.size:
                state.finalize_exhausted(exhaust, m)
            if not state.active.any():
                break

        active_idx = np.flatnonzero(state.active)
        b_eff = batch
        if without_replacement:
            b_eff = min(b_eff, int(state.sizes[active_idx].min()) - m)
        if max_rounds is not None:
            b_eff = min(b_eff, max_rounds - m)
        b_eff = max(b_eff, 1)

        rounds = np.arange(m + 1, m + b_eff + 1, dtype=np.float64)
        blocks = run.draw_block(active_idx, b_eff)
        # The block is caller-owned, so the cumulative sum and the division
        # by the round index run in place; only the final sums row (needed
        # for the survivors' running state) is kept aside.
        csums = np.cumsum(blocks, axis=0, out=blocks)
        csums += state.sums[active_idx][None, :]
        end_sums = csums[-1].copy()
        prefix = csums  # (b_eff, k_active): estimates per round
        prefix /= rounds[:, None]

        _walk_batch(
            state,
            schedule,
            active_idx,
            rounds,
            prefix,
            resolution,
            without_replacement,
            rule,
        )
        # Survivors consumed the whole batch; update their running state.
        # ``active_idx`` is sorted, so batch columns come from a searchsorted.
        survivors = np.flatnonzero(state.active)
        if survivors.size:
            cols = np.searchsorted(active_idx, survivors)
            state.sums[survivors] = end_sums[cols]
            state.estimates[survivors] = prefix[-1, cols]
            state.samples[survivors] += b_eff
            run.charge_block(survivors, b_eff)
        m += b_eff
        batch = min(batch * 2, max_batch)

    groups = [state.outcome(i) for i in range(k)]
    params = {
        "delta": delta,
        "resolution": resolution,
        "kappa": kappa,
        "heuristic_factor": heuristic_factor,
        "without_replacement": without_replacement,
        "c": run.c,
        "truncated": truncated,
        "deadline_exceeded": deadline_exceeded,
    }
    # ``m`` may overshoot to the batch end when the last group finalizes
    # mid-batch; the number of rounds actually executed is the last
    # finalization round.
    rounds_executed = int(state.finalized_round.max())
    return OrderingResult(
        algorithm=variant,
        estimates=state.estimates.copy(),
        samples_per_group=state.samples.copy(),
        rounds=rounds_executed,
        groups=groups,
        inactive_order=state.inactive_order,
        trace=state.trace,
        params=params,
        stats=run.stats,
    )


def _n_max(state: _IFocusState, active_idx: np.ndarray, without_replacement: bool):
    if not without_replacement:
        return None
    return float(state.sizes[active_idx].max())


def _maybe_trace_initial(
    state: _IFocusState, schedule: EpsilonSchedule, without_replacement: bool
) -> None:
    if state.trace is None:
        return
    active_idx = np.flatnonzero(state.active)
    eps = float(schedule(1.0, _n_max(state, active_idx, without_replacement)))
    state.trace.append(
        RoundSnapshot(
            round_index=1,
            cumulative_samples=int(state.samples.sum()),
            active=tuple(int(g) for g in active_idx),
            estimates=state.estimates.copy(),
            epsilon=eps,
        )
    )


def _record_trace_rows(
    state: _IFocusState,
    rounds: np.ndarray,
    prefix: np.ndarray,
    live_cols: np.ndarray,
    active_gids: np.ndarray,
    row_from: int,
    row_to: int,
    eps_rows: np.ndarray,
) -> None:
    """Append snapshots for strided rounds in [row_from, row_to)."""
    trace = state.trace
    if trace is None:
        return
    every = trace.every
    for row in range(row_from, row_to):
        round_m = int(rounds[row])
        if round_m % every != 0:
            continue
        est = state.estimates.copy()
        est[active_gids] = prefix[row, live_cols]
        # ``state.samples`` for still-active groups holds the pre-batch count
        # (groups finalized earlier in this batch are already updated), so
        # adding (row+1) per live group gives the true cumulative count.
        cumulative = int(state.samples.sum()) + int((row + 1) * active_gids.size)
        trace.append(
            RoundSnapshot(
                round_index=round_m,
                cumulative_samples=cumulative,
                active=tuple(int(g) for g in active_gids),
                estimates=est,
                epsilon=float(eps_rows[row]),
            )
        )


def _walk_batch(
    state: _IFocusState,
    schedule: EpsilonSchedule,
    active_idx: np.ndarray,
    rounds: np.ndarray,
    prefix: np.ndarray,
    resolution: float,
    without_replacement: bool,
    rule: LeaveRule | None = None,
) -> None:
    """Process one pre-drawn batch; finalize groups at leave events.

    Incremental: the epsilon segment is evaluated once for the whole batch
    and reused across finalization events - it only changes when the largest
    live group leaves (shrinking ``n_max``, the finite-population factor's
    denominator).  Events are located with a galloping-window scan
    (:func:`~repro.core.intervals.first_event_row`, or
    :func:`_first_leave_row` for a rule) resuming after the previous event,
    so rows already cleared are never re-tested.
    """
    b_eff = rounds.shape[0]
    live = np.arange(active_idx.shape[0])  # columns still active
    # Exhausted groups are zero-width obstacles: an active group may not
    # leave while its interval still covers a frozen exact mean (otherwise
    # its final estimate could land on the wrong side of that exact value).
    frozen = state.estimates[state.exhausted]
    scale = None if rule is None else rule.scale
    if scale is not None:  # obstacles in the rule's units: frozen exact sums
        frozen = frozen * scale[state.exhausted]
    row = 0
    n_max = _n_max(state, active_idx, without_replacement)
    eps_full = np.asarray(schedule.segment(rounds, n_max), dtype=np.float64)
    res_at = first_resolution_row(eps_full, resolution)
    while row < b_eff and live.size > 0:
        gids = active_idx[live]
        new_n_max = _n_max(state, gids, without_replacement)
        if new_n_max != n_max:
            n_max = new_n_max
            eps_full[row:] = schedule.segment(rounds[row:], n_max)
            res_at = first_resolution_row(eps_full, resolution, row)
        if scale is not None and resolution > 0.0:
            # The cap is on the widest live interval, max scale_i * eps_m,
            # which changes whenever a group leaves.
            res_at = first_resolution_row(eps_full * scale[gids].max(), resolution, row)

        # A resolution stop at ``res_at`` makes later events moot, so the
        # scan is capped there.
        cap = b_eff if res_at is None else min(b_eff, res_at + 1)
        if rule is None:
            ev_row, ev_mask = first_event_row(
                prefix[row:cap, live], eps_full[row:cap], obstacles=frozen
            )
        else:
            # A stop test changes its answer only with the inactive count: at
            # event rows, and through the exhaustion pre-check, which the
            # reference loop first tests after this batch's first round.  So
            # the first row is scanned alone and tested after, like events.
            if row == 0:
                cap = 1
            ev_row, ev_mask = _first_leave_row(
                rule, prefix[row:cap, live], eps_full[row:cap], gids, state, frozen
            )
        ev_abs = row + ev_row if ev_row is not None else None

        by_resolution = res_at is not None and res_at < cap and (
            ev_abs is None or res_at <= ev_abs
        )
        end = res_at if by_resolution else (cap - 1 if ev_abs is None else ev_abs)
        _record_trace_rows(state, rounds, prefix, live, gids, row, end + 1, eps_full)
        row = end + 1
        if by_resolution:
            # Resolution termination: finalize every remaining active group.
            _finalize_columns(state, active_idx, live, prefix, rounds, eps_full, end)
            return
        if ev_abs is not None:
            newly = np.flatnonzero(ev_mask)
            _finalize_columns(
                state, active_idx, live[newly], prefix, rounds, eps_full, end
            )
            live = np.delete(live, newly)
        if (
            rule is not None
            and (ev_abs is not None or row == 1)
            and rule.stop(len(state.inactive_order), state.k)
        ):
            _finalize_columns(state, active_idx, live, prefix, rounds, eps_full, end)
            return


def _first_leave_row(rule, est, eps, gids, state, frozen, start_window=64):
    """:func:`~repro.core.intervals.first_event_row`'s galloping scan (windows
    that double in size) over a rule and the exhausted-mean obstacles: the
    first row at which some live column may leave, and the mask of those."""
    inactive = Inactive(state.estimates[~state.active], state.half_widths[~state.active])
    obstacles = np.sort(frozen)
    scale = None if rule.scale is None else rule.scale[gids]
    row, window = 0, start_window
    while row < est.shape[0]:
        hi = min(row + window, est.shape[0])
        ok = rule.leave(est[row:hi], eps[row:hi], gids, inactive)
        if obstacles.size:
            values, widths = est[row:hi], eps[row:hi, None]
            if scale is not None:
                values, widths = values * scale, widths * scale
            ok = ok & (_obstacle_clearance(values, obstacles) > widths)
        hits = np.flatnonzero(ok.any(axis=1))
        if hits.size:
            return row + int(hits[0]), ok[int(hits[0])]
        row, window = hi, window * 2
    return None, None


def _finalize_columns(state, active_idx, cols, prefix, rounds, eps_full, row) -> None:
    """Finalize the batch columns ``cols`` at their estimates at ``row``."""
    round_m = int(rounds[row])
    eps_here = float(eps_full[row])
    for pos in cols:
        state.finalize(
            int(active_idx[pos]),
            estimate=float(prefix[row, pos]),
            round_m=round_m,
            half_width=eps_here,
            exhausted=False,
            batch_rounds_consumed=row + 1,
        )


def _truncate_active(
    state: _IFocusState,
    schedule: EpsilonSchedule,
    m: int,
    without_replacement: bool,
) -> None:
    """Finalize all remaining active groups at round ``m`` (max_rounds cap)."""
    active_idx = np.flatnonzero(state.active)
    n_max = _n_max(state, active_idx, without_replacement)
    eps = float(schedule(float(max(m, 1)), n_max))
    for gid in active_idx:
        state.finalize(
            int(gid),
            estimate=float(state.estimates[gid]) if m > 1 else float(state.sums[gid]),
            round_m=m,
            half_width=eps,
            exhausted=False,
            batch_rounds_consumed=0,
        )
