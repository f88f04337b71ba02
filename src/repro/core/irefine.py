"""IREFINE (Algorithms 2 and 3) - the aggressive interval-halving variant.

IREFINE also maintains confidence intervals and an active set, but instead of
one sample per round it *halves* each active group's interval every
iteration, drawing a fresh Chernoff-Hoeffding batch of
ceil(c^2/(2 eps^2) ln(2/delta_i)) samples (ESTIMATEMEAN, Algorithm 2).
Because each refinement discards the previous samples and the per-iteration
cost quadruples, IREFINE's sample complexity carries an extra log(1/eta)
factor (Theorem 3.10) and it is not optimal - the paper uses it as the
"aggressive" comparison point between ROUNDROBIN and IFOCUS.

Deviations from the paper's pseudocode (both deliberate):

* Algorithm 3 line 3 initializes delta_i = 1/(2k), which drops the
  user-supplied delta; we use delta/(2k) so the geometric halving unions to
  a total failure probability <= delta (as Theorem 3.10 requires).
* The active flags are recomputed from a snapshot after all active groups
  have been refreshed (the pseudocode interleaves estimate updates and
  overlap checks inside one loop, making the result order-dependent).

A group whose next ESTIMATEMEAN call would need at least n_i samples is
resolved exactly by scanning the group (cost n_i), mirroring the paper's
observation that hard groups may be read in full.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_nonnegative, check_probability
from repro.core.confidence import chernoff_sample_size
from repro.core.intervals import pairwise_overlap_matrix
from repro.core.types import GroupOutcome, OrderingResult
from repro.engines.base import SamplingEngine
from repro.resilience.deadline import Deadline

__all__ = ["run_irefine"]


def run_irefine(
    engine: SamplingEngine,
    *,
    delta: float = 0.05,
    resolution: float = 0.0,
    seed: int | np.random.Generator | None = None,
    max_iterations: int = 64,
    deadline: Deadline | None = None,
) -> OrderingResult:
    """Run IREFINE (or IREFINE-R when ``resolution`` > 0).

    Args:
        engine: sampling engine over the population.
        delta: overall failure probability.
        resolution: minimal resolution r; a group stops refining once its
            half-width drops below r/4 (0 disables).
        seed: RNG seed for the sampling streams.
        max_iterations: safety cap on halving iterations (eps shrinks by 2^64
            over the default cap - far beyond any realistic instance).
        deadline: optional time budget / cancel token, polled once per
            halving iteration; on expiry remaining active groups keep
            their current (eps, estimate) and
            ``params["deadline_exceeded"]`` is set.

    Returns:
        An :class:`~repro.core.types.OrderingResult`.
    """
    check_probability(delta, "delta")
    check_nonnegative(resolution, "resolution")
    variant = "irefiner" if resolution > 0 else "irefine"
    # ESTIMATEMEAN draws independent uniform samples (Lemma 4) - replacement.
    run = engine.open_run(seed, without_replacement=False)
    k = run.k
    c = run.c
    sizes = run.sizes()
    names = run.group_names()

    eps = np.full(k, c / 2.0)
    deltas = np.full(k, delta / (2.0 * k))
    estimates = np.full(k, c / 2.0)
    samples = np.zeros(k, dtype=np.int64)
    active = np.ones(k, dtype=bool)
    exhausted = np.zeros(k, dtype=bool)
    finalized_iter = np.zeros(k, dtype=np.int64)
    inactive_order: list[int] = []

    def finalize(gid: int, iteration: int, is_exhausted: bool) -> None:
        active[gid] = False
        exhausted[gid] = is_exhausted
        finalized_iter[gid] = iteration
        inactive_order.append(gid)

    iteration = 0
    truncated = False
    deadline_exceeded = False
    while active.any():
        iteration += 1
        if iteration > max_iterations:
            truncated = True
            for gid in np.flatnonzero(active):
                finalize(int(gid), iteration - 1, False)
            break
        if deadline is not None and deadline.check():
            deadline_exceeded = True
            for gid in np.flatnonzero(active):
                finalize(int(gid), iteration - 1, False)
            break

        # Every group active at iteration t has halved in lockstep since
        # iteration 1, so all share eps = c/2^t and delta_i = delta/(2k 2^t):
        # one Chernoff sample size serves the whole active set and the
        # refresh is a single fused block draw instead of one call per group.
        active_idx = np.flatnonzero(active)
        eps[active_idx] /= 2.0
        deltas[active_idx] /= 2.0
        gid0 = int(active_idx[0])
        need = chernoff_sample_size(float(eps[gid0]), float(deltas[gid0]), c)

        exhaust = active_idx[need >= sizes[active_idx]]
        for gid in exhaust:
            # Cheaper to read the group in full: exact mean, zero width.
            gid = int(gid)
            estimates[gid] = run.exact_mean(gid)
            eps[gid] = 0.0
            samples[gid] += int(sizes[gid])
            run.charge(gid, int(sizes[gid]))
            finalize(gid, iteration, True)

        refresh = active_idx[need < sizes[active_idx]]
        if refresh.size:
            block = run.draw_block(refresh, need)
            # Contiguous per-group rows keep the mean's pairwise summation
            # bit-identical to the per-group 1-D ``block.mean()`` this
            # replaced (a strided axis-0 reduction accumulates differently).
            estimates[refresh] = np.ascontiguousarray(block.T).mean(axis=1)
            samples[refresh] += need
            run.charge_block(refresh, need)

        # Snapshot overlap check over all k intervals (frozen ones included).
        overlap = pairwise_overlap_matrix(estimates, eps)
        for gid in np.flatnonzero(active):
            gid = int(gid)
            if resolution > 0.0 and eps[gid] < resolution / 4.0:
                finalize(gid, iteration, False)
            elif not overlap[gid].any():
                finalize(gid, iteration, False)

    groups = [
        GroupOutcome(
            index=i,
            name=names[i],
            estimate=float(estimates[i]),
            samples=int(samples[i]),
            half_width=float(eps[i]),
            exhausted=bool(exhausted[i]),
            finalized_round=int(finalized_iter[i]),
        )
        for i in range(k)
    ]
    return OrderingResult(
        algorithm=variant,
        estimates=estimates.copy(),
        samples_per_group=samples.copy(),
        rounds=iteration,
        groups=groups,
        inactive_order=inactive_order,
        trace=None,
        params={
            "delta": delta,
            "resolution": resolution,
            "c": c,
            "truncated": truncated,
            "deadline_exceeded": deadline_exceeded,
        },
        stats=run.stats,
    )
