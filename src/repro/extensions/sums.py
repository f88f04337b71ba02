"""SUM aggregation (Algorithms 4 and 5, §6.3.1).

Two regimes:

* **Known group sizes** (:func:`run_ifocus_sum`) - sum_i = mu_i * n_i, so the
  IFOCUS machinery carries over with each group's estimate and interval
  scaled by its size (Algorithm 4).  Interval widths now differ across
  groups, so the active-set test is the general heterogeneous-width one.
* **Unknown group sizes** (:func:`run_ifocus_sum_unknown`) - the algorithm
  simultaneously estimates each group's fractional size s_i and mean via the
  unbiased product estimator x*z of the *normalized sum* s_i * mu_i
  (Algorithm 5): x is a sample from the group, z an unbiased [0, 1] estimate
  of s_i.  NEEDLETAIL derives z from bitmap skip counts without I/O; we
  simulate the same unbiased draw as a group-membership indicator of a
  uniformly random tuple (E[z] = s_i), which preserves unbiasedness and the
  [0, c] range of x*z, hence the identical confidence-interval computation
  the paper highlights.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_nonnegative, check_probability
from repro.core.confidence import EpsilonSchedule
from repro.core.intervals import separated_general
from repro.core.types import GroupOutcome, OrderingResult
from repro.engines.base import SamplingEngine
from repro.resilience.deadline import Deadline

__all__ = ["run_ifocus_sum", "run_ifocus_sum_unknown"]


def _finalize_result(
    algorithm: str,
    run,
    estimates: np.ndarray,
    counts: np.ndarray,
    half_widths: np.ndarray,
    finalized_round: np.ndarray,
    exhausted: np.ndarray,
    inactive_order: list[int],
    m: int,
    params: dict,
) -> OrderingResult:
    names = run.group_names()
    groups = [
        GroupOutcome(
            index=i,
            name=names[i],
            estimate=float(estimates[i]),
            samples=int(counts[i]),
            half_width=float(half_widths[i]),
            exhausted=bool(exhausted[i]),
            finalized_round=int(finalized_round[i]),
        )
        for i in range(len(names))
    ]
    return OrderingResult(
        algorithm=algorithm,
        estimates=estimates.copy(),
        samples_per_group=counts.copy(),
        rounds=m,
        groups=groups,
        inactive_order=inactive_order,
        trace=None,
        params=params,
        stats=run.stats,
    )


def run_ifocus_sum(
    engine: SamplingEngine,
    *,
    delta: float = 0.05,
    resolution: float = 0.0,
    without_replacement: bool = True,
    seed: int | np.random.Generator | None = None,
    max_rounds: int | None = None,
    deadline: Deadline | None = None,
) -> OrderingResult:
    """IFOCUS-Sum with known group sizes (Algorithm 4).

    Returns estimates of the group *sums* sigma_i = n_i * mu_i, ordered
    correctly with probability >= 1 - delta.  ``resolution`` is interpreted
    on the sum scale.
    """
    check_probability(delta, "delta")
    check_nonnegative(resolution, "resolution")
    run = engine.open_run(seed, without_replacement=without_replacement)
    k = run.k
    sizes = run.sizes().astype(np.float64)
    schedule = EpsilonSchedule(k, delta, c=run.c)

    sums = np.zeros(k)
    counts = np.zeros(k, dtype=np.int64)
    estimates = np.zeros(k)  # scaled: n_i * mean_i
    half_widths = np.full(k, np.inf)
    active = np.ones(k, dtype=bool)
    exhausted = np.zeros(k, dtype=bool)
    finalized_round = np.zeros(k, dtype=np.int64)
    inactive_order: list[int] = []

    def finalize(gid: int, width: float, m: int, is_exhausted: bool) -> None:
        active[gid] = False
        half_widths[gid] = width
        finalized_round[gid] = m
        exhausted[gid] = is_exhausted
        inactive_order.append(gid)
        if is_exhausted:
            estimates[gid] = sizes[gid] * run.exact_mean(gid)

    for gid in range(k):
        value = float(run.draw(gid, 1)[0])
        sums[gid] = value
        counts[gid] = 1
        estimates[gid] = sizes[gid] * value
        run.charge(gid, 1)
    m = 1
    truncated = False
    deadline_exceeded = False

    while active.any():
        if max_rounds is not None and m >= max_rounds:
            truncated = True
            for gid in np.flatnonzero(active):
                finalize(int(gid), float(half_widths[gid]), m, False)
            break
        if deadline is not None and deadline.check():
            deadline_exceeded = True
            for gid in np.flatnonzero(active):
                finalize(int(gid), float(half_widths[gid]), m, False)
            break
        if without_replacement:
            for gid in np.flatnonzero(active & (run.sizes() <= counts)):
                finalize(int(gid), 0.0, m, True)
            if not active.any():
                break
        m += 1
        idx = np.flatnonzero(active)
        n_max = float(run.sizes()[idx].max()) if without_replacement else None
        base_eps = float(schedule(float(m), n_max))
        for gid in idx:
            gid = int(gid)
            value = float(run.draw(gid, 1)[0])
            sums[gid] += value
            counts[gid] += 1
            estimates[gid] = sizes[gid] * sums[gid] / counts[gid]
            run.charge(gid, 1)
        half_widths[idx] = sizes[idx] * base_eps  # Alg. 4 line 7: eps_i = n_i * eps_m
        if resolution > 0.0 and float(half_widths[idx].max()) < resolution / 4.0:
            for gid in idx:
                finalize(int(gid), float(half_widths[gid]), m, False)
            break
        sep = separated_general(estimates[idx], half_widths[idx])
        for pos, gid in enumerate(idx):
            if sep[pos]:
                finalize(int(gid), float(half_widths[gid]), m, False)

    return _finalize_result(
        "ifocus-sum",
        run,
        estimates,
        counts,
        np.where(exhausted, 0.0, half_widths),
        finalized_round,
        exhausted,
        inactive_order,
        m,
        {
            "delta": delta,
            "resolution": resolution,
            "known_sizes": True,
            "truncated": truncated,
            "deadline_exceeded": deadline_exceeded,
        },
    )


def run_ifocus_sum_unknown(
    engine: SamplingEngine,
    *,
    delta: float = 0.05,
    resolution: float = 0.0,
    seed: int | np.random.Generator | None = None,
    max_rounds: int | None = None,
    normalized: bool = True,
    deadline: Deadline | None = None,
) -> OrderingResult:
    """IFOCUS-Sum with unknown group sizes (Algorithm 5).

    Estimates the *normalized sums* s_i * mu_i (``normalized=True``) or, when
    the total row count is known, the raw sums N * s_i * mu_i.  The
    size-estimate draws z are free (bitmap metadata, no disk reads), so only
    the value samples are charged, matching the paper's accounting.
    """
    check_probability(delta, "delta")
    check_nonnegative(resolution, "resolution")
    run = engine.open_run(seed, without_replacement=False)  # x*z needs i.i.d. draws
    k = run.k
    sizes = run.sizes().astype(np.float64)
    total = float(sizes.sum())
    fractions = sizes / total
    schedule = EpsilonSchedule(k, delta, c=run.c)
    scale = 1.0 if normalized else total

    seed_seq = np.random.SeedSequence(
        entropy=seed if isinstance(seed, int) else None, spawn_key=(0xC0DE,)
    )
    z_rng = np.random.default_rng(seed_seq)

    sums = np.zeros(k)  # running sums of x*z
    counts = np.zeros(k, dtype=np.int64)
    estimates = np.zeros(k)
    half_widths = np.full(k, np.inf)
    active = np.ones(k, dtype=bool)
    finalized_round = np.zeros(k, dtype=np.int64)
    inactive_order: list[int] = []

    def draw_xz(gid: int) -> float:
        x = float(run.draw(gid, 1)[0])
        z = 1.0 if z_rng.random() < fractions[gid] else 0.0
        run.charge(gid, 1)
        return x * z

    def finalize(gid: int, width: float, m: int) -> None:
        active[gid] = False
        half_widths[gid] = width
        finalized_round[gid] = m
        inactive_order.append(gid)

    for gid in range(k):
        sums[gid] = draw_xz(gid)
        counts[gid] = 1
        estimates[gid] = scale * sums[gid]
    m = 1
    truncated = False
    deadline_exceeded = False

    while active.any():
        if max_rounds is not None and m >= max_rounds:
            truncated = True
            for gid in np.flatnonzero(active):
                finalize(int(gid), float(half_widths[gid]), m)
            break
        if deadline is not None and deadline.check():
            deadline_exceeded = True
            for gid in np.flatnonzero(active):
                finalize(int(gid), float(half_widths[gid]), m)
            break
        m += 1
        idx = np.flatnonzero(active)
        eps = float(schedule(float(m), None)) * scale
        for gid in idx:
            gid = int(gid)
            sums[gid] += draw_xz(gid)
            counts[gid] += 1
            estimates[gid] = scale * sums[gid] / counts[gid]
        half_widths[idx] = eps
        if resolution > 0.0 and eps < resolution / 4.0:
            for gid in idx:
                finalize(int(gid), eps, m)
            break
        sep = separated_general(estimates[idx], half_widths[idx])
        for pos, gid in enumerate(idx):
            if sep[pos]:
                finalize(int(gid), eps, m)

    return _finalize_result(
        "ifocus-sum-unknown",
        run,
        estimates,
        counts,
        half_widths,
        finalized_round,
        np.zeros(k, dtype=bool),
        inactive_order,
        m,
        {
            "delta": delta,
            "resolution": resolution,
            "known_sizes": False,
            "normalized": normalized,
            "truncated": truncated,
            "deadline_exceeded": deadline_exceeded,
        },
    )
