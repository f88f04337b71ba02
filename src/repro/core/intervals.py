"""Confidence-interval overlap tests used by the active-set bookkeeping.

A group is *active* while its confidence interval intersects the interval of
some other active group; it is removed from the active set as soon as its
interval is disjoint from the union of the other active intervals (Alg. 1
lines 10-12).

Two regimes:

* equal half-widths (the IFOCUS common case: one shared eps per round) - a
  group is separated iff its gap to the *nearest* other active estimate
  exceeds 2*eps, so a sorted adjacent-gap sweep is exact and O(k log k);
* heterogeneous half-widths (IREFINE, exhausted zero-width groups, SUM's
  n_i-scaled intervals) - we use the O(k^2) pairwise test, which is fine for
  the paper's regime of k <= 100.

Both are provided in single-round and batched (rounds x groups) forms; the
batched forms power the vectorized executor.  :func:`first_event_row` is
that executor's galloping scan for Algorithm 1's rule; every other leave
rule (the Section 6 variants, SUM, and ROUNDROBIN's all-at-once stop in
:mod:`repro.core.roundrobin`) is scanned by the executor itself, and all of
them share :func:`_obstacle_clearance` for the exhausted-mean test.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "separated_equal_width",
    "separated_general",
    "separated_equal_width_batch",
    "separated_general_batch",
    "first_event_row",
    "first_resolution_row",
    "pairwise_overlap_matrix",
]


def separated_equal_width(centers: np.ndarray, eps: float) -> np.ndarray:
    """Boolean mask: which intervals [c_i - eps, c_i + eps] touch no other.

    All intervals share the same half-width ``eps``.  An interval is
    "separated" iff its distance to the nearest other center exceeds 2*eps.
    A single interval is trivially separated.
    """
    centers = np.asarray(centers, dtype=np.float64)
    k = centers.shape[0]
    if k <= 1:
        return np.ones(k, dtype=bool)
    order = np.argsort(centers, kind="stable")
    sorted_c = centers[order]
    gaps = np.diff(sorted_c)
    ok_left = np.empty(k, dtype=bool)
    ok_right = np.empty(k, dtype=bool)
    ok_left[0] = True
    ok_left[1:] = gaps > 2.0 * eps
    ok_right[-1] = True
    ok_right[:-1] = gaps > 2.0 * eps
    sep_sorted = ok_left & ok_right
    out = np.empty(k, dtype=bool)
    out[order] = sep_sorted
    return out


def separated_general(centers: np.ndarray, halfwidths: np.ndarray) -> np.ndarray:
    """Boolean mask of separated intervals with per-interval half-widths.

    Interval i is separated iff |c_i - c_j| > w_i + w_j for every j != i.
    O(k^2), intended for k <= a few hundred.
    """
    centers = np.asarray(centers, dtype=np.float64)
    halfwidths = np.asarray(halfwidths, dtype=np.float64)
    k = centers.shape[0]
    if k <= 1:
        return np.ones(k, dtype=bool)
    dist = np.abs(centers[:, None] - centers[None, :])
    reach = halfwidths[:, None] + halfwidths[None, :]
    overlap = dist <= reach
    np.fill_diagonal(overlap, False)
    return ~overlap.any(axis=1)


def separated_equal_width_batch(estimates: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Batched :func:`separated_equal_width` over rounds.

    Args:
        estimates: shape (B, k) - per-round estimates of the active groups.
        eps: shape (B,) - the shared half-width at each round.

    Returns:
        Boolean array of shape (B, k): entry [b, i] is True iff interval i is
        disjoint from all other intervals at round b.
    """
    estimates = np.asarray(estimates, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if estimates.ndim != 2:
        raise ValueError(f"estimates must be 2-D, got shape {estimates.shape}")
    b, k = estimates.shape
    if eps.shape != (b,):
        raise ValueError(f"eps must have shape ({b},), got {eps.shape}")
    if k <= 1:
        return np.ones((b, k), dtype=bool)
    order = np.argsort(estimates, axis=1, kind="stable")
    sorted_e = np.take_along_axis(estimates, order, axis=1)
    gaps = np.diff(sorted_e, axis=1)  # (B, k-1)
    wide = gaps > (2.0 * eps)[:, None]
    ok_left = np.concatenate([np.ones((b, 1), dtype=bool), wide], axis=1)
    ok_right = np.concatenate([wide, np.ones((b, 1), dtype=bool)], axis=1)
    sep_sorted = ok_left & ok_right
    out = np.empty((b, k), dtype=bool)
    np.put_along_axis(out, order, sep_sorted, axis=1)
    return out


#: Pairs per chunk in :func:`separated_general_batch` (bounds its temporaries).
_PAIR_BUDGET = 1 << 18


def separated_general_batch(
    centers: np.ndarray, halfwidths: np.ndarray
) -> np.ndarray:
    """Batched :func:`separated_general` over rounds.

    Args:
        centers: shape (B, k) - per-round interval centers.
        halfwidths: shape (B, k) - per-round, per-interval half-widths.

    Returns:
        Boolean array of shape (B, k), row b equal to
        ``separated_general(centers[b], halfwidths[b])`` (same comparison, so
        ties and zero widths resolve identically).  Rows are processed in
        chunks of about ``_PAIR_BUDGET`` pairs to bound the (B, k, k)
        temporaries.
    """
    centers = np.asarray(centers, dtype=np.float64)
    halfwidths = np.asarray(halfwidths, dtype=np.float64)
    if centers.ndim != 2 or halfwidths.shape != centers.shape:
        raise ValueError(
            f"need 2-D centers and half-widths of one shape, got "
            f"{centers.shape} and {halfwidths.shape}"
        )
    b, k = centers.shape
    if k <= 1:
        return np.ones((b, k), dtype=bool)
    out = np.empty((b, k), dtype=bool)
    diag = np.arange(k)
    step = max(1, _PAIR_BUDGET // (k * k))
    for lo in range(0, b, step):
        c = centers[lo : lo + step]
        w = halfwidths[lo : lo + step]
        overlap = np.abs(c[:, :, None] - c[:, None, :]) <= w[:, :, None] + w[:, None, :]
        overlap[:, diag, diag] = False
        out[lo : lo + step] = ~overlap.any(axis=2)
    return out


def first_event_row(
    estimates: np.ndarray,
    eps: np.ndarray,
    obstacles: np.ndarray | None = None,
    start_window: int = 64,
) -> tuple[int | None, np.ndarray | None]:
    """Earliest row with a separation event, scanning in galloping windows.

    The batched IFOCUS executor only ever acts on the *first* round where a
    group's interval becomes disjoint (Algorithm 1's rule; a
    :class:`~repro.core.ifocus.LeaveRule` scans its own windows the same
    way); testing the whole pre-drawn batch up front wastes O(batch x k)
    sort work every time an event lands early.  This helper evaluates
    :func:`separated_equal_width_batch` over windows that double in size,
    so finding an event at row r costs O(r k log k) instead of
    O(B k log k), while an event-free batch costs one extra partial window.

    Args:
        estimates: shape (B, k) per-round estimates.
        eps: shape (B,) shared half-width per round.
        obstacles: optional frozen exact means (zero-width intervals); a
            group only counts as separated at a round if it also clears
            every obstacle by more than eps.
        start_window: initial window size (doubles each miss).

    Returns:
        ``(row, mask)`` - the first event row and the per-group separation
        mask at that row - or ``(None, None)`` if the batch has no event.
    """
    estimates = np.asarray(estimates, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    b, k = estimates.shape
    obs = None
    if obstacles is not None and obstacles.size:
        obs = np.sort(np.asarray(obstacles, dtype=np.float64))
    row = 0
    window = max(int(start_window), 1)
    while row < b:
        hi = min(row + window, b)
        # Existence screen in sorted space: ``np.sort`` is substantially
        # cheaper than the argsort + inverse-permutation dance, and the
        # "is any interval separated" question only needs the sorted
        # values - the group identities are recovered below, at one row.
        seg = np.sort(estimates[row:hi], axis=1)
        eps_seg = eps[row:hi]
        ok = np.ones((hi - row, k), dtype=bool)
        if k > 1:
            wide = (seg[:, 1:] - seg[:, :-1]) > (2.0 * eps_seg)[:, None]
            ok[:, 1:] &= wide
            ok[:, :-1] &= wide
        if obs is not None:
            ok &= _obstacle_clearance(seg, obs) > eps_seg[:, None]
        hits = np.flatnonzero(ok.any(axis=1))
        if hits.size:
            event = row + int(hits[0])
            # Group-order mask for the event row only.
            mask = separated_equal_width(estimates[event], float(eps[event]))
            if obs is not None:
                mask &= _obstacle_clearance(estimates[event], obs) > eps[event]
            return event, mask
        row = hi
        window *= 2
    return None, None


def first_resolution_row(
    eps: np.ndarray, resolution: float, start: int = 0
) -> int | None:
    """First row at or after ``start`` where eps < r/4 (IFOCUS-R stop rule).

    Shared by the batched executors so the r/4 threshold semantics live in
    one place.  Returns ``None`` when the resolution relaxation is off or
    never triggers within the batch.
    """
    if resolution <= 0.0:
        return None
    hits = np.flatnonzero(eps[start:] < resolution / 4.0)
    return int(hits[0]) + start if hits.size else None


def _obstacle_clearance(values: np.ndarray, sorted_obstacles: np.ndarray) -> np.ndarray:
    """Distance from each value to its nearest obstacle (obstacles sorted).

    One searchsorted instead of a Python loop over obstacles - the loop is
    O(#obstacles) vector passes, which bites once exhausted groups pile up
    on skewed populations.
    """
    pos = np.searchsorted(sorted_obstacles, values)
    left = np.where(
        pos > 0, values - sorted_obstacles[np.maximum(pos - 1, 0)], np.inf
    )
    last = sorted_obstacles.shape[0] - 1
    right = np.where(
        pos <= last, sorted_obstacles[np.minimum(pos, last)] - values, np.inf
    )
    return np.minimum(left, right)


def pairwise_overlap_matrix(centers: np.ndarray, halfwidths: np.ndarray) -> np.ndarray:
    """Symmetric boolean matrix: which interval pairs intersect (diag False)."""
    centers = np.asarray(centers, dtype=np.float64)
    halfwidths = np.asarray(halfwidths, dtype=np.float64)
    dist = np.abs(centers[:, None] - centers[None, :])
    reach = halfwidths[:, None] + halfwidths[None, :]
    overlap = dist <= reach
    np.fill_diagonal(overlap, False)
    return overlap
