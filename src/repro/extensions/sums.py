"""SUM aggregation (Algorithms 4 and 5, §6.3.1), on the one IFOCUS executor.

Two regimes:

* **Known group sizes** (:func:`run_ifocus_sum`) - sum_i = mu_i * n_i, so the
  IFOCUS machinery carries over with each group's estimate and interval
  scaled by its size (Algorithm 4).  That is a :class:`SumRule` for
  :func:`~repro.core.ifocus.run_ifocus`: interval widths n_i * eps_m differ
  across groups, so its leave test is the general heterogeneous-width one,
  and its ``scale`` puts the executor's exhausted-value obstacles and
  resolution cap in sum units too.
* **Unknown group sizes** (:func:`run_ifocus_sum_unknown`) - the algorithm
  simultaneously estimates each group's fractional size s_i and mean via the
  unbiased product estimator x*z of the *normalized sum* s_i * mu_i
  (Algorithm 5): x is a sample from the group, z an unbiased [0, 1] estimate
  of s_i.  NEEDLETAIL derives z from bitmap skip counts without I/O; we
  simulate the same unbiased draw as a group-membership indicator of a
  uniformly random tuple (E[z] = s_i), which preserves unbiasedness and the
  [0, c] range of x*z, hence the identical confidence-interval computation
  the paper highlights.  Plain IFOCUS with replacement then runs over a view
  of the engine whose samples are x*z (:class:`_ProductEngine`).

Both run :func:`~repro.core.ifocus.run_ifocus` in mean units and report in
sum units through :func:`_rescaled`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro._util import rngs_from_seed_seqs, spawn_group_seed_seqs
from repro.core.ifocus import LeaveRule, run_ifocus
from repro.core.intervals import separated_general_batch
from repro.core.types import OrderingResult
from repro.engines.base import EngineRun, SamplingEngine
from repro.resilience.deadline import Deadline

__all__ = ["SumRule", "run_ifocus_sum", "run_ifocus_sum_unknown"]


class SumRule(LeaveRule):
    """Algorithm 4's leave test: group i's interval is n_i * (nu_i +- eps_m),
    and a live group leaves once it is disjoint from every other live one."""

    algorithm = "ifocus-sum"

    def __init__(self, sizes) -> None:
        self.scale = np.asarray(sizes, dtype=np.float64)

    def leave(self, est, eps, gids, inactive):
        n = self.scale[gids]
        return separated_general_batch(est * n, eps[:, None] * n)


def _rescaled(result: OrderingResult, factor, algorithm: str, **params) -> OrderingResult:
    """``result`` with estimates and half-widths multiplied by ``factor`` (a
    scalar or one value per group), relabelled, with ``params`` added."""
    factor = np.broadcast_to(np.asarray(factor, dtype=np.float64), result.estimates.shape)
    return dataclasses.replace(
        result,
        algorithm=algorithm,
        estimates=result.estimates * factor,
        groups=[
            dataclasses.replace(
                g,
                estimate=g.estimate * float(factor[g.index]),
                half_width=g.half_width * float(factor[g.index]),
            )
            for g in result.groups
        ],
        params={**result.params, **params},
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
    on the sum scale: the run stops once every live n_i * eps_m < r/4.  A
    group read in full freezes at its exact sum, which no live interval may
    leave while covering it.
    """
    sizes = engine.population.sizes()
    result = run_ifocus(
        engine,
        delta=delta,
        resolution=resolution,
        without_replacement=without_replacement,
        seed=seed,
        max_rounds=max_rounds,
        deadline=deadline,
        rule=SumRule(sizes),
    )
    return _rescaled(result, sizes, "ifocus-sum", known_sizes=True)


class _ProductRun:
    """An :class:`~repro.engines.base.EngineRun` whose samples are x*z.

    z ~ Bernoulli(s_i) comes from its own per-group stream, so the view is
    stream-stable (a block of B draws equals B single draws) like the run it
    wraps.  z is free (bitmap metadata): charging and stats pass through to
    the wrapped run, which is charged for the x draws only.
    """

    def __init__(self, run: EngineRun, fractions: np.ndarray, z_rngs) -> None:
        self._run = run
        self._fractions = fractions
        self._z_rngs = z_rngs

    def __getattr__(self, name):
        return getattr(self._run, name)

    def _z(self, gid: int, count: int) -> np.ndarray:
        return self._z_rngs[gid].random(count) < self._fractions[gid]

    def draw(self, gid: int, count: int) -> np.ndarray:
        return self._run.draw(gid, count) * self._z(gid, count)

    def draw_block(self, gids: np.ndarray, count: int) -> np.ndarray:
        block = self._run.draw_block(gids, count)
        for col, gid in enumerate(gids):
            block[:, col] *= self._z(int(gid), count)
        return block


class _ProductEngine:
    """Algorithm 5's sample stream: ``engine``'s runs viewed as x*z."""

    def __init__(self, engine: SamplingEngine) -> None:
        self._engine = engine
        sizes = engine.population.sizes().astype(np.float64)
        self._fractions = sizes / sizes.sum()

    def open_run(self, seed=None, without_replacement: bool = False) -> _ProductRun:
        run = self._engine.open_run(seed, without_replacement=without_replacement)
        # z_i is a child of group i's x seed sequence: reproducible for any
        # integer seed, and never the x stream itself.
        z_seqs = [s.spawn(1)[0] for s in spawn_group_seed_seqs(seed, run.k)]
        return _ProductRun(run, self._fractions, rngs_from_seed_seqs(z_seqs))


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
    the total row count is known, the raw sums N * s_i * mu_i; ``resolution``
    is on the reported scale.  The size-estimate draws z are free (bitmap
    metadata, no disk reads), so only the value samples are charged,
    matching the paper's accounting.
    """
    total = float(engine.population.sizes().sum())
    factor = 1.0 if normalized else total
    result = run_ifocus(
        _ProductEngine(engine),
        delta=delta,
        resolution=resolution / factor,
        without_replacement=False,  # x*z needs i.i.d. draws
        seed=seed,
        max_rounds=max_rounds,
        deadline=deadline,
    )
    return _rescaled(
        result,
        factor,
        "ifocus-sum-unknown",
        resolution=resolution,
        known_sizes=False,
        normalized=normalized,
    )
