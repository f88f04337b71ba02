"""Ablation studies for the design choices DESIGN.md calls out.

Not part of the paper's evaluation - these quantify our implementation
decisions:

* batching - the vectorized executor vs the literal per-round loop
  (identical outputs, large wall-clock difference);
* removal policy - alternative (a) never-reactivate vs alternative (b)
  reactivation (Section 3.1 discusses both; (a) preserves optimality);
* cost model - constant-per-tuple NEEDLETAIL pricing vs the pessimistic
  block-cache model;
* kappa - the paper's footnote claims kappa near 1 changes little.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.ifocus import run_ifocus
from repro.core.reference import run_ifocus_reference
from repro.core.registry import run_algorithm
from repro.data.synthetic import make_mixture_dataset
from repro.engines.memory import InMemoryEngine
from repro.experiments.config import Scale, current_scale
from repro.experiments.report import FigureResult
from repro.experiments.costmodel import (
    BlockCacheCostModel,
    NeedletailCostModel,
    simulated_cost,
)
from repro.viz.properties import check_ordering

__all__ = [
    "ablation_batching",
    "ablation_removal_policy",
    "ablation_cost_model",
    "ablation_kappa",
]


def ablation_batching(scale: Scale | None = None) -> FigureResult:
    """Vectorized executor vs reference loop: wall-clock and equivalence."""
    scale = scale or current_scale()
    size = min(scale.default_size, 60_000)
    rows = []
    for trial in range(3):
        seed = scale.seed + 200 + trial
        # Materialized groups have stream-stable samplers, so the two
        # executors are bit-for-bit identical (virtual groups consume RNG
        # state batch-size-dependently and match only in distribution).
        population = make_mixture_dataset(
            k=scale.k, total_size=size, seed=seed, materialize=True
        )
        engine = InMemoryEngine(population)
        t0 = time.perf_counter()
        fast = run_ifocus(engine, delta=scale.delta, seed=seed)
        t_fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        ref = run_ifocus_reference(engine, delta=scale.delta, seed=seed)
        t_ref = time.perf_counter() - t0
        identical = bool(
            np.allclose(fast.estimates, ref.estimates)
            and np.array_equal(fast.samples_per_group, ref.samples_per_group)
        )
        rows.append(
            [trial, fast.total_samples, t_fast, t_ref, t_ref / max(t_fast, 1e-9), identical]
        )
    return FigureResult(
        figure="ablation-batching",
        title="Vectorized executor vs reference loop",
        headers=["trial", "samples", "fast_s", "reference_s", "speedup", "identical"],
        rows=rows,
    )


def ablation_removal_policy(scale: Scale | None = None) -> FigureResult:
    """Never-reactivate (a) vs reactivation (b)."""
    scale = scale or current_scale()
    size = min(scale.default_size, 100_000)
    rows = []
    for policy, reactivate in (("a: never-reactivate", False), ("b: reactivate", True)):
        samples, correct = [], []
        for t in range(scale.trials):
            seed = scale.seed + 300 + t
            population = make_mixture_dataset(k=scale.k, total_size=size, seed=seed)
            engine = InMemoryEngine(population)
            res = run_ifocus_reference(
                engine, delta=scale.delta, seed=seed, reactivation=reactivate
            )
            samples.append(res.total_samples)
            correct.append(check_ordering(res.estimates, population.true_means()))
        rows.append([policy, float(np.mean(samples)), float(np.mean(correct))])
    return FigureResult(
        figure="ablation-removal",
        title="Active-set removal policy (Section 3.1 alternatives)",
        headers=["policy", "mean_samples", "accuracy"],
        rows=rows,
        notes=["(b) may take extra samples; optimality is only proven for (a)"],
    )


def ablation_cost_model(scale: Scale | None = None) -> FigureResult:
    """Constant-per-tuple vs block-cache pricing.

    Two regimes, both reported:

    * ``sparse-10k``: 10k samples over a 1e9-row table (pages >> samples) -
      the regime where the block-cache model is pessimistic, pricing every
      fresh 4 KB page as a random read;
    * algorithm runs at a moderate size, where dense sampling saturates the
      cache and the block-cache total is *capped* at pages x read_time
      (so it can undercut the constant model - cache hits are free I/O).
    """
    scale = scale or current_scale()
    rows = []

    # Sparse unit comparison: same 10k samples, both models, huge table.
    sparse_rows, sparse_samples = 10**9, 10_000
    io_const, _ = NeedletailCostModel().sample_cost(sparse_samples)
    io_cache, _ = BlockCacheCostModel(total_rows=sparse_rows).sample_cost(sparse_samples)
    rows.append(["(unit) sparse-10k", "constant", sparse_samples, io_const, 0.0])
    rows.append(["(unit) sparse-10k", "block-cache", sparse_samples, io_cache, 0.0])

    size = min(scale.default_size, 200_000)
    models = {
        "constant": NeedletailCostModel(),
        "block-cache": BlockCacheCostModel(total_rows=size),
    }
    for alg in ("ifocus", "roundrobin", "scan"):
        population = make_mixture_dataset(
            k=scale.k, total_size=size, seed=scale.seed + 400
        )
        res = run_algorithm(
            alg, InMemoryEngine(population), delta=scale.delta, seed=scale.seed + 400
        )
        for model_name, cm in models.items():
            io, cpu = simulated_cost(res.stats, cm)
            rows.append([alg, model_name, res.total_samples, io, cpu])
    return FigureResult(
        figure="ablation-costmodel",
        title="Cost-model ablation: constant-per-tuple vs block-cache",
        headers=["workload", "model", "samples", "io_s", "cpu_s"],
        rows=rows,
        notes=[
            "block-cache prices first touches of 4 KB pages as random reads; "
            "pessimistic for sparse sampling, capped for dense sampling",
        ],
    )


def ablation_kappa(scale: Scale | None = None) -> FigureResult:
    """Effect of the kappa grid parameter (paper footnote: ~none near 1)."""
    scale = scale or current_scale()
    size = min(scale.default_size, 100_000)
    rows = []
    for kappa in (1.0, 1.01, 1.1, 1.5, 2.0):
        samples, correct = [], []
        for t in range(scale.trials):
            seed = scale.seed + 500 + t
            population = make_mixture_dataset(k=scale.k, total_size=size, seed=seed)
            engine = InMemoryEngine(population)
            res = run_ifocus(engine, delta=scale.delta, kappa=kappa, seed=seed)
            samples.append(res.total_samples)
            correct.append(check_ordering(res.estimates, population.true_means()))
        rows.append([kappa, float(np.mean(samples)), float(np.mean(correct))])
    return FigureResult(
        figure="ablation-kappa",
        title="kappa sensitivity (paper footnote: kappa ~ 1 is immaterial)",
        headers=["kappa", "mean_samples", "accuracy"],
        rows=rows,
    )
