"""Tiny-scale smoke tests for every figure/table function.

These run each experiment at a micro scale (much smaller than the benchmark
smoke scale) so the plain test suite stays fast while still executing every
code path end to end.  Shape assertions live in the benchmark suite.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    ablation_batching,
    ablation_cost_model,
    ablation_kappa,
    ablation_removal_policy,
    headline_claims,
    fig3a_percentage_vs_size,
    fig3b_samples_vs_time,
    fig3c_percentage_vs_delta,
    fig4_runtime_vs_size,
    fig5a_heuristic_accuracy,
    fig5b_heuristic_accuracy_hard,
    fig5c_active_groups_convergence,
    fig6a_incorrect_pairs,
    fig6b_percentage_vs_groups,
    fig6c_difficulty_vs_groups,
    fig7a_percentage_vs_skew,
    fig7b_percentage_vs_std,
    fig7c_difficulty_vs_std,
    table1_execution_trace,
    table3_flights_runtimes,
)
from repro.experiments.config import SMOKE, Scale
from tests.conftest import PINNED, assert_rows_pinned

MICRO = Scale(
    name="micro",
    dataset_sizes=(20_000, 50_000),
    default_size=20_000,
    trials=2,
    group_counts=(3, 5),
    skew_fractions=(0.2, 0.8),
    deltas=(0.05, 0.5),
    stds=(2.0, 10.0),
    heuristic_factors=(1.0, 16.0),
    hard_factors=(1.0, 1.2),
    hard_gamma=1.0,
    flights_sizes=(10**4, 10**5),
    groups_size_each=4_000,
)

ALL_FIGS = [
    fig3a_percentage_vs_size,
    fig3b_samples_vs_time,
    fig3c_percentage_vs_delta,
    fig4_runtime_vs_size,
    fig5a_heuristic_accuracy,
    fig5b_heuristic_accuracy_hard,
    fig5c_active_groups_convergence,
    fig6a_incorrect_pairs,
    fig6b_percentage_vs_groups,
    fig6c_difficulty_vs_groups,
    fig7a_percentage_vs_skew,
    fig7b_percentage_vs_std,
    fig7c_difficulty_vs_std,
    table1_execution_trace,
    table3_flights_runtimes,
    headline_claims,
    ablation_batching,
    ablation_cost_model,
    ablation_kappa,
    ablation_removal_policy,
]


@pytest.mark.integration
@pytest.mark.parametrize("fig_fn", ALL_FIGS, ids=lambda f: f.__name__)
def test_figure_runs_and_formats(fig_fn):
    fig = fig_fn(MICRO)
    assert fig.rows, fig.figure
    text = fig.format()
    assert fig.figure in text
    # Every row matches the header width.
    for row in fig.rows:
        assert len(row) == len(fig.headers)
    if fig.figure in PINNED["micro"]:
        assert_rows_pinned(fig, PINNED["micro"][fig.figure])


@pytest.mark.parametrize("fig_fn", [headline_claims, ablation_cost_model], ids=lambda f: f.__name__)
def test_smoke_scale_seconds_are_pinned(fig_fn):
    # The smoke-scale table3 and fig4 pins (~1 min) are checked only by
    # their benchmarks, benchmarks/bench_table3_flights.py and
    # benchmarks/bench_fig4_runtime.py.
    fig = fig_fn(SMOKE)
    assert_rows_pinned(fig, PINNED["smoke"][fig.figure])
