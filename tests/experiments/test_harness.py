"""Tests for the experiment harness (config, runner, report)."""

from __future__ import annotations

import pytest

from repro.data.synthetic import make_mixture_dataset
from repro.experiments.config import PAPER, SMOKE, current_scale
from repro.experiments.report import FigureResult, format_table
from repro.experiments.runner import TrialResult, mean_percentage_sampled, run_trial, run_trials


class TestConfig:
    def test_smoke_vs_paper(self):
        assert SMOKE.trials < PAPER.trials
        assert max(SMOKE.dataset_sizes) <= max(PAPER.dataset_sizes)
        assert PAPER.dataset_sizes[-1] == 10**10

    def test_current_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert current_scale() is PAPER
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert current_scale() is SMOKE
        monkeypatch.delenv("REPRO_SCALE")
        assert current_scale() is SMOKE
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            current_scale()

    def test_scale_is_frozen(self):
        with pytest.raises(AttributeError):
            SMOKE.trials = 1  # type: ignore[misc]


class TestRunner:
    def test_run_trial_fields(self):
        pop = make_mixture_dataset(k=5, total_size=10_000, seed=1)
        trial = run_trial(pop, "ifocus", delta=0.05, seed=1)
        assert trial.algorithm == "ifocus"
        assert trial.dataset_size == 10_000
        assert 0 < trial.total_samples <= 10_000
        assert trial.percent_sampled == pytest.approx(
            100 * trial.total_samples / 10_000
        )
        assert trial.total_seconds == trial.io_seconds + trial.cpu_seconds
        assert trial.io_seconds > 0  # default cost model charges samples

    def test_r_variant_graded_with_resolution(self):
        pop = make_mixture_dataset(k=5, total_size=10_000, seed=2)
        trial = run_trial(pop, "ifocusr", delta=0.05, resolution=2.0, seed=2)
        assert isinstance(trial.correct, bool)

    def test_run_trials_fresh_datasets(self):
        results = run_trials(
            lambda seed: make_mixture_dataset(k=5, total_size=10_000, seed=seed),
            "ifocus",
            trials=3,
            delta=0.05,
            seed=0,
        )
        assert len(results) == 3
        # Fresh datasets per trial: difficulties differ.
        assert len({r.difficulty for r in results}) > 1

    def test_mean_percentage(self):
        trials = [
            TrialResult("a", 100, 10, 10.0, True, 0, 0, 1, 1.0),
            TrialResult("a", 100, 30, 30.0, True, 0, 0, 1, 1.0),
        ]
        assert mean_percentage_sampled(trials) == pytest.approx(20.0)


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [10, 0.00012]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert "0.00012" in out

    def test_figure_result_column(self):
        fig = FigureResult(
            figure="f", title="t", headers=["x", "y"], rows=[[1, 2], [3, 4]]
        )
        assert fig.column("y") == [2, 4]
        assert "f: t" in fig.format()

    def test_figure_notes_rendered(self):
        fig = FigureResult(
            figure="f", title="t", headers=["x"], rows=[[1]], notes=["hello"]
        )
        assert "note: hello" in fig.format()

    def test_bool_formatting(self):
        assert "yes" in format_table(["ok"], [[True]])
