"""The 146-day longitudinal evaluation harness behind Table I and Fig. 7.

For every adaptation method and every online day the harness asks the method
for its parameters, evaluates them under that day's noise model, and collects
the per-day accuracy series.  Summaries match the columns of Table I: mean
accuracy, variance, and the number of days above 0.8 / 0.7 / 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.baselines import AdaptationMethod
from repro.experiments.context import ExperimentSetup
from repro.runtime import ExperimentRunner, default_runner
from repro.utils.rng import ensure_rng

#: Accuracy thresholds reported in Table I.
TABLE1_THRESHOLDS: tuple[float, ...] = (0.8, 0.7, 0.5)


@dataclass
class MethodRun:
    """Per-day accuracy series and cost counters for one method."""

    method_name: str
    daily_accuracy: np.ndarray
    optimization_runs: int
    optimization_seconds: float

    @property
    def mean_accuracy(self) -> float:
        """Mean daily accuracy over the evaluated days."""
        return float(self.daily_accuracy.mean()) if self.daily_accuracy.size else float("nan")

    @property
    def variance(self) -> float:
        """Variance of the daily accuracy (the stability column of Table I)."""
        return float(self.daily_accuracy.var()) if self.daily_accuracy.size else float("nan")

    def days_over(self, threshold: float) -> int:
        """Number of days with accuracy strictly above ``threshold``."""
        return int(np.sum(self.daily_accuracy > threshold))

    def summary(self) -> dict:
        """The Table I row for this method."""
        row = {
            "method": self.method_name,
            "mean_accuracy": self.mean_accuracy,
            "variance": self.variance,
            "optimization_runs": self.optimization_runs,
            "optimization_seconds": self.optimization_seconds,
        }
        for threshold in TABLE1_THRESHOLDS:
            row[f"days_over_{threshold:.1f}"] = self.days_over(threshold)
        return row


@dataclass
class LongitudinalResult:
    """All method runs for one dataset."""

    dataset_name: str
    num_days: int
    runs: list[MethodRun] = field(default_factory=list)

    def run_for(self, method_name: str) -> MethodRun:
        """The recorded run for ``method_name``."""
        for run in self.runs:
            if run.method_name == method_name:
                return run
        raise KeyError(f"no run recorded for method {method_name!r}")

    def summary_rows(self, baseline_name: str = "baseline") -> list[dict]:
        """Table I rows including the "vs. baseline" delta columns."""
        try:
            baseline = self.run_for(baseline_name)
        except KeyError:
            baseline = None
        rows = []
        for run in self.runs:
            row = run.summary()
            if baseline is not None:
                row["mean_accuracy_vs_baseline"] = run.mean_accuracy - baseline.mean_accuracy
                for threshold in TABLE1_THRESHOLDS:
                    key = f"days_over_{threshold:.1f}"
                    row[f"{key}_vs_baseline"] = row[key] - baseline.summary()[key]
            rows.append(row)
        return rows


def run_longitudinal(
    setup: ExperimentSetup,
    methods: Sequence[AdaptationMethod],
    num_days: Optional[int] = None,
    shots: Optional[int] = None,
    runner: Optional[ExperimentRunner] = None,
) -> LongitudinalResult:
    """Evaluate every method across the online calibration history.

    Each method's *adaptation* runs sequentially (the repository methods
    carry state from day to day), but the per-day *evaluations* are handed
    to the runtime in bulk: one :meth:`ExperimentRunner.evaluate_days` call
    per method, which chunks the days into vectorised multi-binding backend
    calls and fans the chunks out over the runner's worker pool.  Seeds are
    drawn in the same (method, day) order as the historical per-day loop, so
    results are bit-identical to sequential evaluation.

    Parameters
    ----------
    setup:
        Prepared experiment (dataset, device, histories, trained base model).
    methods:
        Instantiated adaptation methods; ``prepare`` is called here.
    num_days:
        Optionally restrict to the first ``num_days`` online days.
    shots:
        Measurement shots per evaluation; defaults to the scale's setting.
    runner:
        Evaluation runner; defaults to :func:`repro.runtime.default_runner`
        (a ``serial`` runner); pass ``ExperimentRunner(mode="pool")`` to fan
        day chunks out over worker processes.
    """
    online = setup.online_history
    if num_days is not None:
        online = online[:num_days]
    noise_models = setup.noise_models(online)
    eval_subset = setup.eval_subset()
    shots = shots if shots is not None else setup.scale.shots
    context = setup.method_context()
    rng = ensure_rng(setup.scale.seed)
    runner = runner if runner is not None else default_runner()
    dates = [snapshot.date for snapshot in online]

    result = LongitudinalResult(dataset_name=setup.dataset_name, num_days=len(online))
    for method in methods:
        method.prepare(context)
        parameters_per_day = []
        seeds = []
        for snapshot in online:
            parameters_per_day.append(method.parameters_for_day(snapshot))
            seeds.append(int(rng.integers(0, 2**31 - 1)))
        accuracies = runner.evaluate_days(
            setup.base_model,
            eval_subset.test_features,
            eval_subset.test_labels,
            noise_models,
            parameter_sets=parameters_per_day,
            shots=shots,
            seeds=seeds,
            experiment=f"longitudinal/{setup.dataset_name}/{method.name}",
            dates=dates,
        )
        result.runs.append(
            MethodRun(
                method_name=method.name,
                daily_accuracy=np.asarray(accuracies),
                optimization_runs=method.optimization_runs,
                optimization_seconds=method.optimization_seconds,
            )
        )
    return result
