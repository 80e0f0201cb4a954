"""The QuCAD framework: offline construction + online management.

:class:`QuCAD` ties the three components of the paper together behind a
two-call API::

    qucad = QuCAD(model, dataset, coupling)
    qucad.offline(offline_history)          # optional, builds the repository
    decision = qucad.online(todays_calibration)
    adapted_parameters = decision.parameters

Skipping :meth:`offline` gives the "QuCAD w/o offline" ablation of Table I:
the repository starts empty and is populated online as unfamiliar
calibrations arrive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.calibration.history import CalibrationHistory
from repro.calibration.snapshot import CalibrationSnapshot
from repro.core.admm import CompressionConfig, NoiseAwareCompressor
from repro.core.constructor import OfflineReport, RepositoryConstructor
from repro.core.manager import ManagerDecision, RepositoryManager
from repro.core.repository import ModelRepository
from repro.datasets.base import Dataset
from repro.exceptions import RepositoryError
from repro.qnn.model import QNNModel
from repro.simulator import (
    DensityMatrixBackend,
    NoiseModel,
    SimulationEngine,
    StatevectorBackend,
)
from repro.transpiler import CouplingMap, PassManager, Target, default_pass_manager
from repro.utils.rng import SeedLike

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime import ExperimentRunner


@dataclass(frozen=True)
class QuCADConfig:
    """Framework-level configuration.

    Training paths run on a statevector backend (adjoint gradients need
    statevector semantics) and noisy evaluation on a density-matrix backend;
    both share the framework's engine.
    """

    compression: CompressionConfig = field(default_factory=CompressionConfig)
    num_clusters: int = 6
    accuracy_requirement: float = 0.0
    eval_test_samples: Optional[int] = 64
    train_samples: Optional[int] = 128
    fallback_relative_threshold: float = 0.3
    seed: SeedLike = 0


class QuCAD:
    """Compression-aided adaptation of a QNN to fluctuating noise.

    One framework instance owns one :class:`~repro.simulator.SimulationEngine`
    and one execution backend; the offline constructor, the compressor, and
    the online manager all share them, so circuit structures compiled during
    the offline stage stay warm for the online stage.
    """

    def __init__(
        self,
        model: QNNModel,
        dataset: Dataset,
        coupling: "CouplingMap | Target",
        config: Optional[QuCADConfig] = None,
        pass_manager: Optional[PassManager] = None,
    ):
        if isinstance(coupling, Target):
            self.target: Optional[Target] = coupling
            coupling = coupling.coupling
        else:
            self.target = None
        self.model = model
        self.dataset = dataset
        self.coupling = coupling
        self.config = config or QuCADConfig()
        self.pass_manager = (
            pass_manager if pass_manager is not None else default_pass_manager()
        )
        self.engine = SimulationEngine()
        self.backend = StatevectorBackend(engine=self.engine)
        self.noisy_backend = DensityMatrixBackend(engine=self.engine)
        self.compressor = NoiseAwareCompressor(
            self.config.compression, backend=self.backend
        )
        self.offline_report: Optional[OfflineReport] = None
        self._manager: Optional[RepositoryManager] = None

    # ------------------------------------------------------------------
    # Offline stage
    # ------------------------------------------------------------------
    def offline(self, offline_history: CalibrationHistory) -> OfflineReport:
        """Build the model repository from historical calibration data."""
        constructor = RepositoryConstructor(
            compressor=self.compressor,
            num_clusters=self.config.num_clusters,
            accuracy_requirement=self.config.accuracy_requirement,
            eval_test_samples=self.config.eval_test_samples,
            train_samples=self.config.train_samples,
            seed=self.config.seed,
            noisy_backend=self.noisy_backend,
        )
        self.offline_report = constructor.build(
            self.model,
            self.dataset,
            offline_history,
            coupling=self.target if self.target is not None else self.coupling,
            pass_manager=self.pass_manager,
        )
        self._manager = self._build_manager(self.offline_report.repository)
        return self.offline_report

    def _build_manager(self, repository: ModelRepository) -> RepositoryManager:
        train_subset = self.dataset.subsample(
            num_train=self.config.train_samples, seed=self.config.seed
        )
        return RepositoryManager(
            repository=repository,
            compressor=self.compressor,
            model=self.model,
            train_features=train_subset.train_features,
            train_labels=train_subset.train_labels,
            accuracy_requirement=self.config.accuracy_requirement,
            fallback_relative_threshold=self.config.fallback_relative_threshold,
            backend=self.backend,
        )

    def _ensure_manager(self, calibration: CalibrationSnapshot) -> RepositoryManager:
        """Create an empty-repository manager on first use (w/o-offline mode)."""
        if self._manager is None:
            if self.model.transpiled is None:
                if self.target is not None and self.target.calibration is not None:
                    # An explicit Target pins the compilation calibration.
                    self.model.bind_to_device(
                        self.target, pass_manager=self.pass_manager
                    )
                else:
                    self.model.bind_to_device(
                        self.coupling,
                        calibration=calibration,
                        pass_manager=self.pass_manager,
                    )
            feature_count = calibration.to_vector().shape[0]
            repository = ModelRepository(
                weights=np.ones(feature_count), threshold=0.0
            )
            self._manager = self._build_manager(repository)
        return self._manager

    # ------------------------------------------------------------------
    # Online stage
    # ------------------------------------------------------------------
    def online(self, calibration: CalibrationSnapshot) -> ManagerDecision:
        """Adapt the model to the current calibration data ``D_c``."""
        manager = self._ensure_manager(calibration)
        return manager.adapt(calibration)

    def adapt_over(self, history: CalibrationHistory) -> list[ManagerDecision]:
        """Run the online stage for every day of ``history`` in order."""
        if len(history) == 0:
            return []
        manager = self._ensure_manager(history[0])
        return manager.adapt_sequence(list(history))

    def evaluate_over(
        self,
        history: CalibrationHistory,
        features: np.ndarray,
        labels: np.ndarray,
        shots: Optional[int] = None,
        seeds: Optional[Sequence] = None,
        runner: Optional["ExperimentRunner"] = None,
    ) -> tuple[list[ManagerDecision], np.ndarray]:
        """Adapt to every day of ``history`` and evaluate each day's model.

        Adaptation stays sequential (the repository grows day by day), but
        the per-day evaluations fan out through the runtime as one batched
        ``evaluate_days`` call — the full online lifecycle of the paper with
        the evaluation cost of a handful of simulations.  Returns the
        per-day decisions and the matching accuracy series.
        """
        from repro.runtime import default_runner

        decisions = self.adapt_over(history)
        if not decisions:
            return [], np.zeros(0)
        runner = runner if runner is not None else default_runner()
        accuracies = runner.evaluate_days(
            self.model,
            features,
            labels,
            [NoiseModel.from_calibration(snapshot) for snapshot in history],
            parameter_sets=[decision.parameters for decision in decisions],
            shots=shots,
            seeds=seeds,
            experiment="qucad/evaluate_over",
            dates=[snapshot.date for snapshot in history],
        )
        return decisions, accuracies

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def manager(self) -> RepositoryManager:
        """The online manager; raises until :meth:`offline` or :meth:`online` ran."""
        if self._manager is None:
            raise RepositoryError(
                "the online manager does not exist yet; call offline() or online() first"
            )
        return self._manager

    @property
    def repository(self) -> ModelRepository:
        """The current model repository served by the manager."""
        return self.manager.repository

    def compile_stats(self) -> dict:
        """Pass/cache counters of the compilation pipeline this framework uses."""
        return self.pass_manager.stats.as_dict()
