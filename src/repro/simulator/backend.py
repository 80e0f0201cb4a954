"""Unified execution backends: one ``execute`` entry point for every path.

Historically each consumer (``qnn/model.py``, ``qnn/trainer.py``,
``core/manager.py``, ...) constructed its own
:class:`~repro.simulator.statevector.StatevectorSimulator` or
:class:`~repro.simulator.density_matrix.DensityMatrixSimulator` ad hoc, so
nothing was shared or cached between calls.  This module funnels all of them
through a single protocol::

    backend = StatevectorBackend()
    results = backend.execute_batch(circuit, parameter_sets, initial_states)
    logits = results[0].expectation_z(readout_qubits)

Two backends cover the paper's two execution environments:

* :class:`StatevectorBackend` — the ideal environment ``W_p(theta)``
  (noise-free statevector simulation, compiled + fused via the
  :class:`~repro.simulator.engine.SimulationEngine`);
* :class:`DensityMatrixBackend` — the noisy environment ``W_n(theta)``
  (density matrices under a calibration-derived noise model).  Shot
  sampling (the Fig. 8 hardware regime) happens on its results
  (``sample_expectation_z``).

The backends are batch-first: ``execute_batch`` (one circuit structure, many
bindings) is the only execution path, and ``execute`` is a one-binding view
of it.  Every backend shares one :class:`SimulationEngine`, so compiled
programs are reused across models, trainers, and the repository manager.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence, Union, runtime_checkable

import numpy as np

from repro.circuits import QuantumCircuit
from repro.exceptions import SimulationError
from repro.simulator.density_matrix import DensityMatrixResult, DensityMatrixSimulator
from repro.simulator.engine import (
    SimulationEngine,
    circuit_structure_digest,
    default_engine,
    parameter_digest,
)
from repro.simulator.noise_model import NoiseModel
from repro.simulator.statevector import StatevectorResult, StatevectorSimulator
from repro.utils.rng import SeedLike

CircuitOrCircuits = Union[QuantumCircuit, Sequence[QuantumCircuit]]

NoiseModelOrModels = Union[None, NoiseModel, Sequence[Optional[NoiseModel]]]


@runtime_checkable
class Backend(Protocol):
    """The unified execution interface.

    ``execute`` accepts a single circuit (returning a single result) or a
    sequence of circuits (returning a list of results, one per circuit, all
    sharing the same initial states).  Results expose ``probabilities()`` and
    ``expectation_z(qubits)`` regardless of the underlying representation.

    ``execute_batch`` is the vectorised many-bindings entry point: one
    circuit structure, many parameter bindings / noise models / seeds, one
    result per binding.  ``execute`` is a view of it with every circuit
    bound the same way.
    """

    name: str

    def execute(
        self,
        circuits: CircuitOrCircuits,
        initial_states: Optional[np.ndarray] = None,
        *,
        parameters: Optional[np.ndarray] = None,
        batch: int = 1,
        noise_model: Optional[NoiseModel] = None,
        shots: Optional[int] = None,
        seed: SeedLike = None,
    ):
        """Run the circuit(s) and return result object(s)."""
        ...

    def execute_batch(
        self,
        circuits: CircuitOrCircuits,
        parameter_sets: Optional[Sequence[Optional[np.ndarray]]] = None,
        initial_states: Optional[np.ndarray] = None,
        *,
        batch: int = 1,
        noise_models: NoiseModelOrModels = None,
        shots: Optional[int] = None,
        seeds: Optional[Sequence[SeedLike]] = None,
    ) -> list:
        """Run many bindings of one program; one result per binding."""
        ...

    def simulator(self, num_qubits: int):
        """A (cached) low-level simulator for state preparation/encoding."""
        ...


class _EngineBackend:
    """Shared plumbing: engine handle, simulator cache, list dispatch."""

    name = "abstract"
    #: Rank of one *shared* initial-state array (statevectors: ``(batch, dim)``
    #: is rank 2; density matrices: rank 3).  One rank higher means the caller
    #: supplied per-binding stacks.
    _state_rank = 2

    def __init__(self, engine: Optional[SimulationEngine] = None):
        self.engine = engine if engine is not None else default_engine()
        self._simulators: dict[int, object] = {}

    def _make_simulator(self, num_qubits: int):
        raise NotImplementedError

    def simulator(self, num_qubits: int):
        """Per-qubit-count simulator, constructed once and reused."""
        simulator = self._simulators.get(num_qubits)
        if simulator is None:
            simulator = self._make_simulator(num_qubits)
            self._simulators[num_qubits] = simulator
        return simulator

    def execute(
        self,
        circuits: CircuitOrCircuits,
        initial_states: Optional[np.ndarray] = None,
        *,
        parameters: Optional[np.ndarray] = None,
        batch: int = 1,
        noise_model: Optional[NoiseModel] = None,
        shots: Optional[int] = None,
        seed: SeedLike = None,
    ):
        """Run the circuit(s) under one shared binding: a view of ``execute_batch``.

        A single circuit returns a single result; a sequence returns one
        result per circuit, all started from the same ``initial_states``.
        """
        single = isinstance(circuits, QuantumCircuit)
        items = [circuits] if single else list(circuits)
        results = self.execute_batch(
            items,
            [parameters] * len(items),
            initial_states,
            batch=batch,
            noise_models=[noise_model] * len(items),
            shots=shots,
            seeds=[seed] * len(items),
        )
        return results[0] if single else results

    # -- batched execution ----------------------------------------------
    def _normalize_batch(
        self,
        circuits: CircuitOrCircuits,
        parameter_sets,
        initial_states,
        noise_models,
        seeds,
    ):
        """Broadcast the batch arguments to per-binding lists.

        Returns ``(circuits, parameter_sets, initial_states, noise_models,
        seeds)`` where every element is a list of the common batch length and
        ``initial_states`` is either ``None``, a shared array, or a
        per-binding list of arrays.
        """
        lengths = []
        if not isinstance(circuits, QuantumCircuit):
            circuits = list(circuits)
            lengths.append(len(circuits))
        if parameter_sets is not None:
            parameter_sets = list(parameter_sets)
            lengths.append(len(parameter_sets))
        if isinstance(noise_models, Sequence):
            noise_models = list(noise_models)
            lengths.append(len(noise_models))
        if seeds is not None:
            seeds = list(seeds)
            lengths.append(len(seeds))
        per_item_states = None
        if initial_states is not None:
            initial_states = np.asarray(initial_states)
            if initial_states.ndim > self._state_rank:
                per_item_states = list(initial_states)
                lengths.append(len(per_item_states))
        if not lengths:
            raise SimulationError(
                "execute_batch needs at least one per-binding sequence "
                "(parameter_sets, circuits, noise_models, seeds, or stacked "
                "initial states)"
            )
        count = lengths[0]
        if any(length != count for length in lengths):
            raise SimulationError(
                f"execute_batch received mismatched batch lengths {lengths}"
            )
        if isinstance(circuits, QuantumCircuit):
            circuits = [circuits] * count
        if parameter_sets is None:
            parameter_sets = [None] * count
        if not isinstance(noise_models, list):
            noise_models = [noise_models] * count
        if seeds is None:
            seeds = [None] * count
        if per_item_states is not None:
            states = per_item_states
        else:
            states = [initial_states] * count
        return circuits, parameter_sets, states, noise_models, seeds


class StatevectorBackend(_EngineBackend):
    """Ideal (noise-free) execution — the paper's ``W_p(theta)``.

    Circuits are compiled through the engine's fusion + LRU pipeline, so
    re-executing the same structure with the same parameters costs only the
    fused matrix applications.
    """

    name = "statevector"

    def _make_simulator(self, num_qubits: int) -> StatevectorSimulator:
        return StatevectorSimulator(num_qubits, dtype=self.engine.complex_dtype)

    def _prepare_states(
        self, circuit: QuantumCircuit, initial_states, batch: int
    ) -> np.ndarray:
        simulator = self.simulator(circuit.num_qubits)
        if initial_states is None:
            return simulator.zero_state(batch)
        states = np.array(initial_states, dtype=self.engine.complex_dtype, copy=True)
        if states.ndim == 1:
            states = states[None, :]
        if states.shape[-1] != simulator.dim:
            raise SimulationError(
                f"initial states of dimension {states.shape[-1]} do not match "
                f"{circuit.num_qubits} qubits"
            )
        return states

    def _evolve_batch(
        self, circuits, parameter_sets, per_item_states, batch: int
    ) -> list[np.ndarray]:
        """Evolve every binding, vectorised when the structures allow it.

        Returns one evolved ``(batch, dim)`` array per binding.  Bindings
        with heterogeneous structures (or batch shapes) run one engine call
        per binding.
        """
        try:
            stacked = np.stack(
                [
                    self._prepare_states(circuit, item, batch)
                    for circuit, item in zip(circuits, per_item_states)
                ]
            )
            evolved = self.engine.run_statevector_multi(
                circuits, stacked, parameter_sets
            )
            return list(evolved)
        except (SimulationError, ValueError):
            return [
                self.engine.run_statevector(
                    circuit, self._prepare_states(circuit, item, batch), parameters
                )
                for circuit, parameters, item in zip(
                    circuits, parameter_sets, per_item_states
                )
            ]

    def execute_batch(
        self,
        circuits: CircuitOrCircuits,
        parameter_sets: Optional[Sequence[Optional[np.ndarray]]] = None,
        initial_states: Optional[np.ndarray] = None,
        *,
        batch: int = 1,
        noise_models: NoiseModelOrModels = None,
        shots: Optional[int] = None,
        seeds: Optional[Sequence[SeedLike]] = None,
    ) -> list[StatevectorResult]:
        """Vectorised multi-binding execution (single stacked-matmul sweep).

        Bindings that share one circuit structure evolve in one engine call;
        otherwise each binding runs as its own one-group engine call.  Both
        perform the same elementary matmuls, so results are bit-identical.
        """
        circuits, parameter_sets, states, noise_models, seeds = self._normalize_batch(
            circuits, parameter_sets, initial_states, noise_models, seeds
        )
        if any(model is not None for model in noise_models):
            raise SimulationError(
                "the statevector backend is noise-free; use the density_matrix "
                "backend for noisy execution"
            )
        evolved = self._evolve_batch(circuits, parameter_sets, states, batch)
        return [
            StatevectorResult(states=group, num_qubits=circuit.num_qubits)
            for circuit, group in zip(circuits, evolved)
        ]


class DensityMatrixBackend(_EngineBackend):
    """Noisy execution — the paper's ``W_n(theta)``.

    A noise model can be fixed at construction (e.g. one backend per
    calibration day) or passed per call; the per-call model wins.  Without
    any noise model the engine's fused program is used; with one, cached
    per-gate matrices are walked so every gate's depolarizing channel lands
    in the right place.
    """

    name = "density_matrix"
    _state_rank = 3

    def __init__(
        self,
        engine: Optional[SimulationEngine] = None,
        noise_model: Optional[NoiseModel] = None,
    ):
        super().__init__(engine=engine)
        self.noise_model = noise_model

    def _make_simulator(self, num_qubits: int) -> DensityMatrixSimulator:
        return DensityMatrixSimulator(num_qubits, dtype=self.engine.complex_dtype)

    def _prepare_rho(self, circuit: QuantumCircuit, initial_states, batch: int) -> np.ndarray:
        simulator = self.simulator(circuit.num_qubits)
        if initial_states is None:
            return simulator.zero_state(batch)
        rho = np.array(initial_states, dtype=self.engine.complex_dtype, copy=True)
        if rho.ndim == 2:
            rho = rho[None, :, :]
        if rho.shape[-1] != simulator.dim:
            raise SimulationError(
                f"initial density matrices of dimension {rho.shape[-1]} do "
                f"not match {circuit.num_qubits} qubits"
            )
        return rho

    def execute_batch(
        self,
        circuits: CircuitOrCircuits,
        parameter_sets: Optional[Sequence[Optional[np.ndarray]]] = None,
        initial_states: Optional[np.ndarray] = None,
        *,
        batch: int = 1,
        noise_models: NoiseModelOrModels = None,
        shots: Optional[int] = None,
        seeds: Optional[Sequence[SeedLike]] = None,
    ) -> list[DensityMatrixResult]:
        """Vectorised multi-binding noisy execution.

        All bindings (e.g. calibration days) are flattened into one
        super-batch: every gate is applied once across all bindings, and each
        gate's depolarizing channel carries per-binding strengths.  Bindings
        are grouped by (structure, parameter binding) and each group is one
        engine walk, a single binding included.
        ``shots`` / ``seeds`` do not affect evolution here — sampling happens
        on the returned results (``sample_expectation_z``).
        """
        circuits, parameter_sets, states, noise_models, seeds = self._normalize_batch(
            circuits, parameter_sets, initial_states, noise_models, seeds
        )
        models = [
            model if model is not None else self.noise_model
            for model in noise_models
        ]
        prepared = [
            self._prepare_rho(circuit, item, batch)
            for circuit, item in zip(circuits, states)
        ]
        # Bindings that share one bound circuit (same structure *and*
        # parameters — e.g. one model across many calibration days)
        # evolve under broadcast 2-D gate matrices, the cheap vectorised
        # regime; group them so no binding pays for per-sample matrix
        # stacks, and a batch of all-distinct bindings degenerates to
        # the per-binding loop instead of something slower.  A
        # single-binding batch skips the digest bookkeeping entirely.
        groups: dict[tuple[str, str], list[int]] = {}
        if len(circuits) == 1:
            groups[("", "")] = [0]
        elif all(c is circuits[0] for c in circuits[1:]) and all(
            p is parameter_sets[0] for p in parameter_sets[1:]
        ):
            # The day-sweep regime: every binding shares one physical
            # circuit object and one parameter binding, so the whole
            # batch is one group — skip the per-binding digests (they
            # hash the full gate list and dominate small batches).
            groups[("", "")] = list(range(len(circuits)))
        else:
            for index, (circuit, parameters) in enumerate(
                zip(circuits, parameter_sets)
            ):
                key = (
                    circuit_structure_digest(circuit),
                    parameter_digest(circuit, parameters),
                )
                groups.setdefault(key, []).append(index)
        results: list[Optional[DensityMatrixResult]] = [None] * len(circuits)
        for indices in groups.values():
            stacked = np.stack([prepared[index] for index in indices])
            evolved = self.engine.run_density_multi(
                [circuits[index] for index in indices],
                stacked,
                noise_models=[models[index] for index in indices],
                parameter_sets=[parameter_sets[index] for index in indices],
            )
            for index, group in zip(indices, evolved):
                results[index] = DensityMatrixResult(
                    rho=group,
                    num_qubits=circuits[index].num_qubits,
                    noise_model=models[index],
                )
        return results


# ---------------------------------------------------------------------------
# Shared defaults
# ---------------------------------------------------------------------------

_default_statevector: Optional[StatevectorBackend] = None
_default_density: Optional[DensityMatrixBackend] = None


def default_statevector_backend() -> StatevectorBackend:
    """Process-wide ideal backend (shares :func:`default_engine`)."""
    global _default_statevector
    if _default_statevector is None or _default_statevector.engine is not default_engine():
        _default_statevector = StatevectorBackend()
    return _default_statevector


def default_density_backend() -> DensityMatrixBackend:
    """Process-wide noisy backend (shares :func:`default_engine`)."""
    global _default_density
    if _default_density is None or _default_density.engine is not default_engine():
        _default_density = DensityMatrixBackend()
    return _default_density
