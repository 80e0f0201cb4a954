"""Quantum-state simulators, noise models, and the compiled execution engine.

Layer map:

* :mod:`~repro.simulator.ops` — low-level batched tensor contractions;
* :mod:`~repro.simulator.statevector` / :mod:`~repro.simulator.density_matrix`
  — the two state representations (ideal ``W_p`` and noisy ``W_n``);
* :mod:`~repro.simulator.engine` — gate fusion + compiled-circuit LRU cache;
* :mod:`~repro.simulator.backend` — the unified, batch-first
  ``Backend.execute_batch`` API that the qnn and core layers route through.
"""

from repro.simulator.backend import (
    Backend,
    DensityMatrixBackend,
    StatevectorBackend,
    default_density_backend,
    default_statevector_backend,
)
from repro.simulator.density_matrix import DensityMatrixResult, DensityMatrixSimulator
from repro.simulator.engine import (
    BoundCircuit,
    CompiledProgram,
    EngineStats,
    FusedGate,
    FusionBlock,
    FusionPlan,
    SimulationEngine,
    build_fusion_plan,
    circuit_structure_digest,
    default_engine,
    parameter_digest,
    resolve_precision,
    set_default_engine,
)
from repro.simulator.noise_channels import (
    AmplitudeDampingChannel,
    BitFlipChannel,
    DepolarizingChannel,
    PhaseDampingChannel,
    PhaseFlipChannel,
    ReadoutError,
)
from repro.simulator.noise_model import VIRTUAL_GATES, NoiseModel
from repro.simulator.statevector import StatevectorResult, StatevectorSimulator
from repro.simulator import ops

__all__ = [
    "Backend",
    "BoundCircuit",
    "CompiledProgram",
    "DensityMatrixBackend",
    "DensityMatrixResult",
    "DensityMatrixSimulator",
    "EngineStats",
    "FusedGate",
    "FusionBlock",
    "FusionPlan",
    "SimulationEngine",
    "StatevectorBackend",
    "StatevectorResult",
    "StatevectorSimulator",
    "NoiseModel",
    "VIRTUAL_GATES",
    "DepolarizingChannel",
    "BitFlipChannel",
    "PhaseFlipChannel",
    "AmplitudeDampingChannel",
    "PhaseDampingChannel",
    "ReadoutError",
    "build_fusion_plan",
    "circuit_structure_digest",
    "default_density_backend",
    "default_engine",
    "default_statevector_backend",
    "parameter_digest",
    "resolve_precision",
    "set_default_engine",
    "ops",
]
