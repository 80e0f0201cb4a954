"""Top-level transpilation entry points.

:func:`transpile` maps a logical circuit onto a device through the staged
:class:`~repro.transpiler.pipeline.PassManager` (layout → routing → basis
translation → metrics, with per-pass artifact caching), and keeps the
bookkeeping the rest of the framework needs:

* the routed circuit still referencing trainable parameters,
* the physical qubits associated with every trainable parameter
  (``A(g_i)`` in the paper's notation),
* the measurement mapping after routing SWAPs.

:func:`transpile_batch` compiles many (circuit, day) pairs at once with
deduplicated pass work; :func:`legacy_transpile` preserves the original
single-shot path so tests can pin that the pipeline's output is identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from repro.circuits import QuantumCircuit, circuit_structure_digest
from repro.exceptions import TranspilerError
from repro.transpiler.coupling import CouplingMap
from repro.transpiler.layout import Layout, noise_aware_layout, trivial_layout
from repro.transpiler.metrics import CircuitMetrics, physical_metrics
from repro.transpiler.routing import RoutedCircuit, route_circuit
from repro.transpiler.target import Target, coupling_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.calibration.snapshot import CalibrationSnapshot


def validate_initial_layout(
    circuit: QuantumCircuit, coupling: CouplingMap, layout: Layout
) -> None:
    """Check an explicit initial layout against the circuit and device.

    Historically a wrong-sized or out-of-range layout sailed into routing
    and failed deep inside the SWAP search with an opaque ``KeyError``;
    validating up front turns that into a clear :class:`TranspilerError`.
    """
    if layout.num_logical != circuit.num_qubits:
        raise TranspilerError(
            f"initial layout places {layout.num_logical} logical qubits but the "
            f"circuit has {circuit.num_qubits}"
        )
    for logical, physical in enumerate(layout.logical_to_physical):
        if not 0 <= physical < coupling.num_qubits:
            raise TranspilerError(
                f"initial layout maps logical qubit {logical} to physical qubit "
                f"{physical}, outside device {coupling.name!r} with "
                f"{coupling.num_qubits} qubits"
            )


@dataclass
class TranspiledCircuit:
    """Result of mapping a logical circuit onto a physical device."""

    logical: QuantumCircuit
    routed: RoutedCircuit
    coupling: CouplingMap
    target: Optional[Target] = None

    @property
    def initial_layout(self) -> Layout:
        """The pre-routing layout (hosts the data-encoding rotations)."""
        return self.routed.initial_layout

    @property
    def final_mapping(self) -> dict[int, int]:
        """Logical-to-physical mapping after routing's SWAP insertions."""
        return self.routed.final_mapping

    @property
    def ref_physical_qubits(self) -> dict[int, tuple[int, ...]]:
        """Physical qubits touched by each trainable parameter."""
        return self.routed.ref_physical_qubits

    def compilation_digest(self) -> str:
        """Content digest of everything this compilation fixed.

        Covers the routed physical structure, the initial layout (where the
        data encoding lands), the final mapping (where readouts land), and
        the device topology — exactly the compilation-determined inputs of a
        downstream evaluation, so the runtime's evaluation cache can key on
        it.  Two recompilations that landed on identical artifacts (e.g.
        via incremental layout reuse) share the digest and therefore share
        cache entries.
        """
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(circuit_structure_digest(self.routed.circuit).encode())
        hasher.update(str(self.initial_layout.logical_to_physical).encode())
        hasher.update(str(sorted(self.final_mapping.items())).encode())
        hasher.update(coupling_digest(self.coupling).encode())
        return hasher.hexdigest()

    def bind(self, parameters: Sequence[float] | np.ndarray) -> QuantumCircuit:
        """Bind a trainable-parameter vector into the routed circuit."""
        return self.routed.circuit.bind_parameters(parameters)

    def to_physical(self, parameters: Sequence[float] | np.ndarray) -> QuantumCircuit:
        """Bind parameters and translate to the native basis.

        The translated circuit is memoised per parameter digest on the
        *routed artifact* (mirroring the engine's compiled-program cache):
        the online loops re-evaluate the same few bindings across many
        days, and because incremental recompilations share the routed
        artifact, the memo survives per-day rebinds too.  Callers must
        treat the returned circuit as read-only — all existing consumers
        do.
        """
        return self.routed.to_physical(parameters)

    @property
    def active_qubits(self) -> tuple[int, ...]:
        """Sorted physical qubits the compiled circuit touches.

        The routed gates' operands, the encoding layout and the readout
        mapping; computed once per routed artifact.  Noisy evaluation walks
        a register of just these qubits (see :meth:`to_active`).
        """
        return self.routed.active_qubits

    def to_active(self, parameters: Sequence[float] | np.ndarray) -> QuantumCircuit:
        """:meth:`to_physical` on a register of :attr:`active_qubits` only.

        Device qubit ``active_qubits[i]`` is wire ``i``.  Memoised beside
        :meth:`to_physical` on the routed artifact; read-only.
        """
        return self.routed.to_active(parameters)

    def physical_metrics(self, parameters: Sequence[float] | np.ndarray) -> CircuitMetrics:
        """Metrics of the basis-translated circuit for the given parameters."""
        return physical_metrics(self.to_physical(parameters))

    def measured_physical_qubits(self, logical_qubits: Sequence[int]) -> list[int]:
        """Physical qubits to read out for the given logical qubits."""
        return [self.final_mapping[q] for q in logical_qubits]

    def encoding_physical_qubit(self, logical_qubit: int) -> int:
        """Physical qubit that hosts ``logical_qubit`` before the ansatz runs."""
        return self.initial_layout.physical(logical_qubit)


def legacy_transpile(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    calibration: Optional["CalibrationSnapshot"] = None,
    initial_layout: Optional[Layout] = None,
) -> TranspiledCircuit:
    """The single-shot, cache-free transpilation path.

    Kept as the behavioural reference for the *pipeline*: it runs every
    pass from scratch on each call (sharing the same pass implementations,
    including the layout scorer), and equivalence tests pin that the staged
    pipeline — with all its caching and incremental reuse — produces
    identical layouts, routed operations, and mappings on every existing
    call-site shape.
    """
    if circuit.num_qubits > coupling.num_qubits:
        raise TranspilerError(
            f"circuit needs {circuit.num_qubits} qubits but device "
            f"{coupling.name!r} has {coupling.num_qubits}"
        )
    if initial_layout is not None:
        validate_initial_layout(circuit, coupling, initial_layout)
        layout = initial_layout
    elif calibration is not None:
        layout = noise_aware_layout(circuit, coupling, calibration)
    else:
        layout = trivial_layout(circuit.num_qubits, coupling)
    routed = route_circuit(circuit, coupling, layout)
    return TranspiledCircuit(
        logical=circuit,
        routed=routed,
        coupling=coupling,
        target=Target(coupling=coupling, calibration=calibration),
    )


def transpile(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    calibration: Optional["CalibrationSnapshot"] = None,
    initial_layout: Optional[Layout] = None,
    pass_manager=None,
) -> TranspiledCircuit:
    """Map ``circuit`` onto ``coupling`` through the staged pipeline.

    If ``calibration`` is provided the layout pass is noise-aware (it avoids
    the noisiest qubits and couplers of that snapshot); otherwise the trivial
    layout is used.  An explicit ``initial_layout`` overrides both and is
    validated against the circuit and the coupling map up front.

    Compilation runs on ``pass_manager`` (default: the process-wide
    :func:`~repro.transpiler.pipeline.default_pass_manager`), so repeated
    per-day recompilations reuse layout/routing artifacts whenever that is
    provably result-identical.
    """
    from repro.transpiler.pipeline import default_pass_manager

    manager = pass_manager if pass_manager is not None else default_pass_manager()
    return manager.compile(
        circuit,
        coupling=coupling,
        calibration=calibration,
        initial_layout=initial_layout,
    )


def transpile_batch(
    circuits: Union[QuantumCircuit, Sequence[QuantumCircuit]],
    targets: Union[Target, Sequence["Target"]],
    pass_manager=None,
) -> list[TranspiledCircuit]:
    """Compile many (circuit, target) pairs with deduplicated pass work.

    Broadcasts a single circuit across many targets (one model over a
    calibration history) or a single target across many circuits (many
    models onto one device).  See
    :meth:`repro.transpiler.pipeline.PassManager.compile_batch`.
    """
    from repro.transpiler.pipeline import default_pass_manager

    manager = pass_manager if pass_manager is not None else default_pass_manager()
    return manager.compile_batch(circuits, targets)
