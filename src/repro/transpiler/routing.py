"""SWAP routing onto a restricted coupling map.

The router walks the circuit in order, maintaining the current
logical-to-physical mapping.  When a two-qubit gate addresses physical qubits
that are not adjacent, SWAPs are inserted along a shortest path until the
operands meet.  The result records, for every *original* gate, the physical
qubits it ended up acting on — exactly the association ``A(g_i)`` that the
noise-aware compression algorithm needs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.circuits import QuantumCircuit, parameter_digest
from repro.exceptions import TranspilerError
from repro.gates import Gate
from repro.transpiler.coupling import CouplingMap
from repro.transpiler.layout import Layout
from repro.utils.lru import lru_get, lru_put

#: Per-routing capacity of the basis-translation memo (device-width and
#: compacted translations of distinct parameter bindings held at once; the
#: online loops cycle through a handful).
PHYSICAL_CACHE_SIZE = 128


@dataclass
class RoutedCircuit:
    """A circuit mapped and routed onto physical qubits.

    Attributes
    ----------
    circuit:
        The routed circuit on ``coupling.num_qubits`` physical qubits.  Gates
        keep their ``param_ref`` so the routed circuit can still be bound to
        a trainable-parameter vector.
    coupling:
        The device coupling map used for routing.
    initial_layout:
        Logical-to-physical map before the first gate.
    final_mapping:
        ``{logical: physical}`` map after the last gate (SWAPs permute it).
    gate_physical_qubits:
        For each gate of the *original* circuit (same order), the physical
        qubits it acts on after routing.
    ref_physical_qubits:
        ``{param_ref: physical qubit tuple}`` for every trainable gate — the
        association ``A(g_i)`` consumed by noise-aware compression.
    num_swaps:
        Number of SWAP gates inserted.
    active_qubits:
        Sorted physical qubits the artifact touches — every routed gate's
        operands, the initial layout (where the encoding lands) and the
        final mapping (where readouts land).  The remaining device qubits
        stay in ``|0>``, receive no gate and no channel, and are never read.
    """

    circuit: QuantumCircuit
    coupling: CouplingMap
    initial_layout: Layout
    final_mapping: dict[int, int]
    gate_physical_qubits: list[tuple[int, ...]]
    ref_physical_qubits: dict[int, tuple[int, ...]]
    num_swaps: int
    active_qubits: tuple[int, ...] = field(init=False)
    _physical_cache: OrderedDict = field(
        default_factory=OrderedDict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        touched = set(self.initial_layout.logical_to_physical)
        touched.update(self.final_mapping.values())
        for gate in self.circuit.gates:
            touched.update(gate.qubits)
        self.active_qubits = tuple(sorted(touched))

    def measured_physical_qubits(self, logical_qubits: list[int]) -> list[int]:
        """Physical qubits to measure for the given logical readout qubits."""
        return [self.final_mapping[q] for q in logical_qubits]

    def to_physical(self, parameters: Sequence[float] | np.ndarray) -> QuantumCircuit:
        """Bind parameters and translate to the native basis, memoised.

        The memo lives on the routed artifact — the object the pipeline
        shares across incremental per-day recompilations — so the online
        loops that re-evaluate the same few bindings across many days pay
        for basis translation once per binding, not once per day.  Returned
        circuits are shared: callers must treat them as read-only.
        """
        return self._translated(parameters, compact=False)

    def to_active(self, parameters: Sequence[float] | np.ndarray) -> QuantumCircuit:
        """:meth:`to_physical` compacted onto :attr:`active_qubits`, memoised.

        Device qubit ``active_qubits[i]`` becomes wire ``i`` of a register
        of ``len(active_qubits)`` qubits; gate order, names and angles are
        unchanged.  Memoised in the same per-routing LRU as
        :meth:`to_physical`; returned circuits are shared and read-only.
        """
        return self._translated(parameters, compact=True)

    def _translated(self, parameters, compact: bool) -> QuantumCircuit:
        from repro.transpiler.basis import to_basis

        parameters = np.asarray(parameters, dtype=float)
        key = (compact, parameter_digest(self.circuit, parameters))
        cached = lru_get(self._physical_cache, key)
        if cached is not None:
            return cached
        translated = to_basis(self.circuit.bind_parameters(parameters))
        if compact:
            wires = {qubit: wire for wire, qubit in enumerate(self.active_qubits)}
            translated = translated.remap_qubits(wires, len(wires))
        lru_put(self._physical_cache, key, translated, PHYSICAL_CACHE_SIZE)
        return translated


def route_circuit(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    layout: Optional[Layout] = None,
) -> RoutedCircuit:
    """Route ``circuit`` onto ``coupling`` starting from ``layout``.

    Uses greedy shortest-path SWAP insertion, which is adequate for the small
    ring-entangled ansatzes of the paper (and deterministic, which matters
    for reproducibility).
    """
    if layout is None:
        from repro.transpiler.layout import trivial_layout

        layout = trivial_layout(circuit.num_qubits, coupling)
    if layout.num_logical != circuit.num_qubits:
        raise TranspilerError(
            f"layout covers {layout.num_logical} logical qubits, circuit has "
            f"{circuit.num_qubits}"
        )

    logical_to_physical = dict(layout.as_dict())
    physical_to_logical = {p: l for l, p in logical_to_physical.items()}

    routed = QuantumCircuit(coupling.num_qubits, name=f"{circuit.name}@{coupling.name}")
    gate_physical: list[tuple[int, ...]] = []
    ref_physical: dict[int, tuple[int, ...]] = {}
    num_swaps = 0

    def swap_physical(pa: int, pb: int) -> None:
        """Insert a SWAP between adjacent physical qubits and update maps."""
        nonlocal num_swaps
        routed.add("swap", [pa, pb])
        num_swaps += 1
        la = physical_to_logical.get(pa)
        lb = physical_to_logical.get(pb)
        if la is not None:
            logical_to_physical[la] = pb
        if lb is not None:
            logical_to_physical[lb] = pa
        physical_to_logical.pop(pa, None)
        physical_to_logical.pop(pb, None)
        if la is not None:
            physical_to_logical[pb] = la
        if lb is not None:
            physical_to_logical[pa] = lb

    for gate in circuit.gates:
        if gate.num_qubits == 1:
            physical = (logical_to_physical[gate.qubits[0]],)
        else:
            control, target = gate.qubits
            p_control = logical_to_physical[control]
            p_target = logical_to_physical[target]
            if not coupling.is_adjacent(p_control, p_target):
                path = coupling.shortest_path(p_control, p_target)
                # Move the control along the path until it neighbours the target.
                for hop in path[1:-1]:
                    swap_physical(logical_to_physical[control], hop)
                p_control = logical_to_physical[control]
                p_target = logical_to_physical[target]
                if not coupling.is_adjacent(p_control, p_target):
                    raise TranspilerError(
                        f"routing failed to make qubits {control} and {target} adjacent"
                    )
            physical = (p_control, p_target)
        routed.append(Gate(gate.name, physical, gate.param, gate.param_ref, gate.trainable))
        gate_physical.append(physical)
        if gate.param_ref is not None:
            ref_physical[gate.param_ref] = physical

    return RoutedCircuit(
        circuit=routed,
        coupling=coupling,
        initial_layout=layout,
        final_mapping=dict(logical_to_physical),
        gate_physical_qubits=gate_physical,
        ref_physical_qubits=ref_physical,
        num_swaps=num_swaps,
    )
