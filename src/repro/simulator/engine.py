"""Compiled-circuit execution engine: gate fusion + program caching.

The online phase of the paper evaluates the *same* circuit structure
thousands of times — once per day per strategy in the longitudinal studies
(Fig. 2, Fig. 7, Table I) — while only the bound rotation angles and the
data batches change.  The naive path re-materialises every gate matrix and
applies the gates one by one on every call.  This module amortises that
per-call setup the same way short-block DAC decoders amortise per-block
setup cost:

1. **Fusion plan** (structure level): adjacent single-qubit gates on the
   same wire are merged, and runs of two-qubit gates on the same pair —
   together with the single-qubit gates caught between them — are contracted
   into single 4x4 unitaries.  The plan depends only on gate names and qubit
   indices, so it is computed once per circuit *structure* and reused across
   every parameter binding.
2. **Compiled program** (binding level): the plan's blocks are materialised
   into concrete fused matrices for one set of bound angles.  Programs are
   held in an LRU cache keyed on ``(circuit_id, parameter_digest)`` so
   repeated evaluations with different data batches skip recompilation
   entirely.
3. **Bound circuits** (gate level): per-gate matrices (plus daggers and
   lazily-memoised derivative matrices) are cached under the same key for
   consumers that need per-gate granularity — the adjoint gradient's
   backward sweep and the noisy density-matrix path, where a depolarizing
   channel after every physical gate forbids fusing across gates.

The public entry points are :class:`SimulationEngine` and the module-level
:func:`default_engine` singleton shared by the high-level
:mod:`repro.simulator.backend` API.
"""

from __future__ import annotations

import os

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from repro.circuits import QuantumCircuit, circuit_structure_digest, parameter_digest
from repro.exceptions import SimulationError
from repro.gates import CROSS_PATH_GATES, Gate
from repro.gates.matrices import I2, SWAP
from repro.simulator import ops
from repro.utils.lru import lru_get, lru_put

# circuit_structure_digest / parameter_digest live in repro.circuits.digests
# (they depend only on the IR) and are re-exported here for existing callers.
__all__ = [
    "circuit_structure_digest",
    "parameter_digest",
    "resolve_precision",
    "FusionBlock",
    "FusionPlan",
    "build_fusion_plan",
    "FusedGate",
    "CompiledProgram",
    "BoundGateRecord",
    "BoundCircuit",
    "StackedWalkStep",
    "build_stacked_walk",
    "materialize_program",
    "EngineStats",
    "SimulationEngine",
    "default_engine",
    "set_default_engine",
]


# ---------------------------------------------------------------------------
# Precision / fusion-width defaults
# ---------------------------------------------------------------------------
#
# Engines resolve unset knobs from the environment so one process-level
# switch (the CLI's ``--dtype`` / ``--fusion-width`` flags export these variables)
# reaches every engine construction site — including worker-pool children
# and serving shard processes, which inherit the environment on spawn.

#: Environment variable naming the default precision (``float64``/``float32``).
DTYPE_ENV_VAR = "REPRO_DTYPE"
#: Environment variable setting the default fusion width (``2`` or ``3``).
FUSION_WIDTH_ENV_VAR = "REPRO_FUSION_WIDTH"

_PRECISIONS: dict[str, np.dtype] = {
    "float64": np.dtype(np.complex128),
    "complex128": np.dtype(np.complex128),
    "double": np.dtype(np.complex128),
    "float32": np.dtype(np.complex64),
    "complex64": np.dtype(np.complex64),
    "single": np.dtype(np.complex64),
}


def resolve_precision(dtype: Union[None, str, np.dtype, type]) -> tuple[str, np.dtype]:
    """Resolve a precision knob to ``(canonical_name, complex_dtype)``.

    ``None`` falls back to the :data:`DTYPE_ENV_VAR` environment variable and
    then to ``float64``.  Accepts the real-precision names the public API
    uses (``"float64"`` / ``"float32"``) plus their complex spellings.
    """
    if dtype is None:
        dtype = os.environ.get(DTYPE_ENV_VAR) or "float64"
    if isinstance(dtype, (np.dtype, type)):
        name = np.dtype(dtype).name
    else:
        name = str(dtype).lower()
    resolved = _PRECISIONS.get(name)
    if resolved is None:
        raise SimulationError(
            f"unknown precision {dtype!r}; expected one of {sorted(_PRECISIONS)}"
        )
    canonical = "float64" if resolved == np.dtype(np.complex128) else "float32"
    return canonical, resolved


# ---------------------------------------------------------------------------
# Fusion plan (structure level)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FusionBlock:
    """One fused block of the plan: a qubit set and the gates it absorbs.

    ``qubits`` fixes the basis of the fused matrix (first qubit = most
    significant tensor factor, matching the convention of
    :mod:`repro.gates.matrices`); ``gate_indices`` are positions in the
    source circuit's gate list, in circuit order.
    """

    qubits: tuple[int, ...]
    gate_indices: tuple[int, ...]


@dataclass(frozen=True)
class FusionPlan:
    """Structure-level fusion schedule: an ordered tuple of blocks."""

    num_qubits: int
    blocks: tuple[FusionBlock, ...]
    source_gate_count: int

    @property
    def fused_gate_count(self) -> int:
        """Number of matrix applications after fusion."""
        return len(self.blocks)


class _OpenBlock:
    """Mutable block under construction during the fusion sweep."""

    __slots__ = ("qubits", "indices")

    def __init__(self, qubits: tuple[int, ...], indices: list[int]):
        self.qubits = qubits
        self.indices = indices


def build_fusion_plan(circuit: QuantumCircuit, max_width: int = 2) -> FusionPlan:
    """Greedy gate fusion into blocks of at most ``max_width`` qubits.

    The sweep keeps at most one *open* block per wire.  A gate joins the open
    block covering its wires when the combined support stays within two
    qubits; otherwise the conflicting blocks are closed (they keep their
    emission position) and a fresh block opens.  Whenever a gate joins an
    existing block, that block moves to the end of the emission order — this
    is safe because open blocks are pairwise wire-disjoint (each wire maps to
    at most one open block), every closed block passed during the move is
    wire-disjoint from the moving block at move time, and wire-disjoint
    unitaries commute.  A block that later *grows* onto a closed block's wire
    only absorbs gates that postdate that closed block while staying after it
    in emission order, so widening preserves the ordering argument.

    With ``max_width > 2`` the sweep additionally absorbs diagonal/monomial
    two-qubit gates (:data:`repro.gates.CROSS_PATH_GATES`) across an open
    block boundary: a ``cz``/``rzz``/``cx`` bridging a dense block would
    normally close it and split the plan, but folding the bridge into the
    neighbouring fused matrix — growing it up to ``max_width`` qubits —
    strictly shrinks ``fused_gate_count``.  The default width 2 reproduces
    the original plans bit-for-bit.
    """
    if max_width < 2:
        raise SimulationError(f"fusion width must be >= 2, got {max_width}")
    blocks: list[_OpenBlock] = []
    open_by_wire: dict[int, _OpenBlock] = {}

    def close(block: _OpenBlock) -> None:
        for wire in block.qubits:
            if open_by_wire.get(wire) is block:
                del open_by_wire[wire]

    def move_to_end(block: _OpenBlock) -> None:
        blocks.remove(block)
        blocks.append(block)

    for index, gate in enumerate(circuit.gates):
        wires = gate.qubits
        if len(wires) == 1:
            wire = wires[0]
            block = open_by_wire.get(wire)
            if block is None:
                block = _OpenBlock((wire,), [index])
                open_by_wire[wire] = block
                blocks.append(block)
            else:
                move_to_end(block)
                block.indices.append(index)
            continue

        if len(wires) != 2:  # pragma: no cover - registry only has 1q/2q gates
            raise SimulationError(
                f"fusion supports gates on at most 2 qubits, got {gate.name!r}"
            )
        wire_a, wire_b = wires
        block_a = open_by_wire.get(wire_a)
        block_b = open_by_wire.get(wire_b)

        if block_a is not None and block_a is block_b:
            # An open block already covers both wires of this pair.
            move_to_end(block_a)
            block_a.indices.append(index)
            continue

        if (
            max_width > 2
            and gate.name in CROSS_PATH_GATES
            and (block_a is not None or block_b is not None)
        ):
            # Cross-path absorption: a diagonal/monomial bridge between open
            # blocks would normally force a plan split; fold it (and, when
            # both wires are open, the smaller neighbour) into one wider
            # block as long as the union stays within ``max_width``.
            union = set(wires)
            if block_a is not None:
                union.update(block_a.qubits)
            if block_b is not None:
                union.update(block_b.qubits)
            if len(union) <= max_width:
                host = block_a if block_a is not None else block_b
                move_to_end(host)
                other = block_b if host is block_a else None
                if other is not None:
                    blocks.remove(other)
                    for wire in other.qubits:
                        if open_by_wire.get(wire) is other:
                            del open_by_wire[wire]
                    # The two open blocks are wire-disjoint, so sorting the
                    # merged indices preserves each wire's internal order.
                    host.indices = sorted(host.indices + other.indices)
                host.indices.append(index)
                host.qubits = tuple(sorted(union))
                for wire in host.qubits:
                    open_by_wire[wire] = host
                continue

        # Close any open block whose support would exceed two qubits.
        if block_a is not None and not set(block_a.qubits) <= {wire_a, wire_b}:
            close(block_a)
            block_a = None
        if block_b is not None and not set(block_b.qubits) <= {wire_a, wire_b}:
            close(block_b)
            block_b = None

        if block_a is not None and block_b is not None:
            # Two single-qubit blocks on the two wires: merge them.  Their
            # gates act on disjoint wires, so sorting the merged indices
            # preserves each wire's internal order and overall correctness.
            move_to_end(block_a)
            blocks.remove(block_b)
            block_a.indices = sorted(block_a.indices + block_b.indices)
            block_a.indices.append(index)
            block_a.qubits = wires
            open_by_wire[wire_a] = block_a
            open_by_wire[wire_b] = block_a
        elif block_a is not None or block_b is not None:
            host = block_a if block_a is not None else block_b
            move_to_end(host)
            host.indices.append(index)
            host.qubits = wires
            open_by_wire[wire_a] = host
            open_by_wire[wire_b] = host
        else:
            host = _OpenBlock(wires, [index])
            open_by_wire[wire_a] = host
            open_by_wire[wire_b] = host
            blocks.append(host)

    return FusionPlan(
        num_qubits=circuit.num_qubits,
        blocks=tuple(
            FusionBlock(qubits=tuple(b.qubits), gate_indices=tuple(b.indices))
            for b in blocks
        ),
        source_gate_count=len(circuit.gates),
    )


# ---------------------------------------------------------------------------
# Compiled programs (binding level)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FusedGate:
    """One fused unitary ready for application: ``(qubits, matrix)``."""

    qubits: tuple[int, ...]
    matrix: np.ndarray

    def __iter__(self) -> Iterator:
        """Unpack as ``qubits, matrix`` (the pair form used by ``ops``)."""
        yield self.qubits
        yield self.matrix


@dataclass(frozen=True)
class CompiledProgram:
    """A circuit compiled for one parameter binding.

    ``operations`` is the fused gate sequence; applying it left-to-right is
    mathematically identical to applying the source circuit gate-by-gate.
    ``steps`` is the same sequence in the precompiled form consumed by
    :func:`repro.simulator.ops.apply_compiled_statevector` — matrices paired
    with tensor-axis permutations computed once at compile time.
    """

    num_qubits: int
    operations: tuple[FusedGate, ...]
    steps: tuple[tuple[np.ndarray, int, tuple[int, ...], tuple[int, ...]], ...]
    circuit_id: str
    parameter_key: str
    source_gate_count: int

    @property
    def fused_gate_count(self) -> int:
        """Number of matrix applications the program performs."""
        return len(self.operations)


@dataclass
class BoundGateRecord:
    """Cached per-gate data for consumers needing gate granularity."""

    gate: Gate
    qubits: tuple[int, ...]
    matrix: np.ndarray
    dagger: np.ndarray


@dataclass
class BoundCircuit:
    """A circuit with all gate matrices (and daggers) materialised once.

    Used by the adjoint-gradient backward sweep and the noisy
    density-matrix path, both of which must walk gate-by-gate.  Derivative
    matrices are memoised on first request per gate index, and the
    day-stacked walk plan (see :class:`StackedWalkStep`) on first use.
    """

    num_qubits: int
    gates: tuple[BoundGateRecord, ...]
    dtype: np.dtype = np.dtype(np.complex128)
    _derivatives: dict[int, np.ndarray] = field(default_factory=dict)
    #: ``None`` = not built yet; ``False`` = some gate is unsupported (fall
    #: back to the generic grouped walk); otherwise the step tuple.
    _stacked_walk: object = field(default=None, repr=False)

    def derivative(self, index: int) -> np.ndarray:
        """``d(matrix)/d(angle)`` of gate ``index``, memoised."""
        cached = self._derivatives.get(index)
        if cached is None:
            cached = self.gates[index].gate.derivative_matrix()
            cached = cached.astype(self.dtype, copy=False)
            self._derivatives[index] = cached
        return cached


@dataclass(frozen=True)
class StackedWalkStep:
    """One gate of a day-stacked density walk, fully precomputed.

    ``kind`` selects the kernel: ``"diagonal"`` multiplies the super-batch by
    the full-register phase factor built from ``phase_row``; ``"monomial"``
    gathers through the flat ``gather`` indices (phase-corrected via
    ``phase_row`` when present); ``"dense"`` runs the two precompiled einsum
    contractions ``row_subscripts`` / ``col_subscripts`` with the tensorised
    ``matrix`` / ``dagger`` operands.
    """

    kind: str
    qubits: tuple[int, ...]
    phase_row: Optional[np.ndarray] = None
    gather: Optional[np.ndarray] = None
    matrix: Optional[np.ndarray] = None
    dagger: Optional[np.ndarray] = None
    row_subscripts: Optional[str] = None
    col_subscripts: Optional[str] = None


def build_stacked_walk(bound: BoundCircuit) -> Optional[tuple[StackedWalkStep, ...]]:
    """Precompute the day-stacked walk steps for one bound circuit.

    Returns ``None`` when a gate cannot take a precompiled path (e.g. the
    register is too wide for einsum labels), in which case callers fall back
    to the generic grouped walk.
    """
    num_qubits = bound.num_qubits
    steps = []
    for record in bound.gates:
        qubits = record.qubits
        diag = ops._diagonal_of(record.matrix)
        if diag is not None:
            steps.append(
                StackedWalkStep(
                    kind="diagonal",
                    qubits=qubits,
                    phase_row=ops.density_diagonal_row(diag, qubits, num_qubits),
                )
            )
            continue
        monomial = ops._monomial_of(record.matrix)
        if monomial is not None:
            gather, phase_row = ops.density_monomial_gather(
                monomial[0], monomial[1], qubits, num_qubits
            )
            steps.append(
                StackedWalkStep(
                    kind="monomial", qubits=qubits, gather=gather, phase_row=phase_row
                )
            )
            continue
        try:
            row_subscripts, col_subscripts = ops.density_gate_subscripts(
                qubits, num_qubits
            )
        except SimulationError:
            return None
        shape = (2,) * (2 * len(qubits))
        steps.append(
            StackedWalkStep(
                kind="dense",
                qubits=qubits,
                matrix=np.ascontiguousarray(record.matrix).reshape(shape),
                dagger=np.ascontiguousarray(record.matrix.conj()).reshape(shape),
                row_subscripts=row_subscripts,
                col_subscripts=col_subscripts,
            )
        )
    return tuple(steps)


def _embed_general(
    matrix: np.ndarray, gate_qubits: tuple[int, ...], block_qubits: tuple[int, ...]
) -> np.ndarray:
    """Lift a gate matrix into an arbitrary block basis by axis permutation.

    Pads the gate with identities on the block's remaining qubits, then
    permutes tensor factors from ``gate_qubits + missing`` order into
    ``block_qubits`` order.  Used only for blocks wider than two qubits (the
    opt-in wider-fusion tier); the two-qubit paths keep their original
    closed forms so default plans stay bit-identical.
    """
    missing = [q for q in block_qubits if q not in gate_qubits]
    full = matrix
    if missing:
        full = np.kron(matrix, np.eye(2 ** len(missing), dtype=matrix.dtype))
    order = list(gate_qubits) + missing
    perm = tuple(order.index(q) for q in block_qubits)
    k = len(block_qubits)
    tensor = full.reshape((2,) * (2 * k))
    tensor = tensor.transpose(perm + tuple(k + p for p in perm))
    return np.ascontiguousarray(tensor).reshape(2**k, 2**k)


def _embed_into_block(
    gate: Gate, matrix: np.ndarray, block_qubits: tuple[int, ...]
) -> np.ndarray:
    """Lift a gate matrix into the basis of its host fusion block."""
    if gate.qubits == block_qubits:
        return matrix
    if len(block_qubits) == 1:
        return matrix
    if len(block_qubits) > 2:
        return _embed_general(matrix, gate.qubits, block_qubits)
    if len(gate.qubits) == 1:
        if gate.qubits[0] == block_qubits[0]:
            return np.kron(matrix, I2)
        return np.kron(I2, matrix)
    # Two-qubit gate listed in the reverse order of the block basis: conjugate
    # by SWAP to exchange the tensor factors.
    return SWAP @ matrix @ SWAP


def materialize_program(
    plan: FusionPlan,
    bound_gates: Sequence[Gate],
    circuit_id: str,
    parameter_key: str,
    dtype: np.dtype = np.complex128,
) -> CompiledProgram:
    """Turn a structure-level plan into concrete fused matrices.

    ``dtype`` is the engine's complex precision: fused matrices are
    materialised directly in it so the walk never mixes precisions.  At the
    complex128 default every cast is a no-op and the program is bit-identical
    to the historical behaviour.
    """
    dtype = np.dtype(dtype)
    operations = []
    for block in plan.blocks:
        if len(block.gate_indices) == 1 and len(block.qubits) == len(
            bound_gates[block.gate_indices[0]].qubits
        ):
            gate = bound_gates[block.gate_indices[0]]
            matrix = gate.matrix().astype(dtype, copy=False)
            operations.append(FusedGate(qubits=gate.qubits, matrix=matrix))
            continue
        dim = 2 ** len(block.qubits)
        fused = np.eye(dim, dtype=dtype)
        for gate_index in block.gate_indices:
            gate = bound_gates[gate_index]
            embedded = _embed_into_block(gate, gate.matrix(), block.qubits)
            fused = embedded.astype(dtype, copy=False) @ fused
        operations.append(FusedGate(qubits=block.qubits, matrix=fused))
    steps = []
    for fused_gate in operations:
        perm, inverse = ops.statevector_axis_permutation(
            fused_gate.qubits, plan.num_qubits
        )
        steps.append(
            (
                np.ascontiguousarray(fused_gate.matrix),
                2 ** len(fused_gate.qubits),
                perm,
                inverse,
            )
        )
    return CompiledProgram(
        num_qubits=plan.num_qubits,
        operations=tuple(operations),
        steps=tuple(steps),
        circuit_id=circuit_id,
        parameter_key=parameter_key,
        source_gate_count=plan.source_gate_count,
    )


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


@dataclass
class EngineStats:
    """Cache counters of a :class:`SimulationEngine`.

    ``program_hits / (program_hits + program_misses)`` is the fraction of
    executions that skipped compilation entirely — the quantity the Fig. 7
    throughput benchmark exercises.
    """

    plan_builds: int = 0
    plan_hits: int = 0
    program_builds: int = 0
    program_hits: int = 0
    bound_builds: int = 0
    bound_hits: int = 0

    @property
    def program_misses(self) -> int:
        """Alias for ``program_builds`` (every miss triggers one build)."""
        return self.program_builds

    @property
    def program_hit_rate(self) -> float:
        """Fraction of compile requests served from the program cache."""
        total = self.program_hits + self.program_builds
        return self.program_hits / total if total else 0.0


class SimulationEngine:
    """Compiles circuits into fused programs and caches the results.

    Parameters
    ----------
    max_programs:
        LRU capacity of the compiled-program and bound-circuit caches
        (entries are keyed ``(circuit_id, parameter_digest)``).
    max_plans:
        LRU capacity of the structure-level fusion-plan cache.
    fusion:
        Disable to compile identity programs (one block per gate); used by
        tests and the throughput benchmark to isolate the fusion gain.
    dtype:
        Execution precision: ``"float64"`` (the bit-identical default) or
        ``"float32"`` (the fast tier — complex64 fused matrices and walks).
        ``None`` reads ``REPRO_DTYPE`` from the environment.
    fusion_width:
        Maximum fused-block width.  The default 2 reproduces historical
        plans bit-for-bit; 3 enables cross-path absorption of
        diagonal/monomial bridges into wider fused matrices.  ``None``
        reads ``REPRO_FUSION_WIDTH``.
    """

    def __init__(
        self,
        max_programs: int = 256,
        max_plans: int = 128,
        fusion: bool = True,
        dtype: Union[None, str, np.dtype, type] = None,
        fusion_width: Optional[int] = None,
    ):
        if max_programs < 1 or max_plans < 1:
            raise SimulationError("engine cache sizes must be >= 1")
        self.max_programs = max_programs
        self.max_plans = max_plans
        self.fusion = fusion
        self.dtype, self.complex_dtype = resolve_precision(dtype)
        if fusion_width is None:
            fusion_width = int(os.environ.get(FUSION_WIDTH_ENV_VAR, "2"))
        if fusion_width < 2:
            raise SimulationError(f"fusion width must be >= 2, got {fusion_width}")
        self.fusion_width = fusion_width
        self.stats = EngineStats()
        self._plans: OrderedDict[str, FusionPlan] = OrderedDict()
        self._programs: OrderedDict[tuple[str, str], CompiledProgram] = OrderedDict()
        self._bound: OrderedDict[tuple[str, str], BoundCircuit] = OrderedDict()

    # -- cache plumbing -------------------------------------------------
    @staticmethod
    def _lru_get(cache: OrderedDict, key):
        return lru_get(cache, key)

    @staticmethod
    def _lru_put(cache: OrderedDict, key, value, capacity: int) -> None:
        lru_put(cache, key, value, capacity)

    def clear(self) -> None:
        """Drop every cached plan, program, and bound circuit."""
        self._plans.clear()
        self._programs.clear()
        self._bound.clear()

    def cache_sizes(self) -> dict[str, int]:
        """Current number of entries per cache (for introspection/tests)."""
        return {
            "plans": len(self._plans),
            "programs": len(self._programs),
            "bound": len(self._bound),
        }

    # -- compilation ----------------------------------------------------
    def plan_for(self, circuit: QuantumCircuit) -> tuple[str, FusionPlan]:
        """The fusion plan for ``circuit``'s structure (cached by digest)."""
        circuit_id = circuit_structure_digest(circuit)
        plan = self._lru_get(self._plans, circuit_id)
        if plan is None:
            if self.fusion:
                plan = build_fusion_plan(circuit, max_width=self.fusion_width)
            else:
                plan = FusionPlan(
                    num_qubits=circuit.num_qubits,
                    blocks=tuple(
                        FusionBlock(qubits=g.qubits, gate_indices=(i,))
                        for i, g in enumerate(circuit.gates)
                    ),
                    source_gate_count=len(circuit.gates),
                )
            self._lru_put(self._plans, circuit_id, plan, self.max_plans)
            self.stats.plan_builds += 1
        else:
            self.stats.plan_hits += 1
        return circuit_id, plan

    def _bind(
        self, circuit: QuantumCircuit, parameters: Optional[np.ndarray]
    ) -> QuantumCircuit:
        if parameters is None:
            return circuit
        return circuit.bind_parameters(parameters)

    def compile(
        self, circuit: QuantumCircuit, parameters: Optional[np.ndarray] = None
    ) -> CompiledProgram:
        """Compile ``circuit`` (bound, or bindable via ``parameters``).

        Returns a cached :class:`CompiledProgram` when the same structure has
        already been compiled with an identical effective parameter binding.
        """
        circuit_id, plan = self.plan_for(circuit)
        parameter_key = parameter_digest(circuit, parameters)
        cache_key = (circuit_id, parameter_key)
        program = self._lru_get(self._programs, cache_key)
        if program is not None:
            self.stats.program_hits += 1
            return program
        bound = self._bind(circuit, parameters)
        program = materialize_program(
            plan, bound.gates, circuit_id, parameter_key, dtype=self.complex_dtype
        )
        self._lru_put(self._programs, cache_key, program, self.max_programs)
        self.stats.program_builds += 1
        return program

    def bound_circuit(
        self, circuit: QuantumCircuit, parameters: Optional[np.ndarray] = None
    ) -> BoundCircuit:
        """Per-gate matrices (with daggers) for ``circuit``, cached."""
        circuit_id = circuit_structure_digest(circuit)
        parameter_key = parameter_digest(circuit, parameters)
        cache_key = (circuit_id, parameter_key)
        bound = self._lru_get(self._bound, cache_key)
        if bound is not None:
            self.stats.bound_hits += 1
            return bound
        bound_source = self._bind(circuit, parameters)
        records = []
        for gate in bound_source.gates:
            matrix = gate.matrix().astype(self.complex_dtype, copy=False)
            records.append(
                BoundGateRecord(
                    gate=gate,
                    qubits=gate.qubits,
                    matrix=matrix,
                    dagger=matrix.conj().T,
                )
            )
        bound = BoundCircuit(
            num_qubits=circuit.num_qubits,
            gates=tuple(records),
            dtype=self.complex_dtype,
        )
        self._lru_put(self._bound, cache_key, bound, self.max_programs)
        self.stats.bound_builds += 1
        return bound

    # -- batched compilation --------------------------------------------
    def compile_many(
        self,
        circuits: Sequence[QuantumCircuit],
        parameter_sets: Sequence[Optional[np.ndarray]],
    ) -> list[CompiledProgram]:
        """Compile one program per ``(circuit, parameters)`` pair.

        All pairs must share the same circuit *structure* (the condition for
        stacking their fused matrices); a :class:`SimulationError` is raised
        otherwise so callers can fall back to the per-item loop.
        """
        if len(circuits) != len(parameter_sets):
            raise SimulationError("circuits and parameter_sets length mismatch")
        programs = [
            self.compile(circuit, parameters)
            for circuit, parameters in zip(circuits, parameter_sets)
        ]
        first = programs[0].circuit_id
        if any(p.circuit_id != first for p in programs):
            raise SimulationError(
                "cannot stack programs with different circuit structures"
            )
        return programs

    @staticmethod
    def stack_programs(
        programs: Sequence[CompiledProgram],
    ) -> tuple[tuple[np.ndarray, int, tuple[int, ...], tuple[int, ...]], ...]:
        """Stack per-binding compiled steps into multi-group steps.

        Returns steps consumable by
        :func:`repro.simulator.ops.apply_compiled_statevector_multi`: each
        step's matrix becomes a ``(groups, d, d)`` stack.
        """
        stacked = []
        for step_index, (_, dim, perm, inverse) in enumerate(programs[0].steps):
            matrices = np.stack(
                [program.steps[step_index][0] for program in programs]
            )
            stacked.append((matrices, dim, perm, inverse))
        return tuple(stacked)

    # -- execution ------------------------------------------------------
    def run_statevector(
        self,
        circuit: QuantumCircuit,
        states: np.ndarray,
        parameters: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Apply the compiled program for ``circuit`` to ``states``.

        A one-group view of :meth:`run_statevector_multi`.
        """
        return self.run_statevector_multi(
            [circuit], np.asarray(states)[None], [parameters]
        )[0]

    def run_statevector_multi(
        self,
        circuits: Sequence[QuantumCircuit],
        states: np.ndarray,
        parameter_sets: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> np.ndarray:
        """Apply many bindings of one structure to stacked state batches.

        ``states`` has shape ``(groups, batch, 2**n)``; group ``g`` evolves
        under ``circuits[g]`` bound with ``parameter_sets[g]``.  All circuits
        must share one structure.  States are cast onto the engine's
        precision tier first (a no-op at the float64 default), so a float32
        engine runs the whole walk in single precision regardless of the
        caller's allocation.  Bit-identical to running
        :func:`repro.simulator.ops.apply_compiled_statevector` once per group.
        """
        if parameter_sets is None:
            parameter_sets = [None] * len(circuits)
        programs = self.compile_many(circuits, parameter_sets)
        states = np.asarray(states).astype(self.complex_dtype, copy=False)
        first = programs[0]
        if all(p.parameter_key == first.parameter_key for p in programs):
            # One binding for every group (the one-group view is the common
            # case): fold the groups into the sample batch, which runs the
            # same per-sample matmuls without stacking any matrix.
            groups, batch, dim = states.shape
            folded = ops.apply_compiled_statevector(
                states.reshape(groups * batch, dim), first.steps, first.num_qubits
            )
            return folded.reshape(groups, batch, dim)
        return ops.apply_compiled_statevector_multi(
            states, self.stack_programs(programs), first.num_qubits
        )

    def run_density_multi(
        self,
        circuits: Sequence[QuantumCircuit],
        rho: np.ndarray,
        noise_models: Optional[Sequence] = None,
        parameter_sets: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> np.ndarray:
        """Apply many bindings of one structure to stacked density batches.

        ``rho`` has shape ``(groups, batch, 2**n, 2**n)``; group ``g``
        evolves under ``circuits[g]`` bound with ``parameter_sets[g]`` and —
        when ``noise_models`` is given — under ``noise_models[g]``'s channels.
        The walk flattens groups into one ``(groups * batch)`` super-batch so
        each gate (and each depolarizing channel, with per-group strengths) is
        a single vectorised application.  Bit-identical (up to the sign of
        zeros) to walking each group through
        :meth:`repro.simulator.DensityMatrixSimulator.run`.  One group is
        no special case: a noisy single binding takes the same stacked walk
        as a day sweep, and a noise-free call applies the fused program.
        """
        groups, batch = rho.shape[0], rho.shape[1]
        if parameter_sets is None:
            parameter_sets = [None] * len(circuits)
        if len(circuits) != groups or len(parameter_sets) != groups:
            raise SimulationError("group count mismatch between rho and circuits")
        if noise_models is not None and len(noise_models) != groups:
            raise SimulationError("group count mismatch between rho and noise models")
        num_qubits = circuits[0].num_qubits
        flat = rho.reshape((groups * batch,) + rho.shape[2:])

        if noise_models is None or all(m is None for m in noise_models):
            programs = self.compile_many(circuits, parameter_sets)
            for step_index in range(programs[0].fused_gate_count):
                qubits = programs[0].operations[step_index].qubits
                matrices = [p.operations[step_index].matrix for p in programs]
                flat = self._apply_density_group_matrices(
                    flat, matrices, qubits, num_qubits, batch
                )
            return flat.reshape(rho.shape)

        if all(c is circuits[0] for c in circuits[1:]) and self._shared_binding(
            parameter_sets
        ):
            # The day-sweep regime: one bound circuit across every group, so
            # binding (and digesting) once suffices.
            bounds = [self.bound_circuit(circuits[0], parameter_sets[0])] * groups
        else:
            bounds = [
                self.bound_circuit(circuit, parameters)
                for circuit, parameters in zip(circuits, parameter_sets)
            ]
        reference = bounds[0]
        for bound in bounds[1:]:
            if bound is reference:
                continue
            if len(bound.gates) != len(reference.gates) or any(
                a.gate.name != b.gate.name or a.qubits != b.qubits
                for a, b in zip(bound.gates, reference.gates)
            ):
                raise SimulationError(
                    "cannot batch density execution across different structures"
                )
        if all(bound is reference for bound in bounds[1:]):
            steps = self._stacked_walk_for(reference)
            if steps is not None:
                probabilities = np.array(
                    [
                        [
                            self._channel_probability(model, record.gate)
                            for model in noise_models
                        ]
                        for record in reference.gates
                    ]
                )
                walked = self._run_density_stacked(
                    reference, steps, flat.copy(), probabilities, batch
                )
                return walked.reshape(rho.shape)
        for gate_index in range(len(reference.gates)):
            records = [bound.gates[gate_index] for bound in bounds]
            qubits = records[0].qubits
            flat = self._apply_density_group_matrices(
                flat, [r.matrix for r in records], qubits, num_qubits, batch
            )
            probabilities = np.array(
                [
                    self._channel_probability(model, record.gate)
                    for model, record in zip(noise_models, records)
                ]
            )
            if np.any(probabilities):
                flat = ops.apply_depolarizing_density(
                    flat, np.repeat(probabilities, batch), qubits, num_qubits
                )
        return flat.reshape(rho.shape)

    @staticmethod
    def _channel_probability(noise_model, gate) -> float:
        if noise_model is None:
            return 0.0
        channel = noise_model.channel_for_gate(gate)
        return channel.probability if channel is not None else 0.0

    @staticmethod
    def _shared_binding(parameter_sets) -> bool:
        """True when every group binds the same effective parameter vector."""
        first = parameter_sets[0]
        for parameters in parameter_sets[1:]:
            if parameters is first:
                continue
            if parameters is None or first is None:
                return False
            if not np.array_equal(parameters, first):
                return False
        return True

    @staticmethod
    def _stacked_walk_for(bound: BoundCircuit) -> Optional[tuple[StackedWalkStep, ...]]:
        """The bound circuit's day-stacked walk plan, built once and memoised."""
        plan = bound._stacked_walk
        if plan is None:
            plan = build_stacked_walk(bound)
            bound._stacked_walk = False if plan is None else plan
        return None if plan is False else plan

    @staticmethod
    def _run_density_stacked(
        bound: BoundCircuit,
        steps: tuple[StackedWalkStep, ...],
        flat: np.ndarray,
        probabilities: np.ndarray,
        batch: int,
    ) -> np.ndarray:
        """Walk one bound circuit over a day-stacked super-batch in place.

        ``flat`` is an owned, C-contiguous ``(groups * batch, dim, dim)``
        array (it is mutated); ``probabilities`` holds per-gate per-group
        channel strengths, shape ``(num_gates, groups)``.  Bit-identical (up
        to the sign of zeros) to the generic per-gate grouped walk: the
        kernels perform the same elementary products and sums, only without
        the transpose and allocation traffic.
        """
        num_qubits = bound.num_qubits
        dim = 2**num_qubits
        total = flat.shape[0]
        tensor_shape = (total,) + (2,) * (2 * num_qubits)
        rho = flat
        spare = np.empty_like(rho)
        for step, gate_probabilities in zip(steps, probabilities):
            if step.kind == "diagonal":
                row = step.phase_row
                np.multiply(
                    rho, (row[:, None] * row.conj()[None, :])[None, :, :], out=rho
                )
            elif step.kind == "monomial":
                np.take(
                    rho.reshape(total, dim * dim),
                    step.gather,
                    axis=1,
                    out=spare.reshape(total, dim * dim),
                )
                if step.phase_row is not None:
                    row = step.phase_row
                    np.multiply(
                        spare,
                        (row[:, None] * row.conj()[None, :])[None, :, :],
                        out=spare,
                    )
                rho, spare = spare, rho
            else:
                np.einsum(
                    step.row_subscripts,
                    step.matrix,
                    rho.reshape(tensor_shape),
                    out=spare.reshape(tensor_shape),
                )
                rho, spare = spare, rho
                np.einsum(
                    step.col_subscripts,
                    step.dagger,
                    rho.reshape(tensor_shape),
                    out=spare.reshape(tensor_shape),
                )
                rho, spare = spare, rho
            if np.any(gate_probabilities):
                ops.apply_depolarizing_density_stacked(
                    rho,
                    np.repeat(gate_probabilities, batch),
                    step.qubits,
                    num_qubits,
                )
        return rho

    @staticmethod
    def _apply_density_group_matrices(
        flat: np.ndarray,
        matrices: Sequence[np.ndarray],
        qubits: tuple[int, ...],
        num_qubits: int,
        batch: int,
    ) -> np.ndarray:
        """Apply per-group gate matrices to a flattened group super-batch."""
        first = matrices[0]
        if all(m is first or np.array_equal(m, first) for m in matrices[1:]):
            return ops.apply_unitary_density(flat, first, qubits, num_qubits)
        per_sample = np.repeat(np.stack(matrices), batch, axis=0)
        return ops.apply_unitary_density(flat, per_sample, qubits, num_qubits)

    def run_density(
        self,
        circuit: QuantumCircuit,
        rho: np.ndarray,
        noise_model=None,
        parameters: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Apply ``circuit`` to density matrices, with optional noise.

        A one-group view of :meth:`run_density_multi`: without a noise model
        the fused program is applied; with one, every physical gate is
        followed by its calibrated channel, which forbids fusing across
        gates, so the cached per-gate matrices are walked instead.
        """
        return self.run_density_multi(
            [circuit],
            np.asarray(rho)[None],
            noise_models=None if noise_model is None else [noise_model],
            parameter_sets=[parameters],
        )[0]


# ---------------------------------------------------------------------------
# Shared default engine
# ---------------------------------------------------------------------------

_default_engine: Optional[SimulationEngine] = None


def default_engine() -> SimulationEngine:
    """The process-wide engine shared by the default backends."""
    global _default_engine
    if _default_engine is None:
        _default_engine = SimulationEngine()
    return _default_engine


def set_default_engine(engine: Optional[SimulationEngine]) -> None:
    """Replace the process-wide engine (``None`` resets to a fresh one)."""
    global _default_engine
    _default_engine = engine
