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
from repro.simulator.noise_model import noise_model_digest
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
    "PlacementIndices",
    "WalkSkeleton",
    "build_walk_skeleton",
    "StackedWalkStep",
    "NoisyWalkPlan",
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
    binding's half of the noisy walk plan (see :class:`NoisyWalkPlan`) on
    first noisy walk.  ``circuit_id`` is the structure digest the engine
    cached it under.
    """

    num_qubits: int
    gates: tuple[BoundGateRecord, ...]
    dtype: np.dtype = np.dtype(np.complex128)
    circuit_id: str = ""
    _derivatives: dict[int, np.ndarray] = field(default_factory=dict)
    _walk_plan: Optional["NoisyWalkPlan"] = field(default=None, repr=False)

    def derivative(self, index: int) -> np.ndarray:
        """``d(matrix)/d(angle)`` of gate ``index``, memoised."""
        cached = self._derivatives.get(index)
        if cached is None:
            cached = self.gates[index].gate.derivative_matrix()
            cached = cached.astype(self.dtype, copy=False)
            self._derivatives[index] = cached
        return cached


# ---------------------------------------------------------------------------
# Noisy walk plans
# ---------------------------------------------------------------------------
#
# A noisy walk applies every physical gate, then its depolarizing channel.
# Its set-up is built once per thing it depends on: the skeleton of indices
# per structure (shared by every binding), the kernel steps per binding
# (memoised on the BoundCircuit), and the channel table per (structure,
# noise model) in a bounded engine LRU.


@dataclass(frozen=True)
class PlacementIndices:
    """Precomputed indices of one gate placement on a density register.

    ``row_subscripts`` / ``col_subscripts`` contract a dense gate into the
    tensorised batch (:func:`repro.simulator.ops.density_gate_subscripts`);
    ``sub`` lifts a k-qubit diagonal to the register; ``blocks`` index the
    ``2**k`` diagonal blocks the depolarizing channel traces and refills
    (:func:`repro.simulator.ops.density_block_indices`), and
    ``scale_index`` broadcasts a per-sample strength against them.
    """

    qubits: tuple[int, ...]
    row_subscripts: str
    col_subscripts: str
    sub: np.ndarray
    blocks: tuple[tuple, ...]
    scale_index: tuple


@dataclass(frozen=True)
class WalkSkeleton:
    """Structure-level half of a noisy walk plan: one placement per gate.

    Gates on the same qubits share one :class:`PlacementIndices` object, and
    the engine shares one skeleton across every binding of a structure.
    """

    num_qubits: int
    placements: tuple[PlacementIndices, ...]


def build_walk_skeleton(circuit: Union[QuantumCircuit, BoundCircuit]) -> WalkSkeleton:
    """Precompute the binding-independent indices of a noisy walk.

    Raises :class:`SimulationError` past the einsum label alphabet (about 24
    qubits, far beyond any density register that fits in memory).
    """
    num_qubits = circuit.num_qubits
    by_qubits: dict[tuple[int, ...], PlacementIndices] = {}
    placements = []
    for gate in circuit.gates:
        placement = by_qubits.get(gate.qubits)
        if placement is None:
            qubits = gate.qubits
            row_subscripts, col_subscripts = ops.density_gate_subscripts(
                qubits, num_qubits
            )
            placement = PlacementIndices(
                qubits=qubits,
                row_subscripts=row_subscripts,
                col_subscripts=col_subscripts,
                sub=ops.register_subindex(qubits, num_qubits),
                blocks=ops.density_block_indices(qubits, num_qubits),
                scale_index=(slice(None),) + (None,) * (2 * (num_qubits - len(qubits))),
            )
            by_qubits[qubits] = placement
        placements.append(placement)
    return WalkSkeleton(num_qubits=num_qubits, placements=tuple(placements))


@dataclass(frozen=True)
class StackedWalkStep:
    """One gate of a noisy walk under one binding.

    ``kind`` selects the kernel: ``"diagonal"`` multiplies the super-batch by
    the full-register phase factor built from ``phase_row``; ``"monomial"``
    gathers through the flat ``gather`` indices (shared read-only, see
    :func:`repro.simulator.ops.density_monomial_gather`; phase-corrected via
    ``phase_row`` when present); ``"dense"`` runs the placement's two einsum
    contractions with the tensorised ``matrix`` / ``dagger`` operands.  The
    kind is classified per binding because it depends on the bound matrix
    (``rx(0)`` is diagonal).
    """

    kind: str
    phase_row: Optional[np.ndarray] = None
    gather: Optional[np.ndarray] = None
    matrix: Optional[np.ndarray] = None
    dagger: Optional[np.ndarray] = None


@dataclass(frozen=True)
class NoisyWalkPlan:
    """A bound circuit's noisy walk: the shared skeleton plus its own steps."""

    skeleton: WalkSkeleton
    steps: tuple[StackedWalkStep, ...]


def build_stacked_walk(bound: BoundCircuit, skeleton: WalkSkeleton) -> NoisyWalkPlan:
    """Classify and precompute one bound circuit's walk steps on ``skeleton``."""
    num_qubits = bound.num_qubits
    steps = []
    for record, placement in zip(bound.gates, skeleton.placements):
        diag = ops._diagonal_of(record.matrix)
        if diag is not None:
            steps.append(StackedWalkStep(kind="diagonal", phase_row=diag[placement.sub]))
            continue
        monomial = ops._monomial_of(record.matrix)
        if monomial is not None:
            gather, phase_row = ops.density_monomial_gather(
                monomial[0], monomial[1], record.qubits, num_qubits
            )
            steps.append(
                StackedWalkStep(kind="monomial", gather=gather, phase_row=phase_row)
            )
            continue
        shape = (2,) * (2 * len(record.qubits))
        steps.append(
            StackedWalkStep(
                kind="dense",
                matrix=np.ascontiguousarray(record.matrix).reshape(shape),
                dagger=np.ascontiguousarray(record.matrix.conj()).reshape(shape),
            )
        )
    return NoisyWalkPlan(skeleton=skeleton, steps=tuple(steps))


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
        (entries are keyed ``(circuit_id, parameter_digest)``) and of the
        noisy walk's channel tables (keyed ``(circuit_id, noise digest)``).
    max_plans:
        LRU capacity of the structure-level fusion-plan and walk-skeleton
        caches.
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
        self._skeletons: OrderedDict[str, WalkSkeleton] = OrderedDict()
        self._tables: OrderedDict[tuple[str, str], np.ndarray] = OrderedDict()

    # -- cache plumbing -------------------------------------------------
    def clear(self) -> None:
        """Drop every cached plan, program, bound circuit and walk table."""
        self._plans.clear()
        self._programs.clear()
        self._bound.clear()
        self._skeletons.clear()
        self._tables.clear()

    def cache_sizes(self) -> dict[str, int]:
        """Current number of entries per cache (for introspection/tests)."""
        return {
            "plans": len(self._plans),
            "programs": len(self._programs),
            "bound": len(self._bound),
            "skeletons": len(self._skeletons),
            "tables": len(self._tables),
        }

    # -- compilation ----------------------------------------------------
    def plan_for(self, circuit: QuantumCircuit) -> tuple[str, FusionPlan]:
        """The fusion plan for ``circuit``'s structure (cached by digest)."""
        circuit_id = circuit_structure_digest(circuit)
        plan = lru_get(self._plans, circuit_id)
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
            lru_put(self._plans, circuit_id, plan, self.max_plans)
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
        program = lru_get(self._programs, cache_key)
        if program is not None:
            self.stats.program_hits += 1
            return program
        bound = self._bind(circuit, parameters)
        program = materialize_program(
            plan, bound.gates, circuit_id, parameter_key, dtype=self.complex_dtype
        )
        lru_put(self._programs, cache_key, program, self.max_programs)
        self.stats.program_builds += 1
        return program

    def bound_circuit(
        self, circuit: QuantumCircuit, parameters: Optional[np.ndarray] = None
    ) -> BoundCircuit:
        """Per-gate matrices (with daggers) for ``circuit``, cached."""
        circuit_id = circuit_structure_digest(circuit)
        parameter_key = parameter_digest(circuit, parameters)
        cache_key = (circuit_id, parameter_key)
        bound = lru_get(self._bound, cache_key)
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
            circuit_id=circuit_id,
        )
        lru_put(self._bound, cache_key, bound, self.max_programs)
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
        Groups sharing one bound circuit flatten into one ``(groups * batch)``
        super-batch and take one noisy walk plan (see :class:`NoisyWalkPlan`),
        so each gate (and each depolarizing channel, with per-group strengths
        from the cached channel tables) is a single vectorised application;
        distinct bindings walk their own plans in turn.  Bit-identical (up to
        the sign of zeros) to walking each group through
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
            for step_index, operation in enumerate(programs[0].operations):
                matrix = operation.matrix
                matrices = [p.operations[step_index].matrix for p in programs[1:]]
                if not all(m is matrix or np.array_equal(m, matrix) for m in matrices):
                    # Per-group matrices: one per sample of the super-batch.
                    matrix = np.repeat(np.stack([matrix] + matrices), batch, axis=0)
                flat = ops.apply_unitary_density(
                    flat, matrix, operation.qubits, num_qubits
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
        if any(bound.circuit_id != reference.circuit_id for bound in bounds[1:]):
            raise SimulationError(
                "cannot batch density execution across different structures"
            )
        table = np.stack(
            [self._channel_table(reference, model) for model in noise_models], axis=1
        )
        # Groups sharing a bound circuit walk together; distinct bindings
        # each walk their own plan in turn.
        walks: dict[int, tuple[BoundCircuit, list[int]]] = {}
        for index, bound in enumerate(bounds):
            walks.setdefault(id(bound), (bound, []))[1].append(index)
        if len(walks) == 1:
            walked = self._run_density_stacked(
                self._walk_plan(reference), flat.copy(), table, batch
            )
            return walked.reshape(rho.shape)
        out = np.empty_like(rho)
        for bound, indices in walks.values():
            walked = self._run_density_stacked(
                self._walk_plan(bound),
                rho[indices].reshape((len(indices) * batch,) + rho.shape[2:]),
                table[:, indices],
                batch,
            )
            out[indices] = walked.reshape((len(indices),) + rho.shape[1:])
        return out

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

    def _walk_plan(self, bound: BoundCircuit) -> NoisyWalkPlan:
        """The bound circuit's noisy walk plan, built once and memoised.

        The skeleton comes from the engine's structure-keyed LRU, so every
        binding of one structure shares its index objects.
        """
        plan = bound._walk_plan
        if plan is None:
            skeleton = lru_get(self._skeletons, bound.circuit_id)
            if skeleton is None:
                skeleton = build_walk_skeleton(bound)
                lru_put(self._skeletons, bound.circuit_id, skeleton, self.max_plans)
            plan = build_stacked_walk(bound, skeleton)
            bound._walk_plan = plan
        return plan

    def _channel_table(self, bound: BoundCircuit, noise_model) -> np.ndarray:
        """Per-gate depolarizing probabilities of ``noise_model``, cached.

        One ``(num_gates,)`` row per (structure, noise model), validated
        against ``[0, 1]`` once, when it is built.
        """
        key = (bound.circuit_id, noise_model_digest(noise_model))
        table = lru_get(self._tables, key)
        if table is None:
            table = np.zeros(len(bound.gates))
            if noise_model is not None:
                for index, record in enumerate(bound.gates):
                    channel = noise_model.channel_for_gate(record.gate)
                    if channel is not None:
                        table[index] = channel.probability
            if not np.all((table >= 0.0) & (table <= 1.0)):
                raise SimulationError(
                    "depolarizing probabilities outside [0, 1] in the channel table"
                )
            table.setflags(write=False)
            lru_put(self._tables, key, table, self.max_programs)
        return table

    @staticmethod
    def _run_density_stacked(
        plan: NoisyWalkPlan,
        flat: np.ndarray,
        table: np.ndarray,
        batch: int,
    ) -> np.ndarray:
        """Walk one bound circuit over a stacked super-batch in place.

        ``flat`` is an owned, C-contiguous ``(groups * batch, dim, dim)``
        array (it is mutated); ``table`` holds per-gate per-group channel
        strengths, shape ``(num_gates, groups)``.  Every step applies the
        gate (one phase pass, one gather or two in-place einsum
        contractions) and then, when any group's strength is non-zero, the
        depolarizing channel ``rho -> (1 - p) rho + p (I/d)_Q (x) Tr_Q(rho)``
        through the placement's diagonal-block views: summing the blocks in
        order is the partial trace, and adding the blended term back through
        them writes the mixed state.  Bit-identical to
        :meth:`repro.simulator.DensityMatrixSimulator.run` per group, up to
        the sign of zeros; nothing is validated or indexed per step.
        """
        skeleton = plan.skeleton
        num_qubits = skeleton.num_qubits
        dim = 2**num_qubits
        total = flat.shape[0]
        # The channel coefficients stay in the state's real precision so the
        # in-place multiplies never upcast a complex64 walk (no-op at float64).
        strengths = np.repeat(table, batch, axis=1).astype(flat.real.dtype, copy=False)
        keeps = (1.0 - strengths)[:, :, None, None]
        noisy = table.any(axis=1).tolist()
        buffers = (flat, np.empty_like(flat))
        tensors = tuple(
            buffer.reshape((total,) + (2,) * (2 * num_qubits)) for buffer in buffers
        )
        rows = tuple(buffer.reshape(total, dim * dim) for buffer in buffers)
        current = 0
        for index, (step, placement) in enumerate(zip(plan.steps, skeleton.placements)):
            if step.kind == "monomial":
                np.take(rows[current], step.gather, axis=1, out=rows[1 - current])
                current = 1 - current
            elif step.kind == "dense":
                np.einsum(
                    placement.row_subscripts,
                    step.matrix,
                    tensors[current],
                    out=tensors[1 - current],
                )
                np.einsum(
                    placement.col_subscripts,
                    step.dagger,
                    tensors[1 - current],
                    out=tensors[current],
                )
            if step.phase_row is not None:
                # Diagonal gates, and monomial gates with phases.
                row = step.phase_row
                np.multiply(
                    buffers[current],
                    (row[:, None] * row.conj()[None, :])[None, :, :],
                    out=buffers[current],
                )
            if noisy[index]:
                tensor = tensors[current]
                views = [tensor[block] for block in placement.blocks]
                traced = views[0] + views[1]
                for view in views[2:]:
                    traced = traced + view
                term = strengths[index][placement.scale_index] * (
                    traced / len(views)
                )
                np.multiply(buffers[current], keeps[index], out=buffers[current])
                for view in views:
                    view += term
        return buffers[current]

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
