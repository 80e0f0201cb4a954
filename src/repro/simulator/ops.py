"""Low-level batched tensor operations shared by both simulators.

State convention
----------------
Qubit 0 is the *most significant* bit of the computational-basis index
(big-endian): for ``n`` qubits, basis state ``|q0 q1 ... q_{n-1}>`` has index
``sum(bit_q << (n-1-q))``.

Batching convention
-------------------
Statevectors are arrays of shape ``(batch, 2**n)``; density matrices are
``(batch, 2**n, 2**n)``.  Gate matrices may be a single ``(d, d)`` array or a
per-sample stack ``(batch, d, d)`` (used by data-encoding layers whose angles
differ per sample).
"""

from __future__ import annotations

import functools

from collections import OrderedDict
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.utils.lru import lru_get, lru_put


def _check_qubits(qubits: Sequence[int], num_qubits: int) -> tuple[int, ...]:
    qubits = tuple(int(q) for q in qubits)
    if len(set(qubits)) != len(qubits):
        raise SimulationError(f"duplicate qubits {qubits}")
    for q in qubits:
        if not 0 <= q < num_qubits:
            raise SimulationError(f"qubit {q} out of range for {num_qubits} qubits")
    return qubits


def apply_unitary_statevector(
    states: np.ndarray,
    unitary: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply ``unitary`` on ``qubits`` to a batch of statevectors.

    ``unitary`` may be ``(2**k, 2**k)`` or a per-sample stack
    ``(batch, 2**k, 2**k)`` where ``k = len(qubits)``.
    """
    perm, inverse = _cached_axis_permutation(tuple(qubits), num_qubits)
    k = len(qubits)
    dim = 2**k
    batch = states.shape[0]
    if unitary.shape[-1] != dim:
        raise SimulationError(
            f"unitary of dimension {unitary.shape[-1]} does not match {k} qubits"
        )
    moved = states.reshape((batch,) + (2,) * num_qubits).transpose(perm)
    tensor = moved.reshape(batch, dim, -1)
    if unitary.ndim == 3:
        tensor = np.einsum("bij,bjr->bir", unitary, tensor)
    else:
        tensor = np.einsum("ij,bjr->bir", unitary, tensor)
    tensor = tensor.reshape(moved.shape).transpose(inverse)
    return tensor.reshape(batch, 2**num_qubits)


def apply_fused_statevector(
    states: np.ndarray,
    operations: Sequence,
    num_qubits: int,
) -> np.ndarray:
    """Apply a fused program to a batch of statevectors.

    ``operations`` is a sequence of ``(qubits, matrix)`` pairs (or objects
    unpacking to one, e.g. :class:`repro.simulator.engine.FusedGate`), each a
    multi-qubit unitary produced by gate fusion.  Applying them in order is
    equivalent to applying the source circuit gate-by-gate, with far fewer
    (and denser) tensor contractions.
    """
    for qubits, matrix in operations:
        states = apply_unitary_statevector(states, matrix, qubits, num_qubits)
    return states


def apply_fused_density(
    rho: np.ndarray,
    operations: Sequence,
    num_qubits: int,
) -> np.ndarray:
    """Apply a fused program to a batch of density matrices (noise-free)."""
    for qubits, matrix in operations:
        rho = apply_unitary_density(rho, matrix, qubits, num_qubits)
    return rho


def statevector_axis_permutation(
    qubits: Sequence[int], num_qubits: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Precompute the tensor transposition for one fused-gate application.

    Returns ``(perm, inverse)``: ``perm`` brings the batch axis first and the
    target-qubit axes next (in gate order); ``inverse`` undoes it.  Computing
    these once at circuit-compile time removes the per-call ``moveaxis``
    bookkeeping from the execution hot loop.
    """
    qubits = _check_qubits(qubits, num_qubits)
    target_axes = [1 + q for q in qubits]
    rest = [axis for axis in range(1, 1 + num_qubits) if axis not in target_axes]
    perm = (0, *target_axes, *rest)
    inverse = tuple(int(i) for i in np.argsort(perm))
    return perm, inverse


@functools.lru_cache(maxsize=1024)
def _cached_axis_permutation(
    qubits: tuple[int, ...], num_qubits: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """:func:`statevector_axis_permutation`, memoised per ``(qubits, num_qubits)``.

    The adjoint backward sweep applies a handful of gate placements
    thousands of times; validating and permuting once per placement keeps
    ``moveaxis`` bookkeeping out of that loop.
    """
    return statevector_axis_permutation(qubits, num_qubits)


def apply_compiled_statevector(
    states: np.ndarray,
    steps: Sequence[tuple[np.ndarray, int, tuple[int, ...], tuple[int, ...]]],
    num_qubits: int,
) -> np.ndarray:
    """Apply a fully precompiled program to a batch of statevectors.

    Each step is ``(matrix, dim, perm, inverse)`` with the permutations from
    :func:`statevector_axis_permutation`.  The batch stays in tensor form for
    the whole program (one reshape in, one out) and each fused unitary is a
    single broadcast ``matmul`` — this is the engine's cache-hit fast path.
    """
    batch = states.shape[0]
    tensor_shape = (batch,) + (2,) * num_qubits
    tensor = states.reshape(tensor_shape)
    for matrix, dim, perm, inverse in steps:
        moved = tensor.transpose(perm)
        flat = moved.reshape(batch, dim, -1)
        flat = matrix @ flat
        tensor = flat.reshape(moved.shape).transpose(inverse)
    return tensor.reshape(batch, 2**num_qubits)


def apply_compiled_statevector_multi(
    states: np.ndarray,
    steps: Sequence[tuple[np.ndarray, int, tuple[int, ...], tuple[int, ...]]],
    num_qubits: int,
) -> np.ndarray:
    """Apply a *stacked* compiled program to stacked statevector batches.

    ``states`` has shape ``(groups, batch, 2**n)`` — one batch of samples per
    parameter binding (group).  Each step is ``(matrices, dim, perm, inverse)``
    where ``matrices`` is a ``(groups, d, d)`` stack holding group ``g``'s
    fused unitary, and ``perm`` / ``inverse`` are the single-program
    permutations from :func:`statevector_axis_permutation` (they are shifted
    by one axis here to skip the leading group axis).

    Every elementary product is the same broadcast ``matmul`` the
    single-program path performs, so the result is bit-identical to running
    :func:`apply_compiled_statevector` once per group.
    """
    groups, batch = states.shape[0], states.shape[1]
    tensor = states.reshape((groups, batch) + (2,) * num_qubits)
    for matrices, dim, perm, inverse in steps:
        gperm = (0,) + tuple(p + 1 for p in perm)
        ginverse = (0,) + tuple(p + 1 for p in inverse)
        moved = tensor.transpose(gperm)
        flat = moved.reshape(groups, batch, dim, -1)
        flat = np.matmul(matrices[:, None, :, :], flat)
        tensor = flat.reshape(moved.shape).transpose(ginverse)
    return tensor.reshape(groups, batch, 2**num_qubits)


def _move_density_axes(
    rho: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> tuple[np.ndarray, int]:
    """Reshape a density batch so the target qubits' row/col axes lead.

    Returns the reshaped tensor of shape ``(batch, d, d, rest)`` where
    ``d = 2**len(qubits)`` and ``rest`` collects all remaining row and column
    indices, plus the value of ``d``.  Used by the gate, Kraus, and
    depolarizing appliers.
    """
    k = len(qubits)
    d = 2**k
    batch = rho.shape[0]
    tensor = rho.reshape((batch,) + (2,) * (2 * num_qubits))
    row_axes = [1 + q for q in qubits]
    col_axes = [1 + num_qubits + q for q in qubits]
    tensor = np.moveaxis(tensor, row_axes + col_axes, list(range(1, 1 + 2 * k)))
    tensor = tensor.reshape(batch, d, d, -1)
    return tensor, d


def _restore_density_axes(
    tensor: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Inverse of :func:`_move_density_axes`."""
    k = len(qubits)
    batch = tensor.shape[0]
    tensor = tensor.reshape((batch,) + (2,) * (2 * num_qubits))
    row_axes = [1 + q for q in qubits]
    col_axes = [1 + num_qubits + q for q in qubits]
    tensor = np.moveaxis(tensor, list(range(1, 1 + 2 * k)), row_axes + col_axes)
    dim = 2**num_qubits
    return tensor.reshape(batch, dim, dim)


def _diagonal_of(unitary: np.ndarray):
    """The diagonal(s) of a (stack of) matrices, or ``None`` if not diagonal."""
    eye = np.eye(unitary.shape[-1], dtype=bool)
    if unitary.ndim == 2:
        if np.any(unitary[~eye]):
            return None
        return np.diagonal(unitary)
    if np.any(unitary[:, ~eye]):
        return None
    return np.diagonal(unitary, axis1=1, axis2=2)


def _apply_diagonal_density(
    rho: np.ndarray, diag: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """``U rho U^dagger`` for diagonal ``U`` as one elementwise phase pass.

    Roughly half the gates of a basis-translated circuit are virtual ``rz``
    rotations (diagonal), so skipping the tensor transposition/contraction
    machinery for them dominates the noisy walk's throughput.
    """
    sub = register_subindex(qubits, num_qubits)
    # The phase outer product must be bound to a name before the multiply:
    # a refcount-1 temporary lets numpy elide it into an in-place multiply
    # (for operands >= the elision size threshold), whose complex kernel
    # rounds the last bit differently — making the result depend on batch
    # size and breaking the bit-identity contract between the stacked and
    # per-binding paths.
    if diag.ndim == 1:
        row = diag[sub]
        phase = (row[:, None] * row.conj()[None, :])[None, :, :]
        return rho * phase
    row = diag[:, sub]
    phase = row[:, :, None] * row.conj()[:, None, :]
    return rho * phase


def _monomial_of(unitary: np.ndarray):
    """``(perm, phases)`` of a monomial matrix (one entry per row/column).

    ``U[i, perm[i]] == phases[i]`` and every other entry is exactly zero;
    returns ``None`` for anything else.  CNOT / X / SWAP are monomial, so a
    basis-translated circuit's two-qubit layer takes this path.
    """
    nonzero = unitary != 0
    if not np.array_equal(nonzero.sum(axis=0), np.ones(unitary.shape[-1], dtype=np.intp)):
        return None
    if not np.array_equal(nonzero.sum(axis=1), np.ones(unitary.shape[-1], dtype=np.intp)):
        return None
    perm = nonzero.argmax(axis=1)
    phases = unitary[np.arange(unitary.shape[-1]), perm]
    return perm, phases


def register_subindex(qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """For each basis index, the sub-index formed by the target qubits' bits."""
    dim = 2**num_qubits
    k = len(qubits)
    indices = np.arange(dim)
    sub = np.zeros(dim, dtype=np.int64)
    for position, qubit in enumerate(qubits):
        sub |= ((indices >> (num_qubits - 1 - qubit)) & 1) << (k - 1 - position)
    return sub


def _monomial_full_permutation(
    perm: np.ndarray,
    phases: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Lift a k-qubit monomial gate to the full register.

    Returns ``(full_perm, full_phases)`` such that
    ``(U rho U^dagger)[i, j] = full_phases[i] conj(full_phases[j])
    rho[full_perm[i], full_perm[j]]``; ``full_phases`` is ``None`` when every
    phase is exactly one (a pure permutation, e.g. CNOT).
    """
    dim = 2**num_qubits
    num = num_qubits
    sub = register_subindex(qubits, num)
    target_sub = perm[sub]
    k = len(qubits)
    cleared = np.arange(dim)
    for qubit in qubits:
        cleared &= ~(1 << (num - 1 - qubit))
    full_perm = cleared.copy()
    for position, qubit in enumerate(qubits):
        full_perm |= ((target_sub >> (k - 1 - position)) & 1) << (num - 1 - qubit)
    full_phases = phases[sub]
    if np.array_equal(full_phases, np.ones(dim)):
        return full_perm, None
    return full_perm, full_phases


def _apply_monomial_density(
    rho: np.ndarray,
    perm: np.ndarray,
    phases: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """``U rho U^dagger`` for monomial ``U`` as one gather (+ phase) pass.

    ``(U rho U^dagger)[i, j] = phases[i] conj(phases[j]) rho[perm[i], perm[j]]``
    lifted to the full register, so a CNOT costs an indexed copy instead of
    two tensor contractions.
    """
    full_perm, full_phases = _monomial_full_permutation(
        perm, phases, qubits, num_qubits
    )
    gathered = rho[:, full_perm[:, None], full_perm[None, :]]
    if full_phases is None:
        return gathered
    # Named to defeat numpy temporary elision — see _apply_diagonal_density.
    phase = full_phases[:, None] * full_phases.conj()[None, :]
    return gathered * phase


def apply_unitary_density(
    rho: np.ndarray,
    unitary: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply ``U rho U^dagger`` on ``qubits`` to a batch of density matrices.

    Diagonal unitaries (``rz`` and friends) take a one-pass elementwise
    phase path, monomial unitaries (CNOT / X / SWAP) a one-pass gather;
    everything else goes through the general tensor contraction.
    """
    qubits = _check_qubits(qubits, num_qubits)
    dim = 2 ** len(qubits)
    if unitary.shape[-1] != dim:
        raise SimulationError(
            f"unitary of dimension {unitary.shape[-1]} does not match {len(qubits)} qubits"
        )
    diag = _diagonal_of(unitary)
    if diag is not None:
        return _apply_diagonal_density(rho, diag, qubits, num_qubits)
    if unitary.ndim == 2:
        monomial = _monomial_of(unitary)
        if monomial is not None:
            return _apply_monomial_density(
                rho, monomial[0], monomial[1], qubits, num_qubits
            )
    tensor, _ = _move_density_axes(rho, qubits, num_qubits)
    if unitary.ndim == 3:
        tensor = np.einsum("bij,bjkr->bikr", unitary, tensor)
        tensor = np.einsum("bikr,bjk->bijr", tensor, unitary.conj())
    else:
        tensor = np.einsum("ij,bjkr->bikr", unitary, tensor)
        tensor = np.einsum("bikr,jk->bijr", tensor, unitary.conj())
    return _restore_density_axes(tensor, qubits, num_qubits)


def apply_kraus_density(
    rho: np.ndarray,
    kraus_operators: Sequence[np.ndarray],
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply a Kraus channel ``sum_k K rho K^dagger`` on ``qubits``."""
    qubits = _check_qubits(qubits, num_qubits)
    tensor, _ = _move_density_axes(rho, qubits, num_qubits)
    result = np.zeros_like(tensor)
    for kraus in kraus_operators:
        # Operators arrive complex128 from the channel definitions; cast to
        # the state's precision so the contraction never upcasts mid-walk
        # (a no-op on the float64 default path).
        kraus = np.asarray(kraus).astype(tensor.dtype, copy=False)
        term = np.einsum("ij,bjkr->bikr", kraus, tensor)
        term = np.einsum("bikr,jk->bijr", term, kraus.conj())
        result += term
    return _restore_density_axes(result, qubits, num_qubits)


def apply_depolarizing_density(
    rho: np.ndarray,
    probability,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply a depolarizing channel with "replace" probability ``probability``.

    ``rho -> (1 - p) rho + p * (I/d)_Q (x) Tr_Q(rho)`` where ``Q`` is the set
    of target qubits.  This closed form avoids enumerating Pauli Kraus
    operators, which matters because the channel follows every noisy gate.

    ``probability`` may be a scalar (one channel strength for the whole
    batch) or a ``(batch,)`` array assigning each batch element its own
    strength — the form the batched multi-noise-model execution path uses to
    evolve many calibration days in one call.
    """
    probability = np.asarray(probability, dtype=float)
    if np.any(probability < 0) or np.any(probability > 1):
        raise SimulationError(f"depolarizing probability {probability} outside [0, 1]")
    if not np.any(probability):
        return rho
    if probability.ndim not in (0, 1):
        raise SimulationError("depolarizing probability must be a scalar or 1-D array")
    if probability.ndim == 1:
        if probability.shape[0] != rho.shape[0]:
            raise SimulationError(
                f"per-sample probabilities of length {probability.shape[0]} do not "
                f"match batch size {rho.shape[0]}"
            )
        # A uniform vector blends bit-identically to its scalar, and the
        # scalar path is markedly cheaper — collapse eagerly.
        if np.all(probability == probability[0]):
            probability = probability[0]
    qubits = _check_qubits(qubits, num_qubits)
    tensor, d = _move_density_axes(rho, qubits, num_qubits)
    traced = np.einsum("biir->br", tensor)
    mixed = np.zeros_like(tensor)
    identity_indices = np.arange(d)
    mixed[:, identity_indices, identity_indices, :] = traced[:, None, :] / d
    if probability.ndim == 1:
        probability = probability[:, None, None, None]
    # Blend in the state's real precision: a float64 coefficient times a
    # complex64 tensor would silently upcast the whole walk (NEP 50).  At
    # the float64 default this cast is a bit-identical no-op.
    probability = probability.astype(tensor.real.dtype, copy=False)
    blended = (1.0 - probability) * tensor + probability * mixed
    return _restore_density_axes(blended, qubits, num_qubits)


# ---------------------------------------------------------------------------
# Day-stacked walk kernels
# ---------------------------------------------------------------------------
#
# The longitudinal sweeps evaluate one bound circuit across many calibration
# days at once.  The kernels below let the engine walk that day-stacked
# super-batch without the per-gate transpose/allocate traffic of the generic
# appliers: dense gates contract in place via precomputed einsum subscripts,
# diagonal/monomial gates become one elementwise (or gather) pass, and the
# depolarizing channel updates the density batch in place through
# diagonal-block views.  The indices below are precomputed once per gate
# placement by the engine's walk skeleton; the kernel itself is
# ``SimulationEngine._run_density_stacked``.

_EINSUM_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def density_gate_subscripts(
    qubits: Sequence[int], num_qubits: int
) -> tuple[str, str]:
    """Einsum subscripts applying ``U . U^dagger`` on a tensorised batch.

    The density batch is viewed as ``(batch,) + (2,) * (2 * num_qubits)``
    (row axes, then column axes).  The first subscript contracts ``U`` into
    the target qubits' row axes, the second contracts ``conj(U)`` into their
    column axes; both preserve the axis order of the input, so the result can
    be written straight into a same-shape ``out=`` buffer with no transpose
    copies.  The gate operand must be reshaped to ``(2,) * (2 * k)``.
    """
    qubits = _check_qubits(qubits, num_qubits)
    k = len(qubits)
    needed = 1 + 2 * num_qubits + 2 * k
    if needed > len(_EINSUM_LETTERS):
        raise SimulationError(
            f"day-stacked gate subscripts need {needed} einsum labels for "
            f"{num_qubits} qubits; only {len(_EINSUM_LETTERS)} exist"
        )
    axes = list(_EINSUM_LETTERS[: 1 + 2 * num_qubits])
    out_labels = _EINSUM_LETTERS[1 + 2 * num_qubits : 1 + 2 * num_qubits + k]
    sum_labels = _EINSUM_LETTERS[1 + 2 * num_qubits + k : needed]

    def subscript(offset: int) -> str:
        source = list(axes)
        target = list(axes)
        for position, qubit in enumerate(qubits):
            source[offset + qubit] = sum_labels[position]
            target[offset + qubit] = out_labels[position]
        return f"{out_labels}{sum_labels},{''.join(source)}->{''.join(target)}"

    return subscript(1), subscript(1 + num_qubits)


def density_block_indices(qubits: Sequence[int], num_qubits: int) -> tuple[tuple, ...]:
    """Index tuples of the target qubits' diagonal blocks of a density batch.

    The batch is viewed as ``(batch,) + (2,) * (2 * num_qubits)``; entry
    ``s`` fixes the target qubits' row *and* column bits to the bits of
    ``s``, so ``tensor[blocks[s]]`` is the ``(s, s)`` diagonal block.
    Summing the blocks in ``s`` order is the partial trace over the target
    qubits (the order ``einsum("biir->br")`` accumulates in), and adding to
    each block writes ``(I/d)_Q (x) X`` — the depolarizing channel's mixed
    state — exactly where it is non-zero.
    """
    qubits = _check_qubits(qubits, num_qubits)
    k = len(qubits)
    blocks = []
    for state in range(2**k):
        index: list = [slice(None)] * (1 + 2 * num_qubits)
        for position, qubit in enumerate(qubits):
            bit = (state >> (k - 1 - position)) & 1
            index[1 + qubit] = bit
            index[1 + num_qubits + qubit] = bit
        blocks.append(tuple(index))
    return tuple(blocks)


#: Capacity of the shared monomial-gather cache (one ``dim**2`` int64 array
#: per distinct lifted permutation; a circuit routed onto jakarta has 8).
MONOMIAL_GATHER_CACHE_SIZE = 128
_MONOMIAL_GATHERS: OrderedDict = OrderedDict()


def density_monomial_gather(
    perm: np.ndarray,
    phases: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Precompute the flat gather a monomial gate performs on a density batch.

    Returns ``(gather, phase_row)``: ``gather`` indexes the flattened
    ``(dim * dim,)`` view of each density matrix so that
    ``rho_flat[:, gather]`` equals the gathered matrix of
    :func:`_apply_monomial_density`, and ``phase_row`` is the full-register
    phase vector (``None`` for pure permutations).

    The gather depends only on the lifted permutation (the gate's
    permutation, qubits and register width), not on its phases or on the
    parameter binding, so it is memoised read-only and shared by every
    bound circuit: a ``dim**2`` int64 array per monomial gate would
    otherwise be held once per cached bound circuit.
    """
    qubits = _check_qubits(qubits, num_qubits)
    full_perm, full_phases = _monomial_full_permutation(
        perm, phases, qubits, num_qubits
    )
    key = full_perm.tobytes()
    gather = lru_get(_MONOMIAL_GATHERS, key)
    if gather is None:
        dim = full_perm.shape[0]
        gather = (full_perm[:, None] * dim + full_perm[None, :]).ravel()
        gather.setflags(write=False)
        lru_put(_MONOMIAL_GATHERS, key, gather, MONOMIAL_GATHER_CACHE_SIZE)
    return gather, full_phases


def partial_trace(
    rho: np.ndarray, keep_qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Trace out every qubit not in ``keep_qubits``.

    The kept qubits appear in the output in the order given.
    """
    keep = _check_qubits(keep_qubits, num_qubits)
    remove = [q for q in range(num_qubits) if q not in keep]
    if not remove:
        return rho
    tensor, _ = _move_density_axes(rho, remove, num_qubits)
    traced = np.einsum("biir->br", tensor)
    kept = len(keep)
    batch = rho.shape[0]
    # After tracing, the remaining axes are the kept row indices followed by
    # the kept column indices, ordered by original qubit index.
    remaining_order = sorted(keep)
    traced = traced.reshape((batch,) + (2,) * (2 * kept))
    # Reorder kept qubits to the requested order.
    perm = [remaining_order.index(q) for q in keep]
    row_src = [1 + remaining_order.index(q) for q in keep]
    col_src = [1 + kept + remaining_order.index(q) for q in keep]
    traced = np.moveaxis(traced, row_src + col_src, list(range(1, 1 + 2 * kept)))
    dim = 2**kept
    return traced.reshape(batch, dim, dim)


def statevector_probabilities(states: np.ndarray) -> np.ndarray:
    """Computational-basis probabilities of a batch of statevectors."""
    return np.abs(states) ** 2


def density_probabilities(rho: np.ndarray) -> np.ndarray:
    """Computational-basis probabilities (diagonal) of density matrices."""
    diag = np.einsum("bii->bi", rho).real
    return np.clip(diag, 0.0, None)


def register_scatter_index(qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Register basis index of each basis index of a compact sub-register.

    Compact qubit ``i`` is register qubit ``qubits[i]`` and every other
    register qubit is ``|0>``; entry ``c`` is the ``num_qubits``-register
    index of compact basis state ``c`` (big-endian on both sides).
    """
    qubits = _check_qubits(qubits, num_qubits)
    k = len(qubits)
    compact = np.arange(2**k)
    index = np.zeros(2**k, dtype=np.int64)
    for position, qubit in enumerate(qubits):
        index |= ((compact >> (k - 1 - position)) & 1) << (num_qubits - 1 - qubit)
    return index


def apply_readout_confusion(
    probabilities: np.ndarray,
    confusion: dict[int, np.ndarray],
    num_qubits: int,
) -> np.ndarray:
    """Apply per-qubit readout confusion matrices to basis probabilities.

    ``confusion[q]`` is a 2x2 matrix ``M`` with ``M[reported, true]``; qubits
    missing from the dict are read out perfectly.
    """
    batch = probabilities.shape[0]
    tensor = probabilities.reshape((batch,) + (2,) * num_qubits)
    for qubit, matrix in confusion.items():
        if not 0 <= qubit < num_qubits:
            raise SimulationError(f"readout qubit {qubit} out of range")
        axis = 1 + qubit
        tensor = np.moveaxis(tensor, axis, 1)
        shape = tensor.shape
        flat = tensor.reshape(batch, 2, -1)
        flat = np.einsum(
            "ij,bjr->bir", np.asarray(matrix, dtype=probabilities.dtype), flat
        )
        tensor = flat.reshape(shape)
        tensor = np.moveaxis(tensor, 1, axis)
    return tensor.reshape(batch, 2**num_qubits)


def expectation_z(probabilities: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """Expectation value of Pauli-Z on ``qubit`` from basis probabilities."""
    indices = np.arange(probabilities.shape[-1])
    bits = (indices >> (num_qubits - 1 - qubit)) & 1
    signs = (1.0 - 2.0 * bits).astype(probabilities.dtype, copy=False)
    return probabilities @ signs


def marginal_probabilities(
    probabilities: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Marginal distribution over ``qubits`` (in the given order)."""
    qubits = _check_qubits(qubits, num_qubits)
    batch = probabilities.shape[0]
    tensor = probabilities.reshape((batch,) + (2,) * num_qubits)
    axes = [1 + q for q in qubits]
    tensor = np.moveaxis(tensor, axes, range(1, 1 + len(qubits)))
    tensor = tensor.reshape(batch, 2 ** len(qubits), -1)
    return tensor.sum(axis=-1)


def sample_counts(
    probabilities: np.ndarray, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample measurement counts for each batch element.

    Returns an integer array with the same shape as ``probabilities`` whose
    rows sum to ``shots``.
    """
    if shots <= 0:
        raise SimulationError(f"shots must be positive, got {shots}")
    # Normalise in float64 regardless of the walk's precision:
    # ``rng.multinomial`` rejects pvals that sum above 1, which float32
    # rows can do once cast up.  Bit-identical for float64 input.
    normalized = np.asarray(probabilities, dtype=np.float64)
    normalized = normalized / normalized.sum(axis=-1, keepdims=True)
    counts = np.empty_like(normalized, dtype=np.int64)
    for index, row in enumerate(normalized):
        counts[index] = rng.multinomial(shots, row)
    return counts
