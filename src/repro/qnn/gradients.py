"""Gradient engines for variational circuits.

Two engines are provided:

* :func:`adjoint_gradient` — reverse-mode differentiation of noise-free
  statevector simulations.  One forward pass plus one backward sweep yields
  the gradient with respect to *every* trainable parameter, which makes the
  repeated retraining in QuCAD's offline stage affordable.
* :func:`parameter_shift_gradient` — the hardware-compatible shift rule
  (two-term for Pauli rotations, four-term for controlled rotations).  It is
  simulator-agnostic so it also differentiates noisy density-matrix
  evaluations, and it doubles as an independent check of the adjoint engine
  in the test suite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.circuits import QuantumCircuit
from repro.exceptions import TrainingError
from repro.simulator import ops

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.engine import SimulationEngine

# Four-term shift-rule coefficients for generators with eigenvalues {0, +-1/2}
# (controlled rotations): d<O>/dt = c_plus [f(t+pi/2) - f(t-pi/2)]
#                                  - c_minus [f(t+3pi/2) - f(t-3pi/2)].
_SQRT2 = np.sqrt(2.0)
FOUR_TERM_C_PLUS = (_SQRT2 + 1.0) / (4.0 * _SQRT2)
FOUR_TERM_C_MINUS = (_SQRT2 - 1.0) / (4.0 * _SQRT2)


def adjoint_gradient(
    circuit: QuantumCircuit,
    parameters: np.ndarray,
    initial_states: np.ndarray,
    observable_diagonals: np.ndarray,
    engine: Optional["SimulationEngine"] = None,
    final_states: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of ``sum_b <psi_b| D_b |psi_b>`` w.r.t. the trainable parameters.

    Parameters
    ----------
    circuit:
        Ansatz with ``param_ref`` annotations (not bound).
    parameters:
        Trainable-parameter vector.
    initial_states:
        Encoded input states, shape ``(batch, 2**n)``.
    observable_diagonals:
        Per-sample diagonal observables ``D_b``, shape ``(batch, 2**n)``.
        For classification this is the loss gradient folded into a weighted
        sum of Pauli-Z diagonals, so a single sweep yields the full loss
        gradient.
    engine:
        Compilation engine (defaults to the process-wide one).  The forward
        pass runs the fused compiled program; the backward sweep — which
        needs per-gate granularity to attribute overlaps to parameters —
        reuses the engine's cached per-gate matrices and daggers, so no gate
        matrix is rebuilt across mini-batch iterations at fixed parameters.
    final_states:
        Optional evolved states ``U(theta) |initial>`` from a forward pass
        the caller already ran (e.g. for the loss value); when given, the
        internal forward pass is skipped entirely.

    Returns
    -------
    (gradient, final_states):
        ``gradient`` has one entry per parameter; ``final_states`` are the
        evolved statevectors (reusable for the loss value).

    A one-binding view of :func:`adjoint_gradient_batch`.
    """
    return adjoint_gradient_batch(
        circuit,
        [parameters],
        initial_states,
        observable_diagonals,
        engine=engine,
        final_states=None if final_states is None else [final_states],
    )[0]


def adjoint_gradient_batch(
    circuit: QuantumCircuit,
    parameter_sets: Sequence[np.ndarray],
    initial_states: np.ndarray,
    observable_diagonals: np.ndarray,
    engine: Optional["SimulationEngine"] = None,
    final_states: Optional[Sequence[np.ndarray]] = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Adjoint gradients for many parameter bindings in one backward sweep.

    The per-binding states are flattened into one ``(groups * batch, dim)``
    super-batch so each gate's dagger (and derivative) is applied once across
    every binding.  When all bindings resolve to the same cached bound
    circuit — the trainer's regime, where one parameter vector drives the
    whole minibatch — the shared 2-D matrices broadcast over the super-batch;
    otherwise per-binding matrix stacks are used.  Either way each binding's
    overlap sums run over its own contiguous slice, so each binding's result
    is bit-identical to a one-binding batch.

    ``initial_states`` may be one shared ``(batch, dim)`` array or a
    ``(groups, batch, dim)`` stack; ``observable_diagonals`` likewise.
    ``final_states``, when provided, is a per-binding sequence of evolved
    states.  Returns one ``(gradient, final_states)`` pair per binding.
    """
    from repro.simulator.engine import default_engine

    engine = engine if engine is not None else default_engine()
    complex_dtype = getattr(engine, "complex_dtype", np.dtype(np.complex128))
    num_qubits = circuit.num_qubits
    groups = len(parameter_sets)
    if groups == 0:
        return []
    params_list = [np.asarray(p, dtype=float) for p in parameter_sets]

    initial = np.asarray(initial_states)
    initial_list = [initial] * groups if initial.ndim == 2 else list(initial)
    diagonals = np.asarray(observable_diagonals)
    diag_list = [diagonals] * groups if diagonals.ndim == 2 else list(diagonals)
    if len(initial_list) != groups or len(diag_list) != groups:
        raise TrainingError(
            "adjoint_gradient_batch: initial_states / observable_diagonals "
            "group counts do not match parameter_sets"
        )
    batch = initial_list[0].shape[0]
    for init, diag in zip(initial_list, diag_list):
        if init.shape[0] != batch or diag.shape[0] != batch:
            raise TrainingError("adjoint_gradient_batch: ragged batch shapes")

    if final_states is None:
        finals = []
        for params, init in zip(params_list, initial_list):
            states = np.array(init, dtype=complex_dtype, copy=True)
            program = engine.compile(circuit, params)
            finals.append(
                ops.apply_fused_statevector(states, program.operations, num_qubits)
            )
    else:
        finals = [np.asarray(f, dtype=complex_dtype) for f in final_states]
        if len(finals) != groups:
            raise TrainingError(
                "adjoint_gradient_batch: final_states group count mismatch"
            )
        if any(f.shape != init.shape for f, init in zip(finals, initial_list)):
            raise TrainingError("final_states and initial_states shape mismatch")

    bounds = [engine.bound_circuit(circuit, params) for params in params_list]
    reference = bounds[0]
    # The engine's LRU returns one object per (structure, binding) digest, so
    # identity detects the shared-binding regime without array comparisons.
    shared = all(b is reference for b in bounds[1:])

    real_dtype = finals[0].real.dtype
    lams = [
        np.asarray(d).astype(real_dtype, copy=False) * s
        for d, s in zip(diag_list, finals)
    ]
    # A single binding needs no super-batch copy: the sweep below never
    # writes into ``psi`` or ``lam`` in place.
    lam = lams[0] if groups == 1 else np.concatenate(lams, axis=0)
    psi = finals[0] if groups == 1 else np.concatenate(finals, axis=0)
    gradients = [np.zeros(circuit.num_parameters, dtype=float) for _ in range(groups)]
    for index in range(len(reference.gates) - 1, -1, -1):
        record = reference.gates[index]
        gate = record.gate
        if shared:
            dagger = record.dagger
        else:
            dagger = np.repeat(
                np.stack([b.gates[index].dagger for b in bounds]), batch, axis=0
            )
        psi = ops.apply_unitary_statevector(psi, dagger, record.qubits, num_qubits)
        if gate.param_ref is not None and gate.trainable:
            if shared:
                derivative = reference.derivative(index)
            else:
                derivative = np.repeat(
                    np.stack([b.derivative(index) for b in bounds]), batch, axis=0
                )
            d_psi = ops.apply_unitary_statevector(
                psi, derivative, record.qubits, num_qubits
            )
            product = lam.conj() * d_psi
            for group in range(groups):
                overlap = np.sum(product[group * batch : (group + 1) * batch])
                gradients[group][gate.param_ref] += 2.0 * float(np.real(overlap))
        lam = ops.apply_unitary_statevector(lam, dagger, record.qubits, num_qubits)
    return list(zip(gradients, finals))


def expectation_from_diagonals(
    states: np.ndarray, observable_diagonals: np.ndarray
) -> float:
    """``sum_b <psi_b| D_b |psi_b>`` for diagonal observables."""
    probabilities = np.abs(states) ** 2
    return float(np.sum(probabilities * observable_diagonals))


# Observable diagonals depend only on (qubit, num_qubits) yet were rebuilt on
# every gradient call; the cache returns read-only arrays so one shared copy
# is safe across callers.  ``builds`` counts cache misses for the regression
# test pinning the memoisation.
_Z_DIAGONAL_CACHE: dict[tuple[int, int], np.ndarray] = {}
_Z_DIAGONAL_BUILDS = 0
_Z_DIAGONAL_MAX_ENTRIES = 512


def z_diagonal(qubit: int, num_qubits: int) -> np.ndarray:
    """Diagonal of the Pauli-Z observable on ``qubit`` (big-endian indexing).

    Memoised per ``(qubit, num_qubits)``; the returned array is read-only.
    """
    global _Z_DIAGONAL_BUILDS
    key = (int(qubit), int(num_qubits))
    cached = _Z_DIAGONAL_CACHE.get(key)
    if cached is None:
        indices = np.arange(2**num_qubits)
        bits = (indices >> (num_qubits - 1 - qubit)) & 1
        cached = 1.0 - 2.0 * bits
        cached.setflags(write=False)
        if len(_Z_DIAGONAL_CACHE) >= _Z_DIAGONAL_MAX_ENTRIES:
            _Z_DIAGONAL_CACHE.clear()
        _Z_DIAGONAL_CACHE[key] = cached
        _Z_DIAGONAL_BUILDS += 1
    return cached


def z_diagonal_cache_info() -> dict[str, int]:
    """Cache counters: ``entries`` currently held, ``builds`` since reset."""
    return {"entries": len(_Z_DIAGONAL_CACHE), "builds": _Z_DIAGONAL_BUILDS}


def clear_z_diagonal_cache() -> None:
    """Drop every cached diagonal and reset the build counter (for tests)."""
    global _Z_DIAGONAL_BUILDS
    _Z_DIAGONAL_CACHE.clear()
    _Z_DIAGONAL_BUILDS = 0


def shift_rules_for_circuit(circuit: QuantumCircuit) -> list[str]:
    """Per-parameter shift rule derived from the gates referencing each parameter."""
    rules = ["two_term"] * circuit.num_parameters
    for gate in circuit.gates:
        if gate.param_ref is not None and gate.spec.shift_rule is not None:
            rules[gate.param_ref] = gate.spec.shift_rule
    return rules


def parameter_shift_gradient(
    function: Callable[[np.ndarray], float],
    parameters: np.ndarray,
    rules: Sequence[str],
) -> np.ndarray:
    """Exact gradient of ``function(parameters)`` by the parameter-shift rule.

    ``function`` must be an expectation-valued function of the parameter
    vector (it is re-evaluated at shifted parameter values).  ``rules[i]`` is
    ``"two_term"`` for Pauli rotations or ``"four_term"`` for controlled
    rotations.
    """
    parameters = np.asarray(parameters, dtype=float)
    if len(rules) != parameters.shape[0]:
        raise TrainingError(
            f"{len(rules)} shift rules provided for {parameters.shape[0]} parameters"
        )
    gradient = np.zeros_like(parameters)
    for index, rule in enumerate(rules):
        shifted = parameters.copy()
        if rule == "two_term":
            shifted[index] = parameters[index] + np.pi / 2
            plus = function(shifted)
            shifted[index] = parameters[index] - np.pi / 2
            minus = function(shifted)
            gradient[index] = 0.5 * (plus - minus)
        elif rule == "four_term":
            shifted[index] = parameters[index] + np.pi / 2
            plus_near = function(shifted)
            shifted[index] = parameters[index] - np.pi / 2
            minus_near = function(shifted)
            shifted[index] = parameters[index] + 3 * np.pi / 2
            plus_far = function(shifted)
            shifted[index] = parameters[index] - 3 * np.pi / 2
            minus_far = function(shifted)
            gradient[index] = FOUR_TERM_C_PLUS * (plus_near - minus_near) - (
                FOUR_TERM_C_MINUS * (plus_far - minus_far)
            )
        else:
            raise TrainingError(f"unknown shift rule {rule!r} for parameter {index}")
    return gradient


def finite_difference_gradient(
    function: Callable[[np.ndarray], float],
    parameters: np.ndarray,
    epsilon: float = 1e-5,
) -> np.ndarray:
    """Central finite differences, used as a last-resort numerical check."""
    parameters = np.asarray(parameters, dtype=float)
    gradient = np.zeros_like(parameters)
    for index in range(parameters.shape[0]):
        shifted = parameters.copy()
        shifted[index] = parameters[index] + epsilon
        plus = function(shifted)
        shifted[index] = parameters[index] - epsilon
        minus = function(shifted)
        gradient[index] = (plus - minus) / (2 * epsilon)
    return gradient
