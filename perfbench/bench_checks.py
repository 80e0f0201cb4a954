"""Output checks of the benchmark, computed apart from the program.

Every check takes plain data (NumPy arrays, numbers, tuples) and raises
:class:`CheckFailure` when the program's output breaks a property the
method must satisfy.  Nothing here imports ``repro``: the reference
density-matrix simulation is written out from textbook definitions, so a
bug shared by the program's kernels and its checks cannot hide.

The checks deliberately test only what must hold at any scale: exact
numerics against the reference, shot-sampled predictions where the shot
noise cannot flip them, the Guidance-1 matching rule, cluster membership,
compression levels, and the serving contract.  The paper's accuracy
claims are not checked; they do not hold at the sizes a benchmark run can
afford.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np


class CheckFailure(AssertionError):
    """An output of the program broke a property the method must satisfy."""


# ---------------------------------------------------------------------------
# Reference density-matrix simulation (textbook definitions, dense matrices)
# ---------------------------------------------------------------------------

#: Frame changes executed in software on IBM-style hardware: no pulse, no noise.
VIRTUAL_GATES = frozenset({"rz", "id", "z", "s", "sdg", "t", "tdg", "p"})


def gate_matrix(name: str, param: Optional[float] = None) -> np.ndarray:
    """The textbook unitary of one gate (first listed qubit most significant)."""
    if name == "rx":
        c, s = np.cos(param / 2), np.sin(param / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if name == "ry":
        c, s = np.cos(param / 2), np.sin(param / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "rz":
        return np.diag([np.exp(-0.5j * param), np.exp(0.5j * param)])
    if name == "sx":
        return 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
    if name == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if name == "id":
        return np.eye(2, dtype=complex)
    if name == "cx":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    raise ValueError(f"the reference simulation has no matrix for gate {name!r}")


def embed(matrix: np.ndarray, qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """The full ``2**n`` operator of ``matrix`` acting on ``qubits``.

    Built column by column over the computational basis: basis state ``j``
    maps to ``sum_o matrix[o, in(j)] |j with the target bits set to o>``.
    Qubit 0 is the most significant bit of the basis index.
    """
    k = len(qubits)
    dim = 2**num_qubits
    full = np.zeros((dim, dim), dtype=complex)
    shifts = [num_qubits - 1 - q for q in qubits]
    clear = ~sum(1 << s for s in shifts)
    for column in range(dim):
        source = sum(((column >> s) & 1) << (k - 1 - i) for i, s in enumerate(shifts))
        for target in range(2**k):
            row = column & clear
            for i, s in enumerate(shifts):
                row |= ((target >> (k - 1 - i)) & 1) << s
            full[row, column] += matrix[target, source]
    return full


def depolarize(rho: np.ndarray, probability: float, qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """``(1 - p) rho + p Tr_Q(rho) (x) I_Q / d_Q`` on a ``(batch, dim, dim)`` stack."""
    if probability == 0.0:
        return rho
    batch = rho.shape[0]
    n = num_qubits
    tensor = rho.reshape((batch,) + (2,) * (2 * n))
    reduced = tensor
    # Trace out the target qubits, highest index first so axis numbers stay valid.
    for offset, q in enumerate(sorted(qubits, reverse=True)):
        remaining = n - offset
        reduced = np.trace(reduced, axis1=1 + q, axis2=1 + remaining + q)
    d = 2 ** len(qubits)
    kept = [q for q in range(n) if q not in qubits]
    # Re-insert the identity on the target qubits and restore axis order.
    eye = np.eye(d).reshape((2,) * (2 * len(qubits)))
    joined = np.multiply.outer(reduced, eye) / d
    # joined axes: batch, kept rows, kept cols, target rows, target cols
    m = len(kept)
    t = len(qubits)
    row_position = {q: 1 + i for i, q in enumerate(kept)}
    col_position = {q: 1 + m + i for i, q in enumerate(kept)}
    for i, q in enumerate(qubits):
        row_position[q] = 1 + 2 * m + i
        col_position[q] = 1 + 2 * m + t + i
    order = [0] + [row_position[q] for q in range(n)] + [col_position[q] for q in range(n)]
    mixed = joined.transpose(order).reshape(rho.shape)
    return (1.0 - probability) * rho + probability * mixed


def depolarizing_probability(error_rate: float, num_qubits: int) -> float:
    """Replace-probability of the depolarizing channel with average infidelity ``r``.

    For ``d = 2**k`` the channel ``rho -> (1-p) rho + p I/d`` has average
    gate infidelity ``r = p (d - 1) / d``.
    """
    d = 2**num_qubits
    return min(1.0, max(0.0, float(error_rate)) * d / (d - 1))


def gate_error_rate(
    name: str,
    qubits: Sequence[int],
    single_qubit_error: Mapping[int, float],
    two_qubit_error: Mapping[tuple, float],
) -> float:
    """Calibrated error rate of one physical gate (0 for frame changes)."""
    if name in VIRTUAL_GATES:
        return 0.0
    if len(qubits) == 1:
        return float(single_qubit_error.get(qubits[0], 0.0))
    pair = (qubits[0], qubits[1])
    if pair in two_qubit_error:
        return float(two_qubit_error[pair])
    return float(two_qubit_error.get((pair[1], pair[0]), 0.0))


def reference_logits(
    num_qubits: int,
    encoding: Sequence[Sequence[tuple]],
    gates: Sequence[tuple],
    single_qubit_error: Mapping[int, float],
    two_qubit_error: Mapping[tuple, float],
    readout_error: Mapping[int, tuple],
    measured: Sequence[int],
    logit_scale: float,
) -> np.ndarray:
    """Exact noisy class logits for a batch of samples.

    ``encoding[s]`` lists sample ``s``'s data rotations as
    ``(gate, physical_qubit, angle)``; ``gates`` is the bound physical
    circuit as ``(name, qubits, param)``.  Each gate is applied as
    ``U rho U^dagger`` and followed by its calibrated depolarizing channel;
    readout applies ``readout_error[q] = (P(1|0), P(0|1))`` to the measured
    qubit's marginal.  Returns ``logit_scale * <Z>`` per measured qubit,
    shape ``(samples, len(measured))``.
    """
    dim = 2**num_qubits
    samples = len(encoding)
    rho = np.zeros((samples, dim, dim), dtype=complex)
    rho[:, 0, 0] = 1.0
    cache: dict = {}

    def step(rho, name, qubits, matrices):
        rho = matrices @ rho @ np.conj(np.swapaxes(matrices, -1, -2))
        rate = gate_error_rate(name, qubits, single_qubit_error, two_qubit_error)
        return depolarize(rho, depolarizing_probability(rate, len(qubits)), qubits, num_qubits)

    for position in range(len(encoding[0])):
        name, qubit, _ = encoding[0][position]
        stack = np.stack(
            [embed(gate_matrix(name, ops[position][2]), [qubit], num_qubits) for ops in encoding]
        )
        rho = step(rho, name, (qubit,), stack)
    for name, qubits, param in gates:
        key = (name, tuple(qubits), param)
        if key not in cache:
            cache[key] = embed(gate_matrix(name, param), qubits, num_qubits)
        rho = step(rho, name, tuple(qubits), cache[key])

    probabilities = np.real(np.diagonal(rho, axis1=1, axis2=2))
    indices = np.arange(dim)
    columns = []
    for q in measured:
        one = ((indices >> (num_qubits - 1 - q)) & 1).astype(bool)
        p1 = probabilities[:, one].sum(axis=1) / probabilities.sum(axis=1)
        p10, p01 = readout_error.get(q, (0.0, 0.0))
        reported_one = p10 * (1.0 - p1) + (1.0 - p01) * p1
        columns.append(1.0 - 2.0 * reported_one)
    return logit_scale * np.stack(columns, axis=1)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_noisy_logits(program: np.ndarray, reference: np.ndarray, tolerance: float = 1e-8) -> None:
    """Exact (``shots=None``) program logits match the reference to ``tolerance``."""
    program = np.asarray(program, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if program.shape != reference.shape:
        raise CheckFailure(f"logit shapes differ: program {program.shape}, reference {reference.shape}")
    error = float(np.max(np.abs(program - reference)))
    if not error <= tolerance:
        raise CheckFailure(f"noisy logits differ from the reference by {error:.3e} > {tolerance:.0e}")


def check_sampled_predictions(
    sampled_logits: np.ndarray,
    reference: np.ndarray,
    shots: int,
    logit_scale: float,
    sigmas: float = 5.0,
) -> int:
    """Shot-sampled argmax equals the reference argmax where shot noise cannot flip it.

    A Z expectation estimated from ``shots`` shots has standard error
    ``sqrt((1 - z^2) / shots)``.  Where the reference's top class leads every
    other class by more than ``sigmas`` times the sum of the two standard
    errors, the sampled prediction must be the reference's.  Returns the
    number of samples that were decisive.
    """
    sampled_logits = np.asarray(sampled_logits, dtype=float)
    reference = np.asarray(reference, dtype=float)
    z = np.clip(reference / logit_scale, -1.0, 1.0)
    error = logit_scale * np.sqrt((1.0 - z**2) / shots)
    decisive = 0
    for row, (ref_row, err_row) in enumerate(zip(reference, error)):
        top = int(np.argmax(ref_row))
        others = [c for c in range(ref_row.size) if c != top]
        margins = ref_row[top] - ref_row[others]
        if np.all(margins > sigmas * (err_row[top] + err_row[others])):
            decisive += 1
            predicted = int(np.argmax(sampled_logits[row]))
            if predicted != top:
                raise CheckFailure(
                    f"sample {row}: shot-sampled prediction {predicted} differs from the "
                    f"reference {top} although the margin exceeds {sigmas:g} standard errors"
                )
    return decisive


def check_accuracy_counts(accuracies: Sequence[float], samples: int) -> None:
    """Every per-day accuracy is ``k / samples`` for an integer ``0 <= k <= samples``."""
    for day, value in enumerate(accuracies):
        count = float(value) * samples
        if not (abs(count - round(count)) <= 1e-9 and 0 <= round(count) <= samples):
            raise CheckFailure(f"day {day}: accuracy {value!r} is not k/{samples}")


def check_accuracy_matches(accuracy: float, predictions: np.ndarray, labels: np.ndarray) -> None:
    """A reported accuracy equals the share of predictions that hit their labels."""
    expected = float(np.mean(np.asarray(predictions) == np.asarray(labels)))
    if accuracy != expected:
        raise CheckFailure(f"reported accuracy {accuracy!r} but the predictions give {expected!r}")


def weighted_l1(x: np.ndarray, y: np.ndarray, weights: np.ndarray) -> float:
    """``sum_j |w_j x_j - w_j y_j|`` (Eq. 5 of the paper)."""
    return float(np.sum(np.abs(weights * np.asarray(x) - weights * np.asarray(y))))


def check_online_decisions(
    decisions: Sequence[tuple],
    day_vectors: Sequence[np.ndarray],
    weights: np.ndarray,
    threshold: float,
    entry_vectors: Sequence[np.ndarray],
    entry_parameters: Sequence[np.ndarray],
    offline_entries: int,
    optimizations: int,
) -> None:
    """Guidance 1: reuse exactly when the nearest stored entry is within ``th_w``.

    ``decisions[t] = (action, entry_index, parameters)`` for online day
    ``t``; ``entry_vectors`` / ``entry_parameters`` are the final repository
    in insertion order (offline entries first, then one per online
    optimisation).  Day ``t`` matches against the entries present when it
    arrived.
    """
    weights = np.asarray(weights, dtype=float)
    if not threshold > 0:
        raise CheckFailure(f"repository threshold {threshold!r} is not positive")
    available = offline_entries
    grown = 0
    for day, ((action, entry_index, parameters), vector) in enumerate(zip(decisions, day_vectors)):
        if action in ("new", "bootstrap"):
            grown += 1
        if available == 0:
            if action != "bootstrap":
                raise CheckFailure(f"day {day}: empty repository but action {action!r}")
            available += 1
            continue
        distances = [weighted_l1(entry_vectors[i], vector, weights) for i in range(available)]
        nearest = int(np.argmin(distances))
        should_reuse = distances[nearest] <= threshold
        reused = action in ("reuse", "invalid")
        if reused != should_reuse:
            raise CheckFailure(
                f"day {day}: action {action!r} but the nearest entry is at "
                f"{distances[nearest]:.6g} against threshold {threshold:.6g}"
            )
        if reused:
            if entry_index != nearest:
                raise CheckFailure(f"day {day}: reused entry {entry_index}, nearest is {nearest}")
            if not np.array_equal(np.asarray(parameters), np.asarray(entry_parameters[nearest])):
                raise CheckFailure(f"day {day}: reused parameters differ from entry {nearest}'s")
        else:
            available += 1
    size = len(entry_vectors)
    if size != offline_entries + grown:
        raise CheckFailure(
            f"repository holds {size} entries, expected {offline_entries} offline + {grown} grown online"
        )
    if size != offline_entries + optimizations:
        raise CheckFailure(
            f"repository holds {size} entries but the manager counts {optimizations} optimisations "
            f"on top of {offline_entries} offline entries"
        )


def check_offline_clusters(
    calibrations: np.ndarray,
    labels: np.ndarray,
    centroids: np.ndarray,
    weights: np.ndarray,
    offline_entries: int,
) -> None:
    """Every offline day sits in its nearest cluster; one entry per non-empty cluster."""
    calibrations = np.asarray(calibrations, dtype=float)
    weights = np.asarray(weights, dtype=float)
    for day, (vector, label) in enumerate(zip(calibrations, labels)):
        distances = np.array([weighted_l1(vector, centroid, weights) for centroid in centroids])
        slack = 1e-12 * max(1.0, float(distances.max()))
        if distances[label] > distances.min() + slack:
            raise CheckFailure(
                f"offline day {day} is in cluster {label} at {distances[label]:.6g}, but cluster "
                f"{int(distances.argmin())} is nearer at {distances.min():.6g}"
            )
    non_empty = len(set(int(label) for label in labels))
    if offline_entries != non_empty:
        raise CheckFailure(f"{offline_entries} offline entries for {non_empty} non-empty clusters")


def check_compression(
    parameters: np.ndarray,
    mask: np.ndarray,
    levels: Sequence[float],
    length_before: int,
    length_after: int,
    tolerance: float = 1e-9,
) -> None:
    """Masked parameters sit on a compression level (mod 2 pi); the circuit did not grow."""
    parameters = np.asarray(parameters, dtype=float)
    mask = np.asarray(mask).astype(bool)
    levels = np.asarray(levels, dtype=float)
    for index in np.flatnonzero(mask):
        reduced = parameters[index] % (2 * np.pi)
        gap = np.abs(reduced - levels)
        gap = np.minimum(gap, 2 * np.pi - gap)
        if not gap.min() <= tolerance:
            raise CheckFailure(
                f"masked parameter {index} = {parameters[index]!r} is {gap.min():.3e} from every level"
            )
    if not length_after <= length_before:
        raise CheckFailure(f"physical length grew from {length_before} to {length_after}")


def check_serving(
    submitted: int,
    stamps: Sequence[int],
    responses: Sequence[tuple],
) -> None:
    """Every request completed exactly once; versions never decrease in submission order.

    ``stamps[i]`` counts the completions seen for request ``i``;
    ``responses`` holds ``(submission_index, model, version)`` per response.
    """
    if len(stamps) != submitted:
        raise CheckFailure(f"{len(stamps)} completion counters for {submitted} requests")
    for index, count in enumerate(stamps):
        if count != 1:
            raise CheckFailure(f"request {index} completed {count} times")
    if len(responses) != submitted:
        raise CheckFailure(f"{len(responses)} responses for {submitted} requests")
    latest: dict = {}
    for index, model, version in sorted(responses):
        if version < latest.get(model, version):
            raise CheckFailure(
                f"request {index} of {model!r} served by version {version} after version {latest[model]}"
            )
        latest[model] = version


def check_served_logits(served: np.ndarray, direct: np.ndarray, tolerance: float = 1e-9) -> None:
    """A served response equals a direct forward pass under the version that served it."""
    error = float(np.max(np.abs(np.asarray(served) - np.asarray(direct))))
    if not error <= tolerance:
        raise CheckFailure(f"served logits differ from a direct forward pass by {error:.3e}")
