"""The benchmark's workloads: inputs, one round of work, and the output checks.

A workload is set up once per process (dataset, calibration history,
device binding, base-model training) and then runs whole *rounds*.  A
round exercises the QuCAD lifecycle and its serving path as repeated units
interleaved slot by slot (:func:`schedule`):

* ``offline`` — ``QuCAD.offline`` on a fresh framework: day sweep,
  clustering, one compression per cluster;
* ``online`` — ``QuCAD.adapt_over`` over every online day;
* ``evaluation`` — shot-sampled evaluation of QuCAD's and the baseline's
  per-day parameters through a ``serial`` :class:`ExperimentRunner`;
* ``burst`` — requests submitted at once to a fixed deployment;
* ``segment`` — a slice of an open-loop Poisson stream to a deployment whose
  adapter serves the round's online decisions, while the online history
  reaches ``observe_calibration`` (hot swaps).

The program's own inputs — dataset, calibration history, training seeds —
are fixed per workload: the online stage's cost is decided by how many days
miss the repository, and a seed-dependent history would make it bimodal
instead of measuring the code.  The benchmark seed draws the evaluation
subset, the shot seeds, the request samples and the arrival schedule.
"""

from __future__ import annotations

import contextlib
import copy
import time
from dataclasses import dataclass, field

import numpy as np

import bench_checks as checks

#: Measurement shots of the evaluation phase (the paper's setting).
SHOTS = 1024
#: Serving batch policy: 16-row flushes, 2 ms coalescing window.
MAX_BATCH = 16
MAX_LATENCY_MS = 2.0
#: Registry name of the served model.
MODEL_NAME = "qnn"
#: Registry name of the fixed deployment the bursts go to (no swaps).
BURST_NAME = "qnn-burst"
#: Seed of the program-side inputs (dataset, history, training).
PROGRAM_SEED = 2021
#: Training-set size (bench scale uses 96): halves every compression and
#: online optimisation, so the offline and online units stay short.
TRAIN_SAMPLES = 48


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload.

    A round repeats each unit of work — ``offline`` stages, ``online``
    stages, evaluation passes (``evaluations``), ``bursts`` of
    ``burst_size`` requests and open-loop ``segments`` — interleaved slot by
    slot (see :func:`schedule`).  ``round_seconds`` is the nominal length of
    a round on the reference host; a run of ``--seconds`` makes
    ``max(1, round(seconds / round_seconds))`` rounds, so every run of a
    workload attempts the same operations whatever the host's speed.
    """

    name: str
    dataset: str
    device: str
    offline_days: int
    online_days: int
    sweep_samples: int
    eval_samples: int
    num_clusters: int
    open_requests: int
    open_rate: float
    segments: int
    burst_size: int
    offline: int
    online: int
    evaluations: int
    bursts: int
    round_seconds: float
    reference_samples: int

    def __post_init__(self) -> None:
        if self.open_requests % self.segments:
            raise ValueError(
                f"{self.name}: {self.open_requests} open-loop requests do not split into {self.segments} segments"
            )

    @property
    def burst_requests(self) -> int:
        """Requests submitted by all bursts of a round."""
        return self.bursts * self.burst_size


def schedule(workload: Workload) -> list[str]:
    """The round's units in order.

    The round has as many slots as the most repeated unit; a unit repeated
    ``count`` times runs its ``k``-th repeat in slot ``k * slots // count``,
    so every repeated measurement samples the host across the whole round
    rather than one stretch of it.
    """
    counts = {
        "offline": workload.offline,
        "online": workload.online,
        "evaluation": workload.evaluations,
        "burst": workload.bursts,
        "segment": workload.segments,
    }
    slots = max(counts.values())
    return [
        unit
        for slot in range(slots)
        for unit, count in counts.items()
        for repeat in range(count)
        if repeat * slots // count == slot
    ]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="lifecycle-belem",
            dataset="mnist4",
            device="belem",
            offline_days=12,
            online_days=6,
            sweep_samples=2,
            eval_samples=4,
            num_clusters=2,
            open_requests=80,
            open_rate=5.0,
            segments=10,
            burst_size=32,
            offline=12,
            online=12,
            evaluations=12,
            bursts=12,
            round_seconds=40.0,
            reference_samples=2,
        ),
        Workload(
            name="lifecycle-jakarta",
            dataset="seismic",
            device="jakarta",
            offline_days=3,
            online_days=2,
            sweep_samples=1,
            eval_samples=1,
            num_clusters=2,
            open_requests=32,
            open_rate=1.6,
            segments=8,
            burst_size=4,
            offline=10,
            online=10,
            evaluations=10,
            bursts=8,
            round_seconds=45.0,
            reference_samples=1,
        ),
    )
}


@dataclass
class Inputs:
    """Everything a run draws from ``--seed``."""

    features: np.ndarray
    labels: np.ndarray
    qucad_shot_seeds: list
    base_shot_seeds: list
    arrivals: np.ndarray
    open_samples: np.ndarray
    burst_samples: np.ndarray
    check_rows: np.ndarray


def program_scale(workload: Workload):
    """The :class:`ExperimentScale` of a workload (bench scale, resized)."""
    from repro.experiments import BENCH_SCALE

    return BENCH_SCALE.with_overrides(
        offline_days=workload.offline_days,
        online_days=workload.online_days,
        eval_samples=workload.sweep_samples,
        train_samples=TRAIN_SAMPLES,
        num_clusters=workload.num_clusters,
        seed=PROGRAM_SEED,
    )


def set_up(workload: Workload):
    """Dataset, calibration history, device binding and base-model training."""
    from repro.experiments import prepare_experiment

    return prepare_experiment(workload.dataset, scale=program_scale(workload), device=workload.device)


def draw_inputs(workload: Workload, setup, seed: int) -> Inputs:
    """The seeded evaluation subset, shot seeds, requests and arrival schedule."""
    rng = np.random.default_rng(seed)
    subset = setup.dataset.subsample(num_test=workload.eval_samples, seed=seed)
    days = workload.online_days
    # Exponential gaps drawn by stratified inverse-CDF sampling: every run
    # offers the same gap distribution, and the seed decides their order.
    count = workload.open_requests
    strata = (rng.permutation(count) + rng.random(count)) / count
    gaps = -np.log1p(-strata) / workload.open_rate
    gaps[0] = 0.0
    return Inputs(
        features=subset.test_features,
        labels=subset.test_labels,
        qucad_shot_seeds=[int(s) for s in rng.integers(0, 2**31, size=days)],
        base_shot_seeds=[int(s) for s in rng.integers(0, 2**31, size=days)],
        arrivals=np.cumsum(gaps),
        open_samples=rng.integers(0, subset.test_features.shape[0], size=workload.open_requests),
        burst_samples=rng.integers(0, subset.test_features.shape[0], size=workload.burst_requests),
        check_rows=rng.choice(subset.test_features.shape[0], size=workload.reference_samples, replace=False),
    )


@dataclass
class Served:
    """One serving phase's requests and their outcomes."""

    submitted: int = 0
    results: list = field(default_factory=list)
    failures: int = 0
    stamps: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    lags: list = field(default_factory=list)
    origins: dict = field(default_factory=dict)


@dataclass
class RoundResult:
    """Timings and outputs of one round."""

    offline_times: list
    online_times: list
    eval_times: list
    repeated_actions: list
    repeated_accuracies: list
    sample_days: int
    serve_open: Served
    serve_burst: Served
    burst_rates: list
    observe_s: list
    round_s: float
    host_speed: list
    offline_entries: int
    qucad: object
    report: object
    decisions: list
    compressions: list
    qucad_accuracies: np.ndarray
    base_accuracies: np.ndarray
    versions: dict
    swaps: list
    scheduler_stats: object

    @property
    def attempted(self) -> int:
        """Online days adapted, days evaluated and requests submitted, over every repeat."""
        return (
            sum(len(actions) for actions in self.repeated_actions)
            + sum(len(qucad) + len(base) for qucad, base in self.repeated_accuracies)
            + self.serve_open.submitted
            + self.serve_burst.submitted
        )

    @property
    def failed(self) -> int:
        """Requests that resolved with an error."""
        return self.serve_open.failures + self.serve_burst.failures


def _submit(service, name: str, served: Served, features: np.ndarray, done_at, index: int):
    """Submit one request and stamp its completion time from the done-callback."""

    def stamp(_future, index=index):
        done_at[index] = time.perf_counter()
        served.stamps[index] += 1

    future = service.predict_async(name, features)
    future.add_done_callback(stamp)
    served.submitted += 1
    return future


def _collect(futures: list, served: Served) -> None:
    for future in futures:
        try:
            served.results.append(future.result(timeout=120.0))
        except Exception:  # a failed request counts against the run, it does not end it
            served.failures += 1
            served.results.append(None)


def _wait_stamps(served: Served, indices: range, timeout: float = 30.0) -> None:
    """``Future.result`` returns before done-callbacks run; wait for their stamps."""
    deadline = time.monotonic() + timeout
    while any(served.stamps[index] == 0 for index in indices) and time.monotonic() < deadline:
        time.sleep(0.001)


@contextlib.contextmanager
def _paused(tracer, pause: bool):
    """Pause ``tracer`` (if any) for the block when ``pause`` is true."""
    enabled = tracer is not None and tracer.enabled
    if pause and enabled:
        tracer.enabled = False
    try:
        yield
    finally:
        if pause and enabled:
            tracer.enabled = True


def evaluate(model, decisions, online, inputs: Inputs):
    """Shot-sampled accuracy of QuCAD's and the baseline's per-day parameters."""
    from repro.runtime import ExperimentRunner
    from repro.simulator import NoiseModel

    with ExperimentRunner(mode="serial") as runner:
        noise_models = [NoiseModel.from_calibration(snapshot) for snapshot in online]
        qucad_accuracies = runner.evaluate_days(
            model, inputs.features, inputs.labels, noise_models,
            parameter_sets=[decision.parameters for decision in decisions],
            shots=SHOTS, seeds=inputs.qucad_shot_seeds, experiment="bench/qucad",
        )
        base_accuracies = runner.evaluate_days(
            model, inputs.features, inputs.labels, noise_models,
            parameter_sets=[model.parameters] * len(online),
            shots=SHOTS, seeds=inputs.base_shot_seeds, experiment="bench/baseline",
        )
    return qucad_accuracies, base_accuracies


def open_loop(service, inputs: Inputs, online, indices: range, served: Served, done_at: list,
              swaps: list, observe_s: list, versions: dict) -> None:
    """One open-loop segment: requests ``indices`` on their Poisson schedule.

    The online history reaches ``observe_calibration`` at evenly spaced
    request counts across all segments (hot swaps mid-stream).
    """
    total = len(served.stamps)
    every = max(1, total // (len(online) + 1))
    futures = []
    origin = time.perf_counter() - inputs.arrivals[indices.start]
    for index in indices:
        due = origin + inputs.arrivals[index]
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        served.lags.append(max(0.0, time.perf_counter() - due))
        served.origins[index] = origin
        futures.append(_submit(service, MODEL_NAME, served, inputs.features[inputs.open_samples[index]], done_at, index))
        day = (index + 1) // every - 1
        if (index + 1) % every == 0 and day < len(online):
            start = time.perf_counter()
            swaps.append(service.observe_calibration(MODEL_NAME, online[day]))
            observe_s.append(time.perf_counter() - start)
            current = service.registry.get(MODEL_NAME)
            versions[current.version] = current
    _collect(futures, served)
    _wait_stamps(served, indices)


def burst(service, served: Served, inputs: Inputs, indices: range) -> float:
    """Submit burst requests ``indices`` at once; seconds until the last completes."""
    done_at: dict = {}
    start = time.perf_counter()
    futures = [
        _submit(service, BURST_NAME, served, inputs.features[inputs.burst_samples[index]], done_at, index)
        for index in indices
    ]
    _collect(futures, served)
    _wait_stamps(served, indices)
    return max(done_at.values()) - start


_PROBE_MATRIX = np.linalg.qr(np.random.default_rng(0).standard_normal((64, 64)))[0].astype(complex)


def host_probe(repeats: int = 100) -> float:
    """Seconds taken by a fixed NumPy kernel (unitary conjugations of a
    64 x 64 matrix); recorded before every unit, so a run's JSON shows
    how fast the host was while each unit ran."""
    state = _PROBE_MATRIX
    start = time.perf_counter()
    for _ in range(repeats):
        state = _PROBE_MATRIX @ state @ _PROBE_MATRIX.conj().T
    return time.perf_counter() - start


def _capturing(compress, results: list):
    """Wrap a compressor's ``compress`` so its results are kept for the checks."""

    def capture(*args, **kwargs):
        result = compress(*args, **kwargs)
        results.append(result)
        return result

    return capture


def new_framework(setup):
    """A fresh QuCAD instance (own engine and backends) for the base model."""
    from repro.core.framework import QuCAD

    return QuCAD(setup.base_model, setup.dataset, setup.coupling, config=setup.method_context().qucad_config)


def run_round(workload: Workload, setup, inputs: Inputs, tracer=None) -> RoundResult:
    """One round: the units of :func:`schedule`, each timed on its own.

    Offline stages run on fresh frameworks; online stages on deep copies of
    the first framework taken right after its offline stage; evaluations on
    fresh serial runners; so repeats do identical work and must produce
    identical outputs.  ``tracer`` is paused for every repeat of the
    offline, online and evaluation units, so per-layer counts cover the
    set-up, one pass of each of them and the whole serving path.  New
    framework objects are built inside the offline timing: constructing
    the engine and backends is part of the offline stage a user pays for.
    """
    from repro.serving import BatchPolicy, InferenceService
    from repro.transpiler import PassManager

    round_start = time.perf_counter()
    model = setup.base_model
    online = list(setup.online_history)
    service = InferenceService(
        policy=BatchPolicy(max_batch=MAX_BATCH, max_latency_ms=MAX_LATENCY_MS),
        pass_manager=PassManager(),
    )
    adapted: dict = {}
    deployed = service.deploy(
        MODEL_NAME, model, calibration=setup.offline_history[-1],
        adapter=lambda snapshot: adapted[snapshot.date],
    )
    service.deploy(BURST_NAME, model, calibration=setup.offline_history[-1])
    versions = {deployed.version: deployed}
    swaps: list = []
    observe_s: list = []
    open_served = Served(stamps=[0] * workload.open_requests)
    burst_served = Served(stamps=[0] * workload.burst_requests)
    open_done = [None] * workload.open_requests
    times: dict = {"offline": [], "online": [], "evaluation": [], "burst": []}
    repeated_actions, repeated_accuracies, compressions = [], [], []
    done = {unit: 0 for unit in ("offline", "online", "evaluation", "burst", "segment")}
    first = replicas = decisions = accuracies = None
    host_speed: list = []

    with service:
        for unit in schedule(workload):
            repeat = done[unit]
            done[unit] += 1
            host_speed.append((unit, host_probe()))
            if unit == "segment":
                size = workload.open_requests // workload.segments
                open_loop(
                    service, inputs, online, range(repeat * size, (repeat + 1) * size),
                    open_served, open_done, swaps, observe_s, versions,
                )
            elif unit == "burst":
                indices = range(repeat * workload.burst_size, (repeat + 1) * workload.burst_size)
                times["burst"].append(burst(service, burst_served, inputs, indices))
            elif unit == "offline":
                with _paused(tracer, repeat > 0):
                    start = time.perf_counter()
                    framework = new_framework(setup)
                    report = framework.offline(setup.offline_history)
                    times["offline"].append(time.perf_counter() - start)
                if repeat == 0:
                    first, first_report = framework, report
                    offline_entries = len(report.repository)
                    replicas = [copy.deepcopy(first) for _ in range(workload.online - 1)]
                    compressions = list(report.compression_results)
                    first.compressor.compress = _capturing(first.compressor.compress, compressions)
            elif unit == "online":
                with _paused(tracer, repeat > 0):
                    start = time.perf_counter()
                    outcome = (first if repeat == 0 else replicas[repeat - 1]).adapt_over(setup.online_history)
                    times["online"].append(time.perf_counter() - start)
                repeated_actions.append([decision.action for decision in outcome])
                if repeat == 0:
                    decisions = outcome
                    adapted.update(
                        (snapshot.date, decision.parameters) for snapshot, decision in zip(online, decisions)
                    )
            else:
                with _paused(tracer, repeat > 0):
                    start = time.perf_counter()
                    outcome = evaluate(model, decisions, online, inputs)
                    times["evaluation"].append(time.perf_counter() - start)
                repeated_accuracies.append(outcome)
                if repeat == 0:
                    accuracies = outcome
        open_served.latencies = [
            done_at - (open_served.origins[index] + inputs.arrivals[index])
            for index, done_at in enumerate(open_done)
            if done_at is not None
        ]
    qucad_accuracies, base_accuracies = accuracies
    sample_days = (len(qucad_accuracies) + len(base_accuracies)) * inputs.features.shape[0]
    qucad, report = first, first_report
    return RoundResult(
        offline_times=times["offline"],
        online_times=times["online"],
        eval_times=times["evaluation"],
        repeated_actions=repeated_actions,
        repeated_accuracies=repeated_accuracies,
        sample_days=sample_days,
        serve_open=open_served,
        serve_burst=burst_served,
        burst_rates=[workload.burst_size / elapsed for elapsed in times["burst"]],
        observe_s=observe_s,
        round_s=time.perf_counter() - round_start,
        host_speed=host_speed,
        offline_entries=offline_entries,
        qucad=qucad,
        report=report,
        decisions=decisions,
        compressions=compressions,
        qucad_accuracies=qucad_accuracies,
        base_accuracies=base_accuracies,
        versions=versions,
        swaps=swaps,
        scheduler_stats=service.scheduler.stats,
    )


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _reference(model, snapshot, parameters, features: np.ndarray) -> np.ndarray:
    """Reference logits for ``features`` under one (day, binding) pair."""
    transpiled = model.transpiled
    encoder = model.encoder
    operations = encoder.operations()
    encoding = [
        [
            (op.gate, transpiled.encoding_physical_qubit(op.logical_qubit), float(row[op.feature_index]) * encoder.scale)
            for op in operations
        ]
        for row in features
    ]
    gates = [(gate.name, tuple(gate.qubits), gate.param) for gate in transpiled.to_physical(parameters).gates]
    return checks.reference_logits(
        num_qubits=transpiled.coupling.num_qubits,
        encoding=encoding,
        gates=gates,
        single_qubit_error=dict(snapshot.single_qubit_error),
        two_qubit_error={tuple(pair): rate for pair, rate in snapshot.two_qubit_error.items()},
        readout_error={q: (float(rate), float(rate)) for q, rate in snapshot.readout_error.items()},
        measured=transpiled.measured_physical_qubits(model.readout_qubits),
        logit_scale=model.logit_scale,
    )


def run_checks(workload: Workload, setup, inputs: Inputs, rounds: list) -> list[str]:
    """Run every output check; returns the failures' messages (empty when correct)."""
    from repro.simulator import DensityMatrixBackend, NoiseModel, SimulationEngine

    failures: list[str] = []

    def attempt(label: str, check, *args, **kwargs):
        try:
            return check(*args, **kwargs)
        except checks.CheckFailure as failure:
            failures.append(f"{label}: {failure}")
            return None

    first = rounds[0]
    model = setup.base_model
    online = list(setup.online_history)
    offline = list(setup.offline_history)
    backend = DensityMatrixBackend(engine=SimulationEngine())
    rows = inputs.check_rows
    check_features = inputs.features[rows]

    # Exact noisy logits and shot-sampled predictions against the reference.
    decision_day = next(
        (day for day, decision in enumerate(first.decisions) if decision.action != "bootstrap"), 0
    )
    base_day = (decision_day + 1) % len(online)
    triples = [
        ("offline day", offline[len(offline) // 2], model.parameters, None, None),
        ("adapted binding", online[decision_day], first.decisions[decision_day].parameters,
         inputs.qucad_shot_seeds[decision_day], first.qucad_accuracies[decision_day]),
        ("baseline binding", online[base_day], model.parameters,
         inputs.base_shot_seeds[base_day], first.base_accuracies[base_day]),
    ]
    for label, snapshot, parameters, shot_seed, accuracy in triples:
        noise_model = NoiseModel.from_calibration(snapshot)
        reference = _reference(model, snapshot, parameters, check_features)
        exact = model.forward_noisy_batch(check_features, [noise_model], [parameters], backend=backend)[0]
        attempt(f"{label} {snapshot.date}", checks.check_noisy_logits, exact, reference)
        if shot_seed is None:
            continue
        sampled = model.forward_noisy_batch(
            inputs.features, [noise_model], [parameters], shots=SHOTS, seeds=[shot_seed], backend=backend
        )[0]
        attempt(
            f"{label} {snapshot.date} accuracy",
            checks.check_accuracy_matches, accuracy, np.argmax(sampled, axis=1), inputs.labels,
        )
        attempt(
            f"{label} {snapshot.date} sampled",
            checks.check_sampled_predictions, sampled[rows], reference, SHOTS, model.logit_scale,
        )

    samples = inputs.features.shape[0]
    sweep = first.report.day_accuracies
    attempt("offline accuracies", checks.check_accuracy_counts, sweep, workload.sweep_samples)
    attempt("QuCAD accuracies", checks.check_accuracy_counts, first.qucad_accuracies, samples)
    attempt("baseline accuracies", checks.check_accuracy_counts, first.base_accuracies, samples)

    clustering = first.report.clustering
    attempt(
        "offline repository", checks.check_offline_clusters,
        setup.offline_history.to_matrix(), clustering.labels, clustering.centroids,
        clustering.weights, first.offline_entries,
    )
    repository = first.qucad.repository
    attempt(
        "online decisions", checks.check_online_decisions,
        [(d.action, d.entry_index, d.parameters) for d in first.decisions],
        [snapshot.to_vector() for snapshot in online],
        repository.weights, repository.threshold,
        [entry.calibration_vector for entry in repository.entries],
        [entry.parameters for entry in repository.entries],
        first.offline_entries, first.qucad.manager.stats.optimizations,
    )
    levels = first.qucad.config.compression.table.levels
    for index, result in enumerate(first.compressions):
        attempt(
            f"compression {index}", checks.check_compression,
            result.parameters, result.mask, levels,
            result.physical_length_before, result.physical_length_after,
        )

    for number, outcome in enumerate(rounds):
        for phase, served in (("open loop", outcome.serve_open), ("burst", outcome.serve_burst)):
            offset = 0 if phase == "open loop" else outcome.serve_open.submitted
            responses = [
                (offset + index, result.model, result.version)
                for index, result in enumerate(served.results)
                if result is not None
            ]
            attempt(f"round {number} {phase} serving", checks.check_serving, served.submitted, served.stamps, responses)
        actions = [[d.action for d in first.decisions]] + outcome.repeated_actions
        if any(repeat != actions[0] for repeat in actions):
            failures.append(f"round {number}: repeated online stages decided differently: {actions}")
        accuracies = [(first.qucad_accuracies, first.base_accuracies)] + outcome.repeated_accuracies
        if any(not (np.array_equal(q, accuracies[0][0]) and np.array_equal(b, accuracies[0][1])) for q, b in accuracies):
            failures.append(f"round {number}: repeated evaluations gave different accuracies")

    served = [
        (result, inputs.features[sample])
        for result, sample in zip(
            first.serve_open.results + first.serve_burst.results,
            np.concatenate([inputs.open_samples, inputs.burst_samples]),
        )
        if result is not None
    ]
    picks = np.random.default_rng(len(served)).choice(len(served), size=min(6, len(served)), replace=False)
    for pick in picks:
        result, row = served[pick]
        version = first.versions[result.version]
        direct = version.model.forward_noisy_batch(row[None, :], [version.noise_model], backend=backend)[0][0]
        attempt(f"served response {pick} (v{result.version})", checks.check_served_logits, result.logits, direct)
    return failures
