"""In-memory spans and counters for the benchmark's traced runs.

Tracing lives entirely in the benchmark: :func:`install` replaces each
public function of the program's layers at the name its caller looks up
(a class attribute for methods, a module attribute for functions imported
by name) with a wrapper that records a span.  The untraced run installs
nothing, so its end-to-end numbers carry no tracing cost.

A span is ``(id, parent, layer, name, thread, start, end)`` plus a few
attributes; the parent is the innermost open span of the same thread.  A
layer's self time is its spans' durations minus the time covered by their
direct child spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

#: The program's layers, in the order the report prints them.
LAYERS = ("calibration", "datasets", "transpiler", "qnn", "core", "simulator", "runtime", "serving")


@dataclass
class Span:
    """One timed call at a layer boundary."""

    id: int
    parent: Optional[int]
    layer: str
    name: str
    thread: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall-clock seconds between entry and exit."""
        return self.end - self.start


class Tracer:
    """Collects spans and counters from every thread while enabled."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.enabled = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str) -> Optional[Span]:
        """Start a span (``None`` while tracing is paused)."""
        if not self.enabled:
            return None
        stack = self._stack()
        span = Span(
            id=next(self._ids),
            parent=stack[-1].id if stack else None,
            layer=layer,
            name=name,
            thread=threading.current_thread().name,
            start=time.perf_counter(),
        )
        stack.append(span)
        return span

    def close(self, span: Optional[Span], **attrs) -> None:
        """Finish a span opened by :meth:`open`."""
        if span is None:
            return
        span.end = time.perf_counter()
        span.attrs.update(attrs)
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a named counter (ignored while tracing is paused)."""
        if self.enabled:
            with self._lock:
                self.counters[name] += amount

    def wrap(self, layer: str, name: str, function: Callable, attrs: Optional[Callable] = None) -> Callable:
        """A wrapper recording one span per call; ``attrs(args, result)`` adds fields."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = self.open(layer, name)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                self.close(span, error=True)
                raise
            self.close(span, **(attrs(args, result) if attrs is not None and span is not None else {}))
            return result

        return traced

    def dump(self, path) -> None:
        """Write the counters and every span as JSON lines."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"counters": dict(self.counters)}) + "\n")
            for span in self.spans:
                record = {
                    "id": span.id,
                    "parent": span.parent,
                    "layer": span.layer,
                    "name": span.name,
                    "thread": span.thread,
                    "start": span.start,
                    "end": span.end,
                }
                record.update(span.attrs)
                handle.write(json.dumps(record) + "\n")


def wrapper_seconds(calls: int = 20000) -> float:
    """Measured cost of one traced call over a plain call, in seconds."""

    def plain():
        return None

    tracer = Tracer()
    tracer.enabled = True
    traced = tracer.wrap("probe", "probe", plain)
    start = time.perf_counter()
    for _ in range(calls):
        plain()
    untraced_s = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - start - untraced_s) / calls)


def _density_attrs(args, result) -> dict:
    """Rows, register dimension, gate count and itemsize of a density execution."""
    circuits = args[1]
    first = circuits if hasattr(circuits, "gates") else circuits[0]
    items = result if isinstance(result, list) else [result]
    return {
        "rows": sum(item.rho.shape[0] for item in items),
        "dim": items[0].rho.shape[-1],
        "itemsize": items[0].rho.itemsize,
        "gates": len(first.gates),
    }


def _pass_counts(stats) -> tuple[int, int]:
    """(passes avoided, passes run) of a pass manager, as its hit rate counts them."""
    avoided = stats.result_passes_avoided + stats.layout_hits + stats.layout_reuses + stats.routing_hits
    return avoided, stats.layout_runs + stats.routing_runs


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the public calls of every layer; returns a function that undoes it."""
    from repro.core import admm, constructor, manager
    from repro.experiments import context
    from repro.qnn import model as qnn_model
    from repro.qnn import trainer as qnn_trainer
    from repro.runtime import runner
    from repro.serving import scheduler, service
    from repro.simulator import backend, engine, noise_model
    from repro.transpiler import pipeline

    undo: list[tuple] = []

    def replace(owner, attribute: str, wrapper) -> None:
        # An inherited method has no entry of its own; undo deletes the override.
        undo.append((owner, attribute, vars(owner).get(attribute)))
        setattr(owner, attribute, wrapper)

    def patch(owner, attribute: str, layer: str, name: str, attrs=None) -> None:
        replace(owner, attribute, tracer.wrap(layer, name, getattr(owner, attribute), attrs))

    for function in ("generate_belem_history", "generate_jakarta_history", "generate_device_history"):
        patch(context, function, "calibration", "history")
    from_calibration = noise_model.NoiseModel.__dict__["from_calibration"].__func__
    replace(
        noise_model.NoiseModel,
        "from_calibration",
        classmethod(tracer.wrap("calibration", "noise_model", from_calibration)),
    )
    patch(context, "load_dataset", "datasets", "load")

    original_compile = pipeline.PassManager.compile

    @functools.wraps(original_compile)
    def pass_manager_compile(self, *args, **kwargs):
        span = tracer.open("transpiler", "compile")
        avoided, run = _pass_counts(self.stats)
        try:
            return original_compile(self, *args, **kwargs)
        finally:
            after_avoided, after_run = _pass_counts(self.stats)
            tracer.close(span, passes_avoided=after_avoided - avoided, passes_run=after_run - run)

    replace(pipeline.PassManager, "compile", pass_manager_compile)

    patch(qnn_trainer.Trainer, "train", "qnn", "train")
    patch(qnn_model.QNNModel, "loss_and_gradient_batch", "qnn", "grad_batch")
    patch(qnn_model.QNNModel, "forward_noisy_batch", "qnn", "forward_noisy")

    patch(constructor.RepositoryConstructor, "build", "core", "offline_build")
    patch(constructor.RepositoryConstructor, "measure_day_accuracies", "core", "offline_eval")
    patch(constructor, "cluster_calibrations", "core", "cluster")
    patch(admm.NoiseAwareCompressor, "compress", "core", "compress")
    patch(manager.RepositoryManager, "adapt", "core", "adapt", attrs=lambda args, result: {"action": result.action})

    for kind, cls in (("density", backend.DensityMatrixBackend), ("statevector", backend.StatevectorBackend)):
        attrs = _density_attrs if kind == "density" else None
        patch(cls, "execute", "simulator", kind, attrs)
        patch(cls, "execute_batch", "simulator", kind, attrs)
    original_engine_compile = engine.SimulationEngine.compile

    @functools.wraps(original_engine_compile)
    def engine_compile(self, *args, **kwargs):
        hits = self.stats.program_hits
        program = original_engine_compile(self, *args, **kwargs)
        tracer.count("simulator.program_hits" if self.stats.program_hits > hits else "simulator.program_builds")
        return program

    replace(engine.SimulationEngine, "compile", engine_compile)

    patch(runner.ExperimentRunner, "evaluate_days", "runtime", "evaluate", attrs=lambda args, result: {"days": len(result)})
    patch(runner, "_evaluate_chunk", "runtime", "chunk")

    patch(scheduler.MicroBatchScheduler, "flush_pending", "serving", "flush_pending")
    patch(service.InferenceService, "predict_async", "serving", "submit")
    patch(service.InferenceService, "deploy", "serving", "deploy")
    patch(service.InferenceService, "observe_calibration", "serving", "observe")

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    return uninstall


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time: span durations minus their direct children's."""
    child_time: Counter = Counter()
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    totals = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0.0) + span.duration - child_time[span.id]
    return totals


def layer_metrics(spans: list[Span], counters: Counter) -> dict[str, float]:
    """The span- and counter-derived per-layer metrics of one traced phase."""
    by_name: dict[tuple[str, str], list[Span]] = {}
    for span in spans:
        by_name.setdefault((span.layer, span.name), []).append(span)

    def group(layer: str, name: str) -> list[Span]:
        return by_name.get((layer, name), [])

    def seconds(layer: str, name: str) -> float:
        return float(sum(span.duration for span in group(layer, name)))

    def calls(layer: str, name: str) -> int:
        return len(group(layer, name))

    compiles = group("transpiler", "compile")
    avoided = sum(span.attrs.get("passes_avoided", 0) for span in compiles)
    run = sum(span.attrs.get("passes_run", 0) for span in compiles)
    adapts = group("core", "adapt")
    reuses = sum(1 for span in adapts if span.attrs.get("action") == "reuse")
    density = group("simulator", "density")
    rows = sum(span.attrs["rows"] for span in density)
    density_s = seconds("simulator", "density")
    walked_bytes = sum(
        2 * span.attrs["rows"] * span.attrs["dim"] ** 2 * span.attrs["itemsize"] * span.attrs["gates"]
        for span in density
    )
    hits = counters.get("simulator.program_hits", 0)
    builds = counters.get("simulator.program_builds", 0)
    metrics = {
        "calibration.history_s": seconds("calibration", "history"),
        "calibration.noise_model_s": seconds("calibration", "noise_model"),
        "datasets.load_s": seconds("datasets", "load"),
        "transpiler.compile_calls": len(compiles),
        "transpiler.compile_s": seconds("transpiler", "compile"),
        "transpiler.pass_hit_rate": avoided / (avoided + run) if avoided + run else 0.0,
        "qnn.train_calls": calls("qnn", "train"),
        "qnn.train_s": seconds("qnn", "train"),
        "qnn.grad_batches": calls("qnn", "grad_batch"),
        "core.offline_eval_s": seconds("core", "offline_eval"),
        "core.cluster_s": seconds("core", "cluster"),
        "core.compress_calls": calls("core", "compress"),
        "core.compress_s": seconds("core", "compress"),
        "core.adapt_steps": len(adapts),
        "core.reuses": reuses,
        "core.reuse_ratio": reuses / len(adapts) if adapts else 0.0,
        "simulator.density_calls": len(density),
        "simulator.density_rows": rows,
        "simulator.density_s": density_s,
        "simulator.density_rows_per_s": rows / density_s if density_s > 0 else 0.0,
        "simulator.density_dim": max((span.attrs["dim"] for span in density), default=0),
        "simulator.physical_gates": sum(span.attrs["gates"] for span in density),
        "simulator.walk_mb_computed": walked_bytes / 2**20,
        "simulator.statevector_calls": calls("simulator", "statevector"),
        "simulator.statevector_s": seconds("simulator", "statevector"),
        "simulator.program_hit_rate": hits / (hits + builds) if hits + builds else 0.0,
        "runtime.evaluate_calls": calls("runtime", "evaluate"),
        "runtime.days_evaluated": sum(span.attrs.get("days", 0) for span in group("runtime", "evaluate")),
        "runtime.chunks": calls("runtime", "chunk"),
        "runtime.evaluate_s": seconds("runtime", "evaluate"),
    }
    flushes = [span.duration for span in group("qnn", "forward_noisy") if span.thread == "serving-dispatch"]
    metrics["serving.flush_ms_p50"] = float(np.median(flushes)) * 1e3 if flushes else 0.0
    observes = [span.duration for span in group("serving", "observe")]
    metrics["serving.observe_ms_p50"] = float(np.median(observes)) * 1e3 if observes else 0.0
    for layer, value in self_times(spans).items():
        metrics[f"{layer}.self_s"] = value
    return metrics


def dispatch_flush_durations(spans: list[Span]) -> list[float]:
    """Durations of the serving flushes' forward passes, in flush order."""
    flushes = [
        span for span in spans
        if span.layer == "qnn" and span.name == "forward_noisy" and span.thread == "serving-dispatch"
    ]
    return [span.duration for span in sorted(flushes, key=lambda span: span.start)]
