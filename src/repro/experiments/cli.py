"""Command-line entry point: ``python -m repro.experiments <name> ...``.

One front door for every reproduction harness::

    python -m repro.experiments fig2 --scale bench
    python -m repro.experiments table1 --scale test --json out.json
    python -m repro.experiments fig7 --runner-mode pool --workers 8 \
        --records runs.jsonl
    python -m repro.experiments longitudinal --device ring_5
    python -m repro.experiments serve --requests 256 --max-batch 16
    python -m repro.experiments serve --shards 4 --models 4 --arrival-rate 200
    python -m repro.experiments fleet --devices belem,ring_5 --scenarios seasonal,jump
    python -m repro.experiments --list-devices
    python -m repro.experiments --list-scenarios

The CLI wires the chosen :class:`~repro.experiments.config.ExperimentScale`
and a configured :class:`~repro.runtime.ExperimentRunner` (mode, workers,
JSONL run records, persistent evaluation cache) into the harness, prints a
human-readable summary, and can dump the machine-readable summary as JSON.

``fig1`` (pure calibration statistics) and ``fig3`` (a direct
``execute_batch`` grid sweep) perform no per-day evaluations, so the
runner flags have no effect on them — the printed ``runner`` block shows
``days_evaluated: 0`` for those harnesses.  The same applies to ``fleet``:
cells build private runners and pass managers, so the top-level ``runner``
/ ``compiler`` blocks stay idle and the real counters live per cell in
``summary.cells[*].runner`` / ``summary.cells[*].compiler``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Optional

import numpy as np

from repro.experiments.config import (
    BENCH_SCALE,
    PAPER_SCALE,
    TEST_SCALE,
    ExperimentScale,
)
from repro.runtime import RUNNER_MODES, ExperimentRunner

#: Named scales selectable via ``--scale``.
SCALES: dict[str, ExperimentScale] = {
    "paper": PAPER_SCALE,
    "bench": BENCH_SCALE,
    "test": TEST_SCALE,
}


def _jsonable(value):
    """Best-effort conversion of result payloads to JSON-compatible types."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _device_setup(scale, device, dataset_name: str = "mnist4"):
    """A prepared :class:`ExperimentSetup`, or ``None`` for harness defaults."""
    if device is None:
        return None
    from repro.experiments.context import prepare_experiment

    return prepare_experiment(dataset_name, scale=scale, device=device)


def _reject_device(name: str, device) -> None:
    """Fail fast for harnesses pinned to one device by construction."""
    if device is not None:
        raise SystemExit(
            f"experiment {name!r} runs on a fixed device and does not accept "
            "--device"
        )


def _run_fig1(scale, runner, device=None, options=None):
    from repro.experiments.fig1 import run_fig1

    _reject_device("fig1", device)
    result = run_fig1(scale)
    return result, {"fluctuation_summary": result.fluctuation_summary()}


def _run_fig2(scale, runner, device=None, options=None):
    from repro.experiments.fig2 import run_fig2

    result = run_fig2(scale, setup=_device_setup(scale, device), runner=runner)
    return result, result.summary()


def _run_fig3(scale, runner, device=None, options=None):
    from repro.experiments.fig3 import run_fig3

    _reject_device("fig3", device)
    result = run_fig3(scale)
    return result, {"breakpoint_gain": result.breakpoint_gain()}


def _run_fig4(scale, runner, device=None, options=None):
    from repro.experiments.fig4 import run_fig4

    result = run_fig4(scale, setup=_device_setup(scale, device), runner=runner)
    return result, {
        "noisiest_coupler_per_day": result.noisiest_coupler_per_day(),
        "accuracy": {name: series for name, series in result.accuracy.items()},
    }


def _run_fig7(scale, runner, device=None, options=None):
    from repro.experiments.fig7 import run_fig7

    result = run_fig7(scale, setup=_device_setup(scale, device), runner=runner)
    return result, {
        "mean_accuracy": result.mean_accuracy,
        "normalized_time_runs": result.normalized_time("runs"),
    }


def _run_fig8(scale, runner, device=None, options=None):
    from repro.experiments.fig8 import run_fig8

    _reject_device("fig8", device)
    result = run_fig8(scale, runner=runner)
    return result, {
        "mean_accuracy": result.mean_accuracy(),
        "qucad_gain": result.qucad_gain(),
    }


def _run_fig9(scale, runner, device=None, options=None):
    from repro.experiments.fig9 import run_fig9

    result = run_fig9(scale, setup=_device_setup(scale, device), runner=runner)
    return result, {
        "upper_bound_gap": result.upper_bound_gap(),
        "noise_aware_gain": result.noise_aware_gain(),
    }


def _run_table1(scale, runner, device=None, options=None):
    from repro.experiments.table1 import run_table1

    result = run_table1(
        scale, device=device if device is not None else "belem", runner=runner
    )
    return result, {"rows": result.rows(), "formatted": result.format()}


def _run_table2(scale, runner, device=None, options=None):
    from repro.experiments.table2 import run_table2

    result = run_table2(scale, setup=_device_setup(scale, device), runner=runner)
    return result, {"rows": result.rows(), "weighted_gain": result.weighted_gain}


def _run_longitudinal(scale, runner, device=None, options=None):
    from repro.core.baselines import make_method
    from repro.experiments.context import prepare_experiment
    from repro.experiments.longitudinal import run_longitudinal

    setup = prepare_experiment(
        "mnist4", scale=scale, device=device if device is not None else "belem"
    )
    methods = [make_method("baseline"), make_method("qucad")]
    result = run_longitudinal(setup, methods, runner=runner)
    return result, {"rows": result.summary_rows()}


def _run_serve(scale, runner, device=None, options=None):
    from repro.experiments.serve import run_serve

    result = run_serve(
        scale,
        device=device,
        num_requests=getattr(options, "requests", 256),
        max_batch=getattr(options, "max_batch", 16),
        max_latency_ms=getattr(options, "max_latency_ms", 2.0),
        observe_every=getattr(options, "observe_every", None),
        shards=getattr(options, "shards", 1),
        num_models=getattr(options, "models", 1),
        arrival_rate=getattr(options, "arrival_rate", None),
    )
    return result, result.summary()


def _run_fleet(scale, runner, device=None, options=None):
    from repro.experiments.fleet import run_fleet

    _reject_device("fleet", device)  # the fleet grid uses --devices instead
    result = run_fleet(
        scale,
        devices=getattr(options, "devices", None),
        scenarios=getattr(options, "scenarios", None),
        cell_workers=getattr(options, "cell_workers", None),
        record_log=getattr(options, "records", None),
        runner_mode=getattr(options, "runner_mode", None) or "serial",
        store=getattr(options, "store", None),
        run_id=getattr(options, "run_id", None),
        resume=getattr(options, "resume", None),
    )
    summary = result.as_dict()
    summary["formatted"] = result.format()
    return result, summary


#: Experiment registry: name → harness adapter returning (result, summary).
EXPERIMENTS: dict[str, Callable] = {
    "fig1": _run_fig1,
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
    "table1": _run_table1,
    "table2": _run_table2,
    "longitudinal": _run_longitudinal,
    "serve": _run_serve,
    "fleet": _run_fleet,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run one of the paper's reproduction harnesses.",
    )
    parser.add_argument(
        "name",
        choices=sorted(EXPERIMENTS),
        nargs="?",
        help="experiment to run",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="bench",
        help="experiment scale (default: bench)",
    )
    parser.add_argument(
        "--device",
        default=None,
        help="device-library target for device-flexible harnesses "
        "(default: each harness's paper device; see --list-devices)",
    )
    parser.add_argument(
        "--list-devices",
        action="store_true",
        help="print every selectable device name and exit",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="print every selectable drift-scenario name and exit",
    )
    parser.add_argument(
        "--runner-mode",
        choices=RUNNER_MODES,
        default=None,
        help="evaluation mode (default: serial, in-process on one warm "
        "engine); 'pool' fans day chunks out over a persistent pool of warm "
        "worker processes",
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="worker-pool width"
    )
    parser.add_argument(
        "--chunk-days",
        type=int,
        default=16,
        help="days per vectorised evaluation chunk (default: 16)",
    )
    parser.add_argument(
        "--records", default=None, help="append per-day run records to this JSONL file"
    )
    parser.add_argument(
        "--cache", default=None, help="persist the evaluation cache to this JSONL file"
    )
    parser.add_argument(
        "--json", dest="json_path", default=None, help="write the summary as JSON here"
    )
    parser.add_argument(
        "--dtype",
        choices=["float64", "float32"],
        default=None,
        help="simulation precision tier: float64 (bit-exact default) or "
        "float32 (fast tier; complex64 fused matrices and walks)",
    )
    parser.add_argument(
        "--fusion-width",
        type=int,
        default=None,
        help="max fused-block width; 3+ folds diagonal/monomial gates "
        "across fast-path boundaries (default: 2)",
    )
    serving = parser.add_argument_group("serving (serve experiment only)")
    serving.add_argument(
        "--requests",
        type=int,
        default=256,
        help="number of load-generator requests (default: 256)",
    )
    serving.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="micro-batch size cap per flush (default: 16)",
    )
    serving.add_argument(
        "--max-latency-ms",
        type=float,
        default=2.0,
        help="max queueing latency before a partial flush (default: 2.0)",
    )
    serving.add_argument(
        "--observe-every",
        type=int,
        default=None,
        help="feed one drift snapshot to the watcher every N requests "
        "(default: spread the online history across the stream)",
    )
    serving.add_argument(
        "--shards",
        type=int,
        default=1,
        help="serve through this many shard worker processes with "
        "consistent-hash routing (default: 1 = single-process service)",
    )
    serving.add_argument(
        "--models",
        type=int,
        default=1,
        help="deploy the trained model under this many endpoint names "
        "(qnn-0..N-1) so load spreads across shards (default: 1)",
    )
    serving.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        help="open-loop Poisson arrival rate in requests/second "
        "(default: submit every request at once as one burst; its latency "
        "percentiles include queueing behind the burst)",
    )
    fleet = parser.add_argument_group("fleet (fleet experiment only)")
    fleet.add_argument(
        "--devices",
        default=None,
        help="comma-separated device names for the fleet grid "
        "(default: belem,ring_5; see --list-devices)",
    )
    fleet.add_argument(
        "--scenarios",
        default=None,
        help="comma-separated drift-scenario names for the fleet grid "
        "(default: seasonal,jump; see --list-scenarios)",
    )
    fleet.add_argument(
        "--cell-workers",
        type=int,
        default=None,
        help="concurrent (device x scenario) cells (default: min(4, cells))",
    )
    fleet.add_argument(
        "--store",
        default=None,
        help="durable SQLite run store; every completed cell commits here, "
        "making the run resumable after a crash",
    )
    fleet.add_argument(
        "--run-id",
        default=None,
        help="run identity inside the store (default: a deterministic id "
        "derived from the grid/scale/seed configuration)",
    )
    fleet.add_argument(
        "--resume",
        default=None,
        metavar="RUN_ID",
        help="resume a killed run: cells already completed in --store are "
        "loaded back instead of re-executed",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run the selected experiment; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_devices:
        from repro.transpiler import get_device_coupling, list_devices

        for name in list_devices():
            coupling = get_device_coupling(name)
            print(f"{name}: {coupling.num_qubits} qubits, {len(coupling.edges)} couplers")
        return 0
    if args.list_scenarios:
        from repro.calibration.scenarios import get_scenario, list_scenarios

        for name in list_scenarios():
            print(f"{name}: {type(get_scenario(name)).__doc__.splitlines()[0]}")
        return 0
    if args.name is None:
        parser.error(
            "an experiment name is required (or pass --list-devices / --list-scenarios)"
        )
    # Mirror the _reject_device convention: an inapplicable knob is an
    # error, never a silent no-op.  The serving flags only drive `serve`;
    # the fleet flags only drive `fleet`; the runner flags drive every
    # evaluation harness — except `serve` (the service owns its own
    # dispatch thread and caches) and `fleet` (cells build private
    # runners; only --runner-mode and the shared --records attribution
    # log reach them).
    serving_options = (
        "requests",
        "max_batch",
        "max_latency_ms",
        "observe_every",
        "shards",
        "models",
        "arrival_rate",
    )
    fleet_options = ("devices", "scenarios", "cell_workers", "store", "run_id", "resume")
    runner_options = ("runner_mode", "workers", "chunk_days", "records", "cache")
    if args.name == "serve":
        inapplicable = runner_options + fleet_options
    elif args.name == "fleet":
        inapplicable = serving_options + ("workers", "chunk_days", "cache")
    else:
        inapplicable = serving_options + fleet_options
    for option in inapplicable:
        if getattr(args, option) != parser.get_default(option):
            parser.error(
                f"--{option.replace('_', '-')} does not apply to "
                f"experiment {args.name!r}"
            )
    if args.dtype is not None or args.fusion_width is not None:
        # Publish the fast-tier knobs through the environment *and* rebuild
        # the default engine: the env vars make spawned pool workers and
        # shard children inherit the same tier, while the rebuilt default
        # engine serves every in-process simulation.
        from repro.simulator import SimulationEngine, set_default_engine
        from repro.simulator.engine import DTYPE_ENV_VAR, FUSION_WIDTH_ENV_VAR

        if args.dtype is not None:
            os.environ[DTYPE_ENV_VAR] = args.dtype
        if args.fusion_width is not None:
            os.environ[FUSION_WIDTH_ENV_VAR] = str(args.fusion_width)
        set_default_engine(SimulationEngine())
    scale = SCALES[args.scale]
    runner = ExperimentRunner(
        mode=args.runner_mode or "serial",
        max_workers=args.workers,
        chunk_days=args.chunk_days,
        cache=args.cache,
        record_log=args.records,
    )
    from repro.transpiler import default_pass_manager

    started = time.perf_counter()
    try:
        _, summary = EXPERIMENTS[args.name](scale, runner, args.device, options=args)
    finally:
        runner.close()
    elapsed = time.perf_counter() - started
    payload = {
        "experiment": args.name,
        "scale": args.scale,
        "device": args.device,
        "elapsed_seconds": elapsed,
        "runner": {
            "mode": runner.mode,
            "days_evaluated": runner.stats.days_evaluated,
            "cache_hits": runner.stats.cache_hits,
            "chunks": runner.stats.chunks,
            "cache": None if runner.cache is None else runner.cache.stats(),
        },
        "compiler": default_pass_manager().stats.as_dict(),
        "summary": _jsonable(summary),
    }
    formatted = payload["summary"].pop("formatted", None) if isinstance(payload["summary"], dict) else None
    print(json.dumps(payload, indent=2))
    if formatted:
        print(formatted)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
