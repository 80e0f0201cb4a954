"""Benchmark of the QuCAD lifecycle and its serving path.

Run one workload per invocation, from the repository root::

    python3 perfbench/run.py --workload lifecycle-belem --seed 1 --seconds 45 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, taken from spans recorded around the program's public
calls.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os
import time

_PERF_AT_IMPORT = time.perf_counter()

# BLAS/OpenMP pools are pinned before NumPy loads: the serving path already
# keeps two threads busy (dispatch + generator) on a two-core host.
THREAD_PINNING = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_PINNING)
# The program reads tuning knobs (precision, kernels, runner mode) from
# REPRO_* variables; the benchmark measures its defaults.
CLEARED_SETTINGS = sorted(name for name in os.environ if name.startswith("REPRO_"))
for _name in CLEARED_SETTINGS:
    del os.environ[_name]

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _startup_seconds() -> float:
    """Interpreter start-up before this module ran, from /proc (10 ms ticks)."""
    try:
        stat = Path("/proc/self/stat").read_text()
        started_ticks = int(stat.rsplit(")", 1)[1].split()[19])
        uptime = float(Path("/proc/uptime").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - started_ticks / os.sysconf("SC_CLK_TCK") - (time.perf_counter() - _PERF_AT_IMPORT))


_STARTUP_S = _startup_seconds()


def process_age() -> float:
    """Seconds since this process started."""
    return _STARTUP_S + time.perf_counter() - _PERF_AT_IMPORT


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def live_children() -> list[int]:
    """Child process ids of every thread of this process."""
    children = [child.pid for child in multiprocessing.active_children()]
    tasks = Path("/proc/self/task")
    if tasks.is_dir():
        for task in tasks.iterdir():
            try:
                children.extend(int(pid) for pid in (task / "children").read_text().split())
            except OSError:
                continue
    return sorted(set(children))


def assert_clean() -> None:
    """No child process and no thread but the main one may outlive the run."""
    threads = [
        thread.name
        for thread in threading.enumerate()
        if thread is not threading.main_thread() and (not thread.daemon or thread.name == "serving-dispatch")
    ]
    children = live_children()
    if threads or children:
        raise SystemExit(f"perfbench: run left threads {threads} and child processes {children} behind")


def quantile(values, q: float) -> float:
    import numpy as np

    return float(np.quantile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return quantile(values, 0.5)


def tail_quantile(samples: int) -> float:
    """The highest quantile with ten samples beyond it."""
    return 1.0 - 10.0 / samples


def end_to_end(setup_s: float, wall_s: float, peak_rss_mb: float, rounds: list) -> dict:
    """The end-to-end metrics of an untraced run.

    The host switches between a fast state and one up to 1.6x slower, for
    seconds to minutes at a time; slowdowns only add time.  A repeated unit
    therefore reports its fastest repeat — the cost of the work itself —
    and the median over runs does the rest.  The latency median pools every
    open-loop request; the tail is reported by the traced run
    (``serving.open_tail_ms``), since no bound holds it on a shared host.
    """
    latencies = [latency for outcome in rounds for latency in outcome.serve_open.latencies]
    return {
        "setup_s": (setup_s, "s"),
        "offline_s": (min(t for r in rounds for t in r.offline_times), "s"),
        "online_s": (min(t for r in rounds for t in r.online_times), "s"),
        "eval_rate": (max(r.sample_days / t for r in rounds for t in r.eval_times), "sample-days/s"),
        "serve_p50_ms": (median(latencies) * 1e3, "ms"),
        "serve_peak_rps": (max(rate for r in rounds for rate in r.burst_rates), "requests/s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def serving_metrics(rounds: list, round_spans: list) -> dict:
    """Per-layer serving metrics of the traced rounds."""
    import bench_trace

    queue, lags, actions, latencies = [], [], [], []
    flushes = submitted = deadline_flushes = 0
    for outcome, spans in zip(rounds, round_spans):
        durations = bench_trace.dispatch_flush_durations(spans)
        queue.extend(
            latency - durations[result.batch_id]
            for latency, result in zip(outcome.serve_open.latencies, outcome.serve_open.results)
            if result is not None and result.batch_id < len(durations)
        )
        lags.extend(outcome.serve_open.lags)
        latencies.extend(outcome.serve_open.latencies)
        actions.extend(swap.action for swap in outcome.swaps)
        flushes += outcome.scheduler_stats.flushes
        submitted += outcome.scheduler_stats.submitted
        deadline_flushes += outcome.scheduler_stats.deadline_flushes
    return {
        "serving.flushes": flushes,
        "serving.mean_batch": submitted / flushes if flushes else 0.0,
        "serving.deadline_flushes": deadline_flushes,
        "serving.queue_ms_p50": median(queue) * 1e3 if queue else 0.0,
        "serving.open_tail_ms": quantile(latencies, tail_quantile(len(latencies))) * 1e3,
        "serving.swaps_readapt": actions.count("readapt"),
        "serving.swaps_recompile": actions.count("recompile"),
        "serving.swaps_refresh": actions.count("refresh"),
        "serving.submit_lag_ms": sum(lags) / len(lags) * 1e3,
    }


PER_LAYER_UNITS = {
    "count": (
        "transpiler.compile_calls", "qnn.train_calls", "qnn.grad_batches", "core.compress_calls",
        "core.adapt_steps", "core.reuses", "core.repository_size", "simulator.density_calls",
        "simulator.density_rows", "simulator.density_dim", "simulator.physical_gates",
        "simulator.statevector_calls", "runtime.evaluate_calls", "runtime.days_evaluated",
        "runtime.chunks", "serving.flushes", "serving.deadline_flushes", "serving.swaps_readapt",
        "serving.swaps_recompile", "serving.swaps_refresh",
    ),
    "ratio": (
        "transpiler.pass_hit_rate", "core.reuse_ratio", "simulator.program_hit_rate",
    ),
    "rows/s": ("simulator.density_rows_per_s",),
    "MiB": ("simulator.walk_mb_computed",),
    "rows": ("serving.mean_batch",),
    "ms": (
        "serving.queue_ms_p50", "serving.open_tail_ms", "serving.flush_ms_p50", "serving.observe_ms_p50",
        "serving.submit_lag_ms",
    ),
    "%": ("trace.overhead_pct",),
}


def unit_of(name: str) -> str:
    for unit, names in PER_LAYER_UNITS.items():
        if name in names:
            return unit
    return "s"


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np  # noqa: F401

        import repro  # noqa: F401
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 1

    import bench_trace
    import bench_workloads

    workload = bench_workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(bench_workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = bench_trace.Tracer()
    uninstall = bench_trace.install(tracer) if args.trace else None
    tracer.enabled = bool(args.trace)

    setup = bench_workloads.set_up(workload)
    inputs = bench_workloads.draw_inputs(workload, setup, args.seed)
    setup_s = process_age()

    rounds, marks = [], []
    for _ in range(max(1, round(args.seconds / workload.round_seconds))):
        marks.append(len(tracer.spans))
        rounds.append(bench_workloads.run_round(workload, setup, inputs, tracer))
    marks.append(len(tracer.spans))
    tracer.enabled = False
    wall_s = process_age()
    cpu_s = time.process_time()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        uninstall()

    failures = bench_workloads.run_checks(workload, setup, inputs, rounds)
    assert_clean()

    attempted = sum(outcome.attempted for outcome in rounds)
    failed = sum(outcome.failed for outcome in rounds)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "thread_pinning": THREAD_PINNING,
        "cleared_settings": CLEARED_SETTINGS,
        "round_s": [outcome.round_s for outcome in rounds],
        "offline_times": [outcome.offline_times for outcome in rounds],
        "online_times": [outcome.online_times for outcome in rounds],
        "eval_times": [outcome.eval_times for outcome in rounds],
        "burst_rates": [outcome.burst_rates for outcome in rounds],
        "observe_s": [outcome.observe_s for outcome in rounds],
        "host_speed": [outcome.host_speed for outcome in rounds],
        "open_latency_ms": [[round(latency * 1e3, 2) for latency in outcome.serve_open.latencies] for outcome in rounds],
        "open_loop_samples": sum(len(outcome.serve_open.latencies) for outcome in rounds),
        "tail_quantile": tail_quantile(sum(len(outcome.serve_open.latencies) for outcome in rounds)),
        "decisions": [d.action for d in rounds[0].decisions],
        "check_failures": failures,
    }
    if args.trace:
        metrics = bench_trace.layer_metrics(tracer.spans, tracer.counters)
        metrics.update(serving_metrics(rounds, [tracer.spans[a:b] for a, b in zip(marks, marks[1:])]))
        metrics["core.repository_size"] = len(rounds[-1].qucad.repository)
        metrics["process.cpu_s"] = cpu_s
        metrics["trace.wall_s"] = wall_s
        # Host drift between runs (±15%) swamps a direct traced/untraced
        # comparison of a sub-1% cost, so the overhead is computed from the
        # calls recorded and the measured cost of one wrapped call.
        calls = len(tracer.spans) + sum(tracer.counters.values())
        metrics["trace.overhead_pct"] = calls * bench_trace.wrapper_seconds() / wall_s * 100.0
        reported = {name: (value, unit_of(name)) for name, value in metrics.items()}
        record["self_s"] = {layer: metrics[f"{layer}.self_s"] for layer in bench_trace.LAYERS}
        record["spans"] = len(tracer.spans)
    else:
        reported = end_to_end(setup_s, wall_s, peak_rss_mb, rounds)

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.dump(OUT / f"{stem}.spans.jsonl")
    record["metrics"] = {name: value for name, (value, _) in reported.items()}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2))

    for message in failures:
        print(f"CHECK FAILED {message}")
    if args.trace:
        print("self time by layer (s): " + ", ".join(f"{k}={v:.3f}" for k, v in record["self_s"].items()))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in reported.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
