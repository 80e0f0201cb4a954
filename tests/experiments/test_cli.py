"""The ``python -m repro.experiments`` command-line entry point."""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import EXPERIMENTS, SCALES, build_parser, main


def test_registry_covers_every_harness():
    assert set(EXPERIMENTS) == {
        "fig1", "fig2", "fig3", "fig4", "fig7", "fig8", "fig9",
        "table1", "table2", "longitudinal", "serve", "fleet",
    }
    assert set(SCALES) == {"paper", "bench", "test"}


def test_parser_defaults():
    args = build_parser().parse_args(["fig1"])
    assert args.scale == "bench"
    # Unset on the parser so main() can tell an explicit flag from the
    # default (serial) when rejecting inapplicable options.
    assert args.runner_mode is None
    assert args.chunk_days == 16


def test_parser_accepts_pool_runner_mode():
    args = build_parser().parse_args(["fig2", "--runner-mode", "pool"])
    assert args.runner_mode == "pool"


def test_parser_serving_options():
    args = build_parser().parse_args(
        ["serve", "--requests", "64", "--max-batch", "8", "--max-latency-ms", "1.5"]
    )
    assert args.requests == 64
    assert args.max_batch == 8
    assert args.max_latency_ms == 1.5
    assert args.observe_every is None
    assert args.shards == 1
    assert args.models == 1
    assert args.arrival_rate is None
    sharded = build_parser().parse_args(
        ["serve", "--shards", "4", "--models", "4", "--arrival-rate", "200"]
    )
    assert sharded.shards == 4
    assert sharded.models == 4
    assert sharded.arrival_rate == 200.0


def test_parser_fleet_options():
    args = build_parser().parse_args(
        ["fleet", "--devices", "ring_5,line_5", "--scenarios", "calm,storm"]
    )
    assert args.devices == "ring_5,line_5"
    assert args.scenarios == "calm,storm"
    assert args.cell_workers is None


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig5"])


def test_main_runs_fig1_and_writes_json(tmp_path, capsys):
    out = tmp_path / "fig1.json"
    code = main(["fig1", "--scale", "test", "--json", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["experiment"] == "fig1"
    assert payload["scale"] == "test"
    assert "fluctuation_summary" in payload["summary"]
    printed = capsys.readouterr().out
    assert '"experiment": "fig1"' in printed


def test_main_runs_fig3_with_records(tmp_path):
    out = tmp_path / "fig3.json"
    code = main(["fig3", "--scale", "test", "--runner-mode", "serial", "--json", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["breakpoint_gain"] > 0


def test_list_devices_prints_library(capsys):
    assert main(["--list-devices"]) == 0
    printed = capsys.readouterr().out
    for expected in ("belem", "jakarta", "ring_5", "grid_3x3", "heavy_hex_27"):
        assert expected in printed


def test_missing_experiment_name_errors():
    with pytest.raises(SystemExit):
        main([])


def test_fixed_device_experiments_reject_device_flag():
    with pytest.raises(SystemExit):
        main(["fig1", "--scale", "test", "--device", "ring_5"])


def test_non_serve_experiments_reject_serving_flags():
    for flag in (
        ["--requests", "64"],
        ["--max-batch", "4"],
        ["--max-latency-ms", "1.0"],
        ["--observe-every", "8"],
        ["--shards", "2"],
        ["--models", "2"],
        ["--arrival-rate", "100"],
    ):
        with pytest.raises(SystemExit):
            main(["fig1", "--scale", "test", *flag])


def test_serve_rejects_runner_flags():
    for flag in (
        ["--runner-mode", "pool"],
        ["--workers", "4"],
        ["--chunk-days", "2"],
        ["--records", "r.jsonl"],
        ["--cache", "c.jsonl"],
    ):
        with pytest.raises(SystemExit):
            main(["serve", "--scale", "test", *flag])


def test_non_fleet_experiments_reject_fleet_flags():
    for flag in (
        ["--devices", "ring_5"],
        ["--scenarios", "calm"],
        ["--cell-workers", "2"],
    ):
        with pytest.raises(SystemExit):
            main(["fig1", "--scale", "test", *flag])


def test_fleet_rejects_inapplicable_flags():
    # --runner-mode is NOT in this list: fleet cells honour it (the CI
    # smoke run drives the persistent pool through `fleet --runner-mode
    # pool`); the remaining runner knobs still only shape the idle
    # top-level runner and are rejected.
    for flag in (
        ["--device", "ring_5"],  # the grid flag is --devices
        ["--requests", "8"],
        ["--workers", "2"],
        ["--chunk-days", "2"],
        ["--cache", "c.jsonl"],
    ):
        with pytest.raises(SystemExit):
            main(["fleet", "--scale", "test", *flag])


def test_list_scenarios_prints_library(capsys):
    assert main(["--list-scenarios"]) == 0
    printed = capsys.readouterr().out
    for expected in ("calm", "seasonal", "jump", "storm", "recovery"):
        assert expected in printed


@pytest.mark.parametrize("device", ["ring_5", "grid_2x3", "line_7"])
def test_longitudinal_runs_on_device_library_topologies(tmp_path, device):
    """The longitudinal harness must run end-to-end on library devices."""
    out = tmp_path / f"longitudinal_{device}.json"
    code = main(
        [
            "longitudinal",
            "--scale",
            "test",
            "--device",
            device,
            "--runner-mode",
            "serial",
            "--json",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["device"] == device
    rows = payload["summary"]["rows"]
    assert {row["method"] for row in rows} == {"baseline", "qucad"}
    for row in rows:
        assert 0.0 <= row["mean_accuracy"] <= 1.0
    compiler = payload["compiler"]
    assert compiler["compile_calls"] >= 1
    assert 0.0 <= compiler["pass_cache_hit_rate"] <= 1.0


def test_serve_runs_end_to_end_on_a_library_device(tmp_path):
    """The serving harness: load generation + drift-driven hot-swaps."""
    out = tmp_path / "serve.json"
    code = main(
        [
            "serve",
            "--scale",
            "test",
            "--device",
            "ring_5",
            "--requests",
            "24",
            "--max-batch",
            "6",
            "--observe-every",
            "8",
            "--json",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    summary = payload["summary"]
    assert summary["device"] == "ring_5"
    load = summary["load"]
    assert load["requests"] == load["completed"] == 24
    assert load["throughput_rps"] > 0
    assert load["swaps"], "drift snapshots must reach the watcher"
    serving = summary["serving"]
    assert serving["telemetry"]["models"]["qnn"]["completed"] == 24
    assert serving["scheduler"]["flushes"] >= 4
    assert serving["deployments"]["qnn"]["versions_published"] >= 2


def test_sharded_serve_runs_end_to_end(tmp_path):
    """The sharded tier through the CLI: open-loop load over 2 shards."""
    out = tmp_path / "sharded.json"
    code = main(
        [
            "serve",
            "--scale",
            "test",
            "--device",
            "ring_5",
            "--requests",
            "24",
            "--max-batch",
            "6",
            "--shards",
            "2",
            "--models",
            "2",
            "--arrival-rate",
            "400",
            "--json",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    summary = payload["summary"]
    assert summary["shards"] == 2
    assert summary["models"] == ["qnn-0", "qnn-1"]
    load = summary["load"]
    assert load["mode"] == "open"
    assert load["requests"] == load["completed"] == 24, "zero lost requests"
    assert load["offered_rps"] > 0
    serving = summary["serving"]
    assert set(serving["telemetry"]["shards"]) == {"0", "1"}
    total = sum(
        stats["completed"] for stats in serving["telemetry"]["models"].values()
    )
    assert total == 24
    assert serving["supervisor"]["actors_spawned"] >= 2


def test_fleet_runs_a_grid_end_to_end(tmp_path):
    """The fleet harness: ≥4 (device × scenario) cells with full reports."""
    out = tmp_path / "fleet.json"
    records = tmp_path / "fleet_runs.jsonl"
    code = main(
        [
            "fleet",
            "--scale",
            "test",
            "--devices",
            "ring_5,line_5",
            "--scenarios",
            "calm,jump",
            "--records",
            str(records),
            "--json",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    report = payload["summary"]
    assert report["summary"]["cells"] == 4
    assert report["summary"]["devices"] == ["line_5", "ring_5"]
    assert report["summary"]["scenarios"] == ["calm", "jump"]
    for cell in report["cells"]:
        assert 0.0 <= cell["mean_accuracy"] <= 1.0
        assert sum(cell["actions"].values()) == cell["days"]
        assert cell["runner"]["cache"]["entries"] >= 1
        assert "pass_cache_hit_rate" in cell["compiler"]
    from repro.runtime import load_run_records

    rows = load_run_records(records)
    assert {row.scenario for row in rows} == {"calm", "jump"}


def test_cache_stats_appear_in_runner_block(tmp_path):
    """--cache surfaces hit/miss/eviction counters in the stats block."""
    cache_path = tmp_path / "cache.jsonl"
    out = tmp_path / "fig2.json"
    code = main(
        [
            "fig2",
            "--scale",
            "test",
            "--runner-mode",
            "serial",
            "--cache",
            str(cache_path),
            "--json",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    cache_stats = payload["runner"]["cache"]
    assert cache_stats is not None
    assert {"entries", "capacity", "hits", "misses", "evictions", "hit_rate"} <= set(
        cache_stats
    )
    assert cache_stats["entries"] >= 1
