"""CLI tests (``python -m repro ...``)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.profile import SUMMARY_SCHEMA_VERSION


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig3"])
        assert args.experiment == "fig3"
        assert args.scale == "small"
        assert args.seed == 0

    def test_profile_args(self):
        args = build_parser().parse_args(
            ["profile", "alexnet", "--dataset", "imagenet", "--scale", "smoke"])
        assert args.model == "alexnet"
        assert args.dataset == "imagenet"


class TestCommands:
    def test_list_models(self, capsys):
        assert main(["list-models"]) == 0
        out = capsys.readouterr().out
        assert "alexnet" in out and "tiny_yolov3" in out

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3", "fig4", "fig5", "fig6", "fig7", "table1",
                     "ablation_granularity"):
            assert name in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_profile_model(self, capsys):
        assert main(["profile", "alexnet", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Conv2d" in out and "total neurons" in out

    def test_inject_model(self, capsys):
        assert main(["inject", "alexnet", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "bit flip" in out and "Top-1" in out

    def test_run_fig3_smoke(self, capsys):
        assert main(["run", "fig3", "--scale", "smoke"]) == 0
        assert "Fig. 3" in capsys.readouterr().out


class TestInjectJson:
    def test_json_payload_on_stdout(self, capsys):
        assert main(["inject", "alexnet", "--scale", "smoke", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["model"] == "alexnet"
        assert payload["error_model"] == "single_bit_flip"
        assert isinstance(payload["layer"], int)
        assert isinstance(payload["coords"], list)
        assert isinstance(payload["corrupted"], bool)

    def test_layer_restriction_respected(self, capsys):
        assert main(["inject", "alexnet", "--scale", "smoke",
                     "--layer", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["layer"] == 1

    def test_unknown_model_fails_with_json_error(self, capsys):
        assert main(["inject", "no_such_net", "--scale", "smoke", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert "no_such_net" in payload["error"]

    def test_unknown_model_fails_on_stderr_without_json(self, capsys):
        assert main(["inject", "no_such_net", "--scale", "smoke"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no_such_net" in captured.err

    def test_layer_out_of_range_fails(self, capsys):
        assert main(["inject", "alexnet", "--scale", "smoke",
                     "--layer", "99", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert "out of range" in payload["error"]


class TestReportCommand:
    @pytest.fixture
    def event_log(self, tmp_path, trained_tiny_model):
        from repro.campaign import InjectionCampaign
        from repro.core import SingleBitFlip

        model, dataset, _ = trained_tiny_model
        log = tmp_path / "campaign.jsonl"
        campaign = InjectionCampaign(
            model, dataset, error_model=SingleBitFlip(), criterion="top1",
            batch_size=8, pool_size=16, rng=11, resume=True)
        campaign.run(16, observe=log)
        campaign.observer.close()
        return log

    def test_markdown_report(self, event_log, capsys):
        assert main(["report", str(event_log)]) == 0
        out = capsys.readouterr().out
        assert "# Campaign telemetry report" in out
        assert "Per-layer vulnerability" in out

    def test_json_report(self, event_log, capsys):
        assert main(["report", str(event_log), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["injections"] == 16

    def test_out_file(self, event_log, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", str(event_log), "--out", str(target)]) == 0
        assert "# Campaign telemetry report" in target.read_text()

    def test_missing_log_fails(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such event log" in capsys.readouterr().err

    def test_empty_log_fails(self, tmp_path, capsys):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        assert main(["report", str(log)]) == 2
        assert "no decodable events" in capsys.readouterr().err

    def test_missing_profile_summary_fails(self, event_log, tmp_path, capsys):
        assert main(["report", str(event_log),
                     "--profile", str(tmp_path / "nope.json")]) == 2
        assert "no such profile summary" in capsys.readouterr().err

    def test_profile_summary_merges_into_markdown(self, event_log, tmp_path, capsys):
        summary = tmp_path / "prof_summary.json"
        summary.write_text(json.dumps({
            "total_s": 0.5, "overhead_s": 0.001, "num_spans": 2,
            "spans": [{"path": "campaign.chunk", "count": 2, "total_s": 0.4,
                       "self_s": 0.4, "alloc_bytes": 128}],
        }))
        assert main(["report", str(event_log), "--profile", str(summary)]) == 0
        out = capsys.readouterr().out
        assert "## Profile" in out
        assert "campaign.chunk" in out

    def test_profile_summary_merges_into_json(self, event_log, tmp_path, capsys):
        summary = tmp_path / "prof_summary.json"
        summary.write_text(json.dumps({"total_s": 0.5, "spans": []}))
        assert main(["report", str(event_log), "--format", "json",
                     "--profile", str(summary)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"]["total_s"] == 0.5


class TestProfileRuntimeCommand:
    def test_profile_needs_a_model(self, capsys):
        assert main(["profile"]) == 2
        assert "needs a model" in capsys.readouterr().err

    def test_unknown_model_fails(self, tmp_path, capsys):
        assert main(["profile", "--model", "no_such_net", "--scale", "smoke",
                     "--out-dir", str(tmp_path)]) == 2
        assert "no_such_net" in capsys.readouterr().err

    def test_forward_profile_writes_artifacts(self, tmp_path, capsys):
        assert main(["profile", "--model", "resnet18", "--scale", "smoke",
                     "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "recorded wall clock" in out
        trace = json.loads((tmp_path / "resnet18_trace.json").read_text())
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert events and all("ts" in e and "dur" in e and "name" in e
                              for e in events)
        assert any(e.get("cat") == "layer" for e in events)
        summary = json.loads((tmp_path / "resnet18_summary.json").read_text())
        assert summary["meta"]["mode"] == "forward"
        # Per-layer self-times never exceed the recorded wall clock.
        assert sum(r["self_s"] for r in summary["spans"]) <= summary["total_s"] + 1e-9

    def test_campaign_profile_writes_artifacts(self, tmp_path, capsys):
        assert main(["profile", "--model", "alexnet", "--scale", "smoke",
                     "--campaign", "4", "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "alexnet_summary.json").read_text())
        assert summary["meta"]["mode"] == "campaign"
        paths = {r["path"] for r in summary["spans"]}
        assert any("campaign.chunk" in p for p in paths)
        assert summary["schema"] == SUMMARY_SCHEMA_VERSION == 2
        assert "metrics" not in summary
        assert summary["meta"]["perf"]["injections"] == 4

    def test_two_worker_campaign_profile_has_three_pid_lanes(self, tmp_path, capsys):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        assert main(["profile", "--model", "alexnet", "--scale", "smoke",
                     "--campaign", "8", "--batch-size", "4", "--workers", "2",
                     "--out-dir", str(tmp_path)]) == 0
        trace = json.loads((tmp_path / "alexnet_trace.json").read_text())
        events = trace["traceEvents"]
        lanes = {e["pid"]: e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert sorted(lanes.values()) == [
            "repro.profile", "repro.worker[0]", "repro.worker[1]"]
        assert {e["pid"] for e in events if e["ph"] == "X"} == set(lanes)
        chunks = {e["pid"] for e in events
                  if e["ph"] == "X" and e["name"] == "campaign.chunk"}
        assert len(chunks) == 2  # both workers ran chunks, the parent none

    def test_campaign_profile_defaults_to_the_inject_batch(self, tmp_path, capsys):
        """Without --batch-size a campaign profile packs lanes like inject."""
        metrics = tmp_path / "m.prom"
        assert main(["profile", "--model", "alexnet", "--scale", "smoke",
                     "--campaign", "32", "--out-dir", str(tmp_path),
                     "--metrics-out", str(metrics)]) == 0
        forwards, = [int(line.split()[1]) for line in metrics.read_text().splitlines()
                     if line.startswith("campaign_forwards ")]
        assert forwards < 32


class TestInjectCampaignJson:
    def test_campaign_payload_fields(self, capsys):
        assert main(["inject", "alexnet", "--scale", "smoke", "--campaign", "8",
                     "--batch-size", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["mode"] == "campaign"
        assert payload["injections"] == 8
        assert payload["workers"] == 1
        assert payload["per_worker_injections"] == [8]
        assert payload["wall_time_s"] > 0
        assert payload["corruptions"] + 0 >= 0
        assert payload["perf"]["injections"] == 8

    def test_campaign_workers_shard_the_run(self, capsys):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        assert main(["inject", "alexnet", "--scale", "smoke", "--campaign", "8",
                     "--batch-size", "4", "--workers", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workers"] == 2
        assert sum(payload["per_worker_injections"]) == 8
        assert len(payload["per_worker_injections"]) == 2

    def test_workers_equal_serial_outcomes(self, capsys):
        """The CLI surface honours the bitwise workers==serial guarantee."""
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        outcomes = {}
        for workers in ("1", "2"):
            assert main(["inject", "alexnet", "--scale", "smoke",
                         "--campaign", "8", "--batch-size", "4",
                         "--workers", workers, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            outcomes[workers] = (payload["corruptions"],
                                 payload["perf"]["cache_hits"],
                                 payload["perf"]["forwards"])
        assert outcomes["1"] == outcomes["2"]

    def test_workers_without_campaign_fails(self, capsys):
        assert main(["inject", "alexnet", "--scale", "smoke",
                     "--workers", "2", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert "--campaign" in payload["error"]

    def test_campaign_layer_out_of_range_fails(self, capsys):
        assert main(["inject", "alexnet", "--scale", "smoke", "--campaign", "4",
                     "--layer", "99", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert "out of range" in payload["error"]


SCENARIO = {
    "name": "cli-scenario",
    "family": "transient",
    "seed": 0,
    "model": {"name": "resnet18", "dataset": "cifar10", "scale": "smoke"},
    "campaign": {"batch_size": 8, "pool_size": 32},
    "transient": {"injections": 8},
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return str(path)


class TestScenarioCommands:
    def test_validate_ok(self, scenario_file, capsys):
        assert main(["scenario", "validate", scenario_file]) == 0
        out = capsys.readouterr().out
        assert "ok: scenario is valid" in out

    def test_validate_json(self, scenario_file, capsys):
        assert main(["scenario", "validate", scenario_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["family"] == "transient"

    def test_validate_bad_config_is_rc2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SCENARIO, "family": "cosmic"}))
        assert main(["scenario", "validate", str(bad)]) == 2
        assert "family" in capsys.readouterr().err

    def test_validate_bad_config_json_is_rc2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SCENARIO, "campaign": {"batch_size": 0}}))
        assert main(["scenario", "validate", str(bad), "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert "campaign.batch_size" in payload["error"]

    def test_missing_file_is_rc2(self, capsys):
        assert main(["scenario", "validate", "/nonexistent/x.yaml"]) == 2
        assert "no such scenario file" in capsys.readouterr().err

    def test_run_json_payload(self, scenario_file, capsys):
        assert main(["scenario", "run", scenario_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["scenario"] == "cli-scenario"
        assert payload["family"] == "transient"
        assert payload["injections"] == 8
        point = payload["points"][0]
        assert {"label", "injections", "corruptions", "sdc_rate",
                "ci_low", "ci_high"} <= set(point)

    def test_run_workers_matches_serial(self, scenario_file, capsys):
        outcomes = {}
        for workers in ("1", "2"):
            assert main(["scenario", "run", scenario_file,
                         "--workers", workers, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            outcomes[workers] = payload["points"]
        assert outcomes["1"] == outcomes["2"]

    def test_run_human_output_has_ci(self, scenario_file, capsys):
        assert main(["scenario", "run", scenario_file]) == 0
        out = capsys.readouterr().out
        assert "cli-scenario" in out
        assert "CI [" in out

    def test_inject_scenario_delegates(self, scenario_file, capsys):
        assert main(["inject", "alexnet", "--scenario", scenario_file,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # --scenario replaces the scenario's model with the CLI positional.
        assert payload["model"] == "alexnet"

    def test_inject_scenario_campaign_exclusive(self, scenario_file, capsys):
        assert main(["inject", "alexnet", "--scenario", scenario_file,
                     "--campaign", "4", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert "exclusive" in payload["error"]

    def test_run_accumulated_writes_artifact(self, tmp_path, capsys):
        """The accumulated sweep end to end through the CLI: validate, run
        it on two workers, and check the SDC-curve artifact's schema."""
        config = {
            "name": "cli-sweep",
            "family": "accumulated",
            "seed": 0,
            "model": {"name": "resnet18", "dataset": "cifar10",
                      "scale": "smoke"},
            "campaign": {"batch_size": 8, "pool_size": 32},
            "fault": {"quantize": True},
            "accumulated": {"counts": [0, 2, 4], "stuck": 1, "evaluations": 8},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        assert main(["scenario", "validate", str(path)]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "results"
        assert main(["scenario", "run", str(path), "--workers", "2",
                     "--out-dir", str(out_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["family"] == "accumulated"
        artifact = json.loads(
            (out_dir / "scenario_cli-sweep.json").read_text())
        assert artifact["schema"] == "repro.scenario.sweep/1"
        assert payload["artifact"].endswith("scenario_cli-sweep.json")
        assert [row["k"] for row in artifact["points"]] == [0, 2, 4]
        for row in artifact["points"]:
            assert {"k", "injections", "corruptions", "sdc_rate", "ci_low",
                    "ci_high", "resident_faults",
                    "resident_fingerprint"} <= set(row)
            assert row["resident_faults"] == row["k"]
