"""Self-test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.  It
checks that every metric ``BENCHMARK.json`` names is emitted with its
unit, that traced units give the same outcomes as untraced ones, that a
changed exact-repeat count is flagged, and that the benchmark fails
without printing a result when the program's sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Sizes  # noqa: E402

TINY = Sizes(min_steps=1, campaign_unit=32, campaign_check=16,
             scenario_counts=(0, 8192), scenario_evaluations=16,
             scenario_check_evaluations=8, fig3_models=2, fig3_pairs=2,
             probe_groups=1)


@pytest.fixture(autouse=True)
def _scratch_cwd(tmp_path, monkeypatch):
    # Outputs land under ``.bench_build/`` of the working directory.
    monkeypatch.chdir(tmp_path)


def _declared(kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def test_declared_workloads_are_the_ones_run():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(workload, trace, kind):
    result, _ = bench.run(workload, seed=0, seconds=0, trace=trace, sizes=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared(kind)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    json.dumps(result)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_outcomes_equal_untraced(workload):
    runner = WORKLOADS[workload](TINY)
    _, want, _ = runner.unit(runner.setup(3))
    with Tracer() as tracer:
        _, got, _ = runner.unit(runner.setup(3))
    assert got == want
    assert any(name == "nn.conv2d" for name, *_ in tracer.spans)


def test_changed_exact_repeat_count_is_flagged():
    counts = {name: 1 for name in bench.EXACT_REPEAT}
    assert bench.count_mismatches(counts, dict(counts)) == 0
    assert bench.count_mismatches(counts, {**counts, "campaign.chunks": 2}) == 1


def test_host_speed_child_answers_and_stops():
    with bench.HostSpeed() as host:
        slowdowns = [host.slowdown() for _ in range(3)]
    assert all(s > 0 for s in slowdowns)
    assert host._proc.returncode == 0


def test_self_times_subtract_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    table = tracer.self_times()
    outer_calls, outer_total, outer_self = table["outer"]
    _, inner_total, inner_self = table["inner"]
    assert outer_calls == 1 and inner_self == inner_total
    assert outer_self == pytest.approx(outer_total - inner_total)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig3-overhead",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
