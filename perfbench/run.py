"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload campaign-neuron --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs a fixed amount of the workload from one seed, once
untraced and twice traced, checks that all three give the same outcomes
and that both traced passes give the same exact-repeat counts, and
reports per-layer metrics from the first traced pass (spans are written
to ``.bench_build/perfbench/``).  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every workload reports every end-to-end metric:

* ``setup_s``: campaign construction, scenario compile, or building the
  Fig. 3 models with their injector profiles; median of warm set-ups.
* ``inj_per_s``: injections (scenario: evaluations; Fig. 3: injected
  forwards with their paired clean forwards) per second of a unit.
* ``peak_rss_mb``: peak resident memory of the process during a
  measuring step, median over the steps.  A median, not the run's
  maximum: the maximum moved by several MB between runs of one seed with
  how the allocator's arenas happened to fill.
* ``fwd_ms_clean`` / ``fwd_ms_fi``: sum over models of the median batch-1
  forward time, clean and with one random neuron injected.
* ``fi_overhead_ratio``: median of the paired FI/clean time ratios.

Every time (``setup_s`` too, whose unit the output contract fixes as
``s``) is scaled to a reference host speed measured in a separate
process (see ``hostspeed.py``); the units of the other timed metrics say
``-scaled``.  The unscaled medians are printed in the ``notes`` line.
Outcome checks count into ``attempted``/``failed``; ``fail_frac`` is
printed, not a metric.

The program is imported from ``src/`` next to this directory.  BLAS and
OpenMP thread settings are left as the environment gives them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import threading
from pathlib import Path

# Imported before the program, so the calibration child started from it
# gets the environment the benchmark was started with.
from hostspeed import HostSpeed, openblas_function

ROOT = Path(__file__).resolve().parent.parent

END_TO_END_UNITS = {
    "setup_s": "s",
    "inj_per_s": "1/s-scaled",
    "peak_rss_mb": "MB",
    "fwd_ms_clean": "ms-scaled",
    "fwd_ms_fi": "ms-scaled",
    "fi_overhead_ratio": "ratio",
}

# Per-layer metrics and their units.  ``*.ms`` is a span's self time,
# ``*_ms`` an inclusive time; ``-computed`` units come from tensor shapes.
PER_LAYER_UNITS = {
    "nn.conv2d.calls": "count",
    "nn.conv2d.ms": "ms",
    "nn.conv2d.gflop": "GFLOP-computed",
    "nn.conv2d.im2col_mb": "MB-computed",
    "nn.conv2d_lanes.ms": "ms",
    "nn.linear.ms": "ms",
    "nn.linear_lanes.ms": "ms",
    "nn.batch_norm.ms": "ms",
    "models.build.ms": "ms",
    "core.profile.ms": "ms",
    "core.segment_trace.ms": "ms",
    "core.instrument.calls": "count",
    "core.instrument.ms": "ms",
    "core.reset.ms": "ms",
    "core.hook_ms_per_fwd": "ms",
    "campaign.chunks": "count",
    "campaign.lanes_per_forward": "lanes",
    "campaign.chunk_ms_p50": "ms",
    "campaign.chunk_ms_p90": "ms",
    "campaign.pool_ms": "ms",
    "campaign.plan.ms": "ms",
    "campaign.run.ms": "ms",
    "resume.capture.calls": "count",
    "resume.capture.ms": "ms",
    "resume.store_rows.ms": "ms",
    "resume.plan_chunk.ms": "ms",
    "resume.run_from.ms": "ms",
    "resume.cache_hits": "count",
    "resume.cache_misses": "count",
    "resume.cache_evictions": "count",
    "resume.cache_mb": "MB",
    "resume.layer_skip_frac": "fraction",
    "scenario.compile_ms": "ms",
    "scenario.run.ms": "ms",
    "scenario.resident_sample_ms": "ms",
    "scenario.resident_apply_ms": "ms",
    "scenario.resident_restore_ms": "ms",
    "telemetry.events_published": "count",
    "telemetry.sampler_events": "count",
    "telemetry.events_dropped": "count",
    "telemetry.publish_ms": "ms",
    "parallel.inj_per_s": "1/s",
    "parallel.child_cpu_s": "s",
    "parallel.cpu_util": "fraction",
    "parallel.worker_imbalance": "ratio",
    "parallel.requeued_chunks": "count",
    "trace.wall_ms": "ms",
    "trace.self_sum_ms": "ms",
    "trace.uncovered_ms": "ms",
    "trace.uncovered_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.count_mismatches": "count",
}

# Counts that must repeat exactly between runs at one seed; the traced
# run makes two passes and flags a difference as a failed check.
EXACT_REPEAT = (
    "nn.conv2d.calls", "nn.conv2d.gflop", "nn.conv2d.im2col_mb",
    "core.instrument.calls", "campaign.chunks", "campaign.lanes_per_forward",
    "resume.capture.calls", "resume.cache_hits", "resume.cache_misses",
    "resume.cache_evictions", "resume.cache_mb", "resume.layer_skip_frac",
    "telemetry.events_published",
)


def host_facts():
    """nproc, numpy and BLAS build, and the BLAS thread count in effect."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    get_threads = openblas_function("scipy_openblas_get_num_threads64_",
                                    "openblas_get_num_threads")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(get_threads()) if get_threads else None,
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


def reset_peak_rss():
    """Start a new peak-memory window: Linux restarts the process's
    resident high-water mark from its current resident size."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError as exc:
        print(f"peak memory window not reset ({exc}); peaks count from "
              "process start", file=sys.stderr)


def peak_rss_mb():
    """Resident high-water mark since the last :func:`reset_peak_rss`."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class Ledger:
    """Attempted operations (injections, pairs, checks) and failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok, count=1):
        self.attempted += count
        self.failed += 0 if ok else count


def measure(workload, seed, seconds, ledger, host):
    """End-to-end metrics with tracing off.

    A discarded warm-up set-up and unit come first: the first of each in a
    process pays for lazy imports and allocator growth.  Each loop step
    then times one unit, one set-up and, on campaign workloads, a few
    groups of Fig. 3 pairs of the workload's model.  ``host`` measures the
    host speed between every two of these parts, and each part's times are
    divided by the mean of the slowdowns measured just before and just
    after it (see :mod:`hostspeed`).  Reported values are medians over the
    scaled samples; the unscaled medians go to the notes.
    """
    import statistics

    from workloads import PairedForwards, clock

    workload.unit(workload.setup(seed))
    gc.collect()
    state = workload.setup(seed)
    pairs = state.get("pairs")
    probe = PairedForwards(workload.probe_roster, seed) if pairs is None else None
    timing = pairs or probe
    samples = {"setup_s": [], "inj_per_s": []}  # (unscaled value, divisor)
    step_peaks_mb = []
    pair_slowdowns = []  # one per pair in timing.samples
    last = host.slowdown()

    def timed(part):
        """Run ``part``; return its result, seconds, and the mean host
        slowdown just before and just after it."""
        nonlocal last
        start = clock()
        result = part()
        elapsed = clock() - start
        after = host.slowdown()
        slowdown = (last + after) / 2
        last = after
        return result, elapsed, slowdown

    def run_pairs(part):
        recorded = len(timing.samples)
        (count, _, failures), elapsed, slowdown = timed(part)
        pair_slowdowns.extend([slowdown] * (len(timing.samples) - recorded))
        ledger.add(True, count - failures)
        ledger.add(False, failures)
        return count, elapsed, slowdown

    deadline = clock() + seconds
    steps = 0
    while not steps or clock() < deadline or steps < workload.sizes.min_steps:
        steps += 1
        reset_peak_rss()
        count, elapsed, slowdown = run_pairs(lambda: workload.unit(state))
        samples["inj_per_s"].append((count / elapsed, 1 / slowdown))
        _, elapsed, slowdown = timed(lambda: workload.setup(seed))
        samples["setup_s"].append((elapsed, slowdown))
        gc.collect()
        for _ in range(workload.sizes.probe_groups if probe else 0):
            run_pairs(lambda: probe.run(workload.sizes.fig3_pairs))
        step_peaks_mb.append(peak_rss_mb())
    metrics = {name: statistics.median(v / s for v, s in values)
               for name, values in samples.items()}
    metrics["peak_rss_mb"] = statistics.median(step_peaks_mb)
    metrics.update(timing.metrics(pair_slowdowns))
    unscaled = {name: statistics.median(v for v, _ in values)
                for name, values in samples.items()}
    unscaled.update(timing.metrics())
    # The checks build their own states; peak memory was read per step
    # before them, so the oracle runs do not set it.
    del state, pairs, probe, timing
    gc.collect()
    for ok in workload.check(seed):
        ledger.add(ok)
    notes = {"steps": steps,
             "host_slowdown_median": statistics.median(pair_slowdowns),
             "unscaled": unscaled, **workload.notes}
    return metrics, notes


def traced(workload, seed, seconds, ledger, stem):
    """Per-layer metrics from a traced pass checked against an untraced one.

    A second traced pass from the same seed repeats the first; every
    exact-repeat count must come out the same in both.
    """
    import statistics

    from tracing import Tracer
    from workloads import clock

    deadline = clock() + seconds
    workload.setup(seed)  # warm-up
    start = clock()
    plain = workload.setup(seed)
    _, want, _ = workload.unit(plain)
    plain_wall = clock() - start
    passes = []
    for _ in range(2):
        tracer = Tracer()
        with tracer, tracer.span("bench.pass"):
            state = workload.setup(seed)
            _, got, _ = workload.unit(state)
        ledger.add(got == want)
        passes.append((tracer, state, layer_metrics(tracer, state)))
    (tracer, traced_state, metrics), (_, _, repeat) = passes
    metrics["trace.count_mismatches"] = count_mismatches(metrics, repeat)
    ledger.add(metrics["trace.count_mismatches"] == 0)
    overheads = [metrics["trace.wall_ms"] / 1e3 / plain_wall - 1.0]
    # Alternate further untraced/traced units on the two states until the
    # run's seconds are up; they stay in lockstep, so each pair does
    # identical work.
    while clock() < deadline:
        start = clock()
        _, want, _ = workload.unit(plain)
        plain_s = clock() - start
        with Tracer():
            start = clock()
            _, got, _ = workload.unit(traced_state)
            traced_s = clock() - start
        ledger.add(got == want)
        overheads.append(traced_s / plain_s - 1.0)
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    ledger.add(metrics["trace.self_sum_ms"] <= metrics["trace.wall_ms"])
    if hasattr(workload, "parallel_probe"):
        parallel, checks = workload.parallel_probe(seed)
        metrics.update(parallel)
        for ok in checks:
            ledger.add(ok)
    for name in PER_LAYER_UNITS:
        metrics.setdefault(name, 0)
    Path(f"{stem}.trace.json").write_text(
        json.dumps({"host": host_facts(), "metrics": metrics,
                    "spans": tracer.export()}) + "\n")
    return metrics


def layer_metrics(tracer, state):
    import numpy as np

    main = threading.get_ident()
    own = tracer.self_times(thread=main)
    every = tracer.self_times()

    def self_ms(name, table=own):
        return table.get(name, (0, 0.0, 0.0))[2] * 1e3

    def total_ms(name):
        return every.get(name, (0, 0.0, 0.0))[1] * 1e3

    def calls(name):
        return every.get(name, (0, 0.0, 0.0))[0]

    metrics = {
        "nn.conv2d.calls": calls("nn.conv2d"),
        "nn.conv2d.gflop": tracer.conv_flop / 1e9,
        "nn.conv2d.im2col_mb": tracer.conv_im2col_bytes / 2**20,
        "core.instrument.calls": calls("core.instrument"),
        "resume.capture.calls": calls("resume.capture"),
        "campaign.pool_ms": total_ms("campaign.pool"),
        "scenario.compile_ms": total_ms("scenario.compile"),
        "scenario.resident_sample_ms": total_ms("scenario.resident_sample"),
        "scenario.resident_apply_ms": total_ms("scenario.resident_apply"),
        "scenario.resident_restore_ms": total_ms("scenario.resident_restore"),
        "telemetry.publish_ms": total_ms("telemetry.publish"),
        "telemetry.sampler_events": tracer.publish_sources.get("sampler", 0),
        "telemetry.events_published": sum(
            v for k, v in tracer.publish_sources.items() if k != "sampler"),
    }
    for name in ("nn.conv2d", "nn.conv2d_lanes", "nn.linear", "nn.linear_lanes",
                 "nn.batch_norm", "models.build", "core.profile",
                 "core.segment_trace", "core.instrument", "core.reset",
                 "campaign.plan", "campaign.run", "resume.capture",
                 "resume.store_rows", "resume.plan_chunk", "resume.run_from",
                 "scenario.run"):
        metrics[f"{name}.ms"] = self_ms(name)
    forwards = calls("core.instrument")
    metrics["core.hook_ms_per_fwd"] = (self_ms("core.hook", every) / forwards
                                       if forwards else 0.0)
    chunks = tracer.chunk_durations()
    if chunks:
        metrics["campaign.chunk_ms_p50"] = float(np.percentile(chunks, 50)) * 1e3
        metrics["campaign.chunk_ms_p90"] = float(np.percentile(chunks, 90)) * 1e3
    campaign = state.get("campaign") or getattr(state.get("compiled"), "campaign", None)
    if campaign is not None:
        perf = campaign.perf
        metrics["campaign.chunks"] = perf.forwards
        metrics["campaign.lanes_per_forward"] = perf.mean_lane_occupancy
        metrics["resume.cache_hits"] = perf.cache_hits
        metrics["resume.cache_misses"] = perf.cache_misses
        metrics["resume.cache_evictions"] = perf.cache_evictions
        metrics["resume.cache_mb"] = perf.cache_bytes / 2**20
        metrics["resume.layer_skip_frac"] = perf.fraction_layer_forwards_skipped
    bus = state.get("bus")
    if bus is not None:
        metrics["telemetry.events_dropped"] = int(bus.stats()["events_dropped"])
    wall = tracer.durations("bench.pass")[0] * 1e3
    uncovered = self_ms("bench.pass")
    metrics["trace.wall_ms"] = wall
    metrics["trace.uncovered_ms"] = uncovered
    metrics["trace.self_sum_ms"] = sum(v[2] for k, v in own.items()
                                       if k != "bench.pass") * 1e3
    metrics["trace.uncovered_frac"] = uncovered / wall
    return metrics


def count_mismatches(first, second):
    """Number of exact-repeat counts that differ between two passes."""
    differ = [name for name in EXACT_REPEAT if first.get(name) != second.get(name)]
    for name in differ:
        print(f"count differs between passes at one seed: {name} "
              f"{first.get(name)} -> {second.get(name)}", file=sys.stderr)
    return len(differ)


def run(workload_name, seed, seconds, trace, sizes=None):
    """Run one workload; returns ``(result, notes)`` where ``result`` is the
    object printed as the last output line."""
    from workloads import WORKLOADS, Sizes, out_dir

    workload = WORKLOADS[workload_name](sizes or Sizes())
    ledger = Ledger()
    if trace:
        stem = out_dir() / f"{workload_name}.seed{seed}"
        values = traced(workload, seed, seconds, ledger, stem)
        units = PER_LAYER_UNITS
        notes = {}
    else:
        with HostSpeed() as host:
            values, notes = measure(workload, seed, seconds, ledger, host)
        units = END_TO_END_UNITS
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    print("host: " + json.dumps(host_facts(), sort_keys=True))
    result, notes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:<32} {metric['value']:>14.6g} {metric['unit']}")
    print(f"fail_frac {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    if notes:
        print("notes: " + json.dumps(notes, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
