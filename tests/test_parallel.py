"""Tests for repro.campaign.parallel — deterministic multi-process campaigns.

Covers the headline bitwise-equivalence guarantee (``workers=N`` ==
``workers=1`` for outcomes, per-layer vulnerability, merged cache
statistics, and the parent RNG stream — for every registry classifier at
smoke scale), the sharded telemetry merges (trace, observe JSONL/memory,
metrics, per-pid Chrome-trace lanes), and the validation/fallback paths.
"""

import faulthandler
import json
import multiprocessing
import os
import signal
import struct
from contextlib import contextmanager
from multiprocessing.connection import Connection
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from repro import models
from repro.campaign import (
    InjectionCampaign,
    InjectionTrace,
    ParallelCampaignExecutor,
)
from repro.core import SingleBitFlip
from repro.data import SelfLabelledDataset as SelfLabelled
from repro.data import SyntheticClassification
from repro.observe import PropagationTracer, aggregate, load_events
from repro.profile import Profiler, campaign_spans, chrome_trace_events
from repro.scenario import sample_resident_faults
from repro.telemetry import TelemetryBus

from .test_resume import REGISTRY

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")


def _campaign(model, dataset, rng=11, **kwargs):
    return InjectionCampaign(
        model, dataset, error_model=SingleBitFlip(), criterion="top1",
        batch_size=4, pool_size=16, rng=rng, **kwargs)


def _perf_tallies(campaign):
    """Perf counters minus wall-clock-derived fields (the only legal diff)."""
    d = campaign.perf.as_dict()
    d.pop("elapsed_seconds")
    d.pop("injections_per_sec")
    return d


def _strip_timing(events):
    """Observe events minus per-event latency and footer wall-clock perf."""
    out = []
    for event in events:
        event = dict(event)
        event.pop("latency_s", None)
        event.pop("perf", None)
        out.append(event)
    return out


@needs_fork
class TestParallelEquivalence:
    N = 24

    def test_workers_match_serial_bitwise(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        serial = _campaign(model, dataset)
        result_serial = serial.run(self.N)
        parallel = _campaign(model, dataset)
        result_parallel = parallel.run(self.N, workers=2)

        assert result_parallel.corruptions == result_serial.corruptions
        np.testing.assert_array_equal(result_parallel.per_layer_injections,
                                      result_serial.per_layer_injections)
        np.testing.assert_array_equal(result_parallel.per_layer_corruptions,
                                      result_serial.per_layer_corruptions)
        # Merged cache statistics equal the serial run's, exactly.
        assert _perf_tallies(parallel) == _perf_tallies(serial)
        # The plan is drawn in the parent with the same generator calls, so
        # both campaigns' RNG streams sit at the same state afterwards.
        assert (parallel.rng.bit_generator.state
                == serial.rng.bit_generator.state)

    def test_parallel_info_reports_the_fleet(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        campaign = _campaign(model, dataset)
        campaign.run(self.N, workers=2)
        info = campaign.parallel_info
        assert info["requested_workers"] == 2
        assert 1 <= info["workers"] <= 2
        assert sum(info["per_worker_injections"]) == self.N
        assert len(info["per_worker_pids"]) == info["workers"]
        assert all(pid != os.getpid() for pid in info["per_worker_pids"])
        assert info["wall_time_s"] > 0

    def test_worker_count_beyond_chunks_still_exact(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        serial = _campaign(model, dataset).run(8)
        campaign = _campaign(model, dataset)
        result = campaign.run(8, workers=16)  # far more workers than chunks
        assert result.corruptions == serial.corruptions
        assert campaign.parallel_info["workers"] <= 16
        assert sum(campaign.parallel_info["per_worker_injections"]) == 8

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cache_bytes_gauges_the_campaigns_own_cache(
            self, trained_tiny_model, tmp_path, workers):
        # A resident fault set clears the clean-activation cache, so the
        # chunks refill it wherever they run; a worker's refill dies with
        # the worker.  The second campaign folds every chunk from the journal.
        model, dataset, _ = trained_tiny_model
        journal = str(tmp_path / "run.journal")
        for _ in range(2):
            campaign = _campaign(model, dataset)
            resident = sample_resident_faults(
                campaign.fi, 2, np.random.default_rng(5), stuck=1)
            for kwargs in ({"resident": resident, "journal": journal}, {}):
                campaign.run(self.N, workers=workers, **kwargs)
                assert campaign.perf.cache_bytes == campaign._resume.cache.bytes_used

    @pytest.mark.parametrize(
        "name,strategy",
        [(name, "proportional") for name in REGISTRY]
        + [("resnet18", "uniform_layer")],
        ids=REGISTRY + ["resnet18-uniform_layer"])
    def test_registry_smoke_equivalence(self, name, strategy):
        """Acceptance: workers=4 == workers=1 for every registry classifier
        (and for the per-layer-uniform site sampler)."""
        net = models.get_model(name, "cifar10", scale="smoke", rng=0)
        net.eval()
        dataset = SelfLabelled(
            net, SyntheticClassification(num_classes=10, image_size=32, seed=5))
        results = {}
        tallies = {}
        for workers in (1, 4):
            campaign = _campaign(net, dataset, strategy=strategy)
            results[workers] = campaign.run(8, workers=workers)
            tallies[workers] = _perf_tallies(campaign)
        assert results[4].corruptions == results[1].corruptions
        np.testing.assert_array_equal(results[4].per_layer_injections,
                                      results[1].per_layer_injections)
        np.testing.assert_array_equal(results[4].per_layer_corruptions,
                                      results[1].per_layer_corruptions)
        assert tallies[4] == tallies[1]


@needs_fork
class TestParallelTelemetry:
    N = 24

    def test_trace_events_match_serial(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        traces = {}
        for workers in (1, 2):
            trace = InjectionTrace()
            _campaign(model, dataset).run(self.N, trace=trace, workers=workers)
            traces[workers] = trace
        assert len(traces[2]) == len(traces[1]) == self.N
        for par, ser in zip(traces[2], traces[1]):
            assert (par.layer, par.coords, par.batch_slot) == \
                (ser.layer, ser.coords, ser.batch_slot)
            assert (par.label, par.predicted, par.corrupted) == \
                (ser.label, ser.predicted, ser.corrupted)
            assert par.margin_after == ser.margin_after

    def test_observe_memory_events_match_serial(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        events = {}
        for workers in (1, 2):
            tracer = PropagationTracer()
            _campaign(model, dataset).run(self.N, observe=tracer, workers=workers)
            assert tracer.observed_injections == self.N
            events[workers] = _strip_timing(tracer.events)
        assert events[2] == events[1]

    def test_clean_captures_reach_the_bus_as_the_same_envelopes(
            self, trained_tiny_model):
        # With resume off every chunk runs one clean capture forward; inline
        # or on a worker, each reaches the run's bus as one envelope.
        model, dataset, _ = trained_tiny_model
        captures, footers = {}, {}
        for workers in (1, 2):
            tracer = PropagationTracer()
            bus = TelemetryBus()
            sub = bus.subscribe(maxlen=100_000)
            _campaign(model, dataset, resume=False).run(
                self.N, observe=tracer, workers=workers, telemetry=bus)
            captures[workers] = [env["data"] for env in sub.drain()
                                 if (env["source"], env["kind"]) == ("observe", "captures")]
            footers[workers] = tracer.events[-1]["clean_captures"]
        assert captures[1] == captures[2] == [1] * footers[1]
        assert footers[2] == footers[1] > 0

    def test_observe_jsonl_shards_merge_and_vanish(self, trained_tiny_model,
                                                   tmp_path):
        model, dataset, _ = trained_tiny_model
        logs = {}
        for workers in (1, 2):
            log = tmp_path / f"campaign_w{workers}.jsonl"
            campaign = _campaign(model, dataset)
            result = campaign.run(self.N, observe=log, workers=workers)
            logs[workers] = _strip_timing(load_events(log))
            report = aggregate(load_events(log))
            assert report["summary"]["corruptions"] == result.corruptions
        assert logs[2] == logs[1]
        # The worker shard files are merged into the main log and removed.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "campaign_w1.jsonl", "campaign_w2.jsonl"]

    def test_observe_events_in_plan_order_with_header_and_footer(
            self, trained_tiny_model, tmp_path):
        model, dataset, _ = trained_tiny_model
        log = tmp_path / "ordered.jsonl"
        campaign = _campaign(model, dataset)
        campaign.run(self.N, observe=log, workers=2)
        events = load_events(log)
        assert events[0]["type"] == "campaign_start"
        assert events[-1]["type"] == "campaign_end"
        injections = [e for e in events if e["type"] == "injection"]
        assert [e["index"] for e in injections] == list(range(self.N))

    def test_chrome_trace_has_distinct_pid_lanes(self, trained_tiny_model):
        """A profiled 2-worker campaign exports one trace lane per process."""
        model, dataset, _ = trained_tiny_model
        prof = Profiler()
        with campaign_spans(prof):
            campaign = _campaign(model, dataset)
            campaign.run(self.N, workers=2)
        info = campaign.parallel_info
        assert info["workers"] == 2
        events = chrome_trace_events(prof)
        json.dumps({"traceEvents": events})  # valid trace-event JSON as-is
        x_pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert len(x_pids) == 3  # the parent lane plus one per worker
        assert set(info["per_worker_pids"]) <= x_pids
        names = {e["pid"]: e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert set(names) == x_pids
        assert {"repro.worker[0]", "repro.worker[1]"} <= set(names.values())
        for event in events:
            if event["ph"] == "X":
                assert event["ts"] >= 0 and event["dur"] > 0

    def test_parent_spans_cover_plan_fanout_and_merge(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        prof = Profiler()
        with campaign_spans(prof):
            campaign = _campaign(model, dataset)
            campaign.run(self.N, workers=2)
        names = {s.name for s in prof.spans}
        assert {"campaign.plan", "campaign.parallel", "campaign.merge"} <= names
        fanout, = [s for s in prof.spans if s.name == "campaign.parallel"]
        assert fanout.args["workers"] == 2
        assert sorted(fanout.args["pids"]) == \
            sorted(campaign.parallel_info["per_worker_pids"])

    def test_progress_callback_reaches_the_total(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        ticks = []
        _campaign(model, dataset).run(
            self.N, workers=2, progress=lambda done, total: ticks.append((done, total)))
        assert ticks[-1] == (self.N, self.N)
        assert all(total == self.N for _, total in ticks)
        # One tick per folded chunk: never a stale count, never a repeat.
        dones = [done for done, _ in ticks]
        assert all(done > 0 for done in dones)
        assert all(a < b for a, b in zip(dones, dones[1:]))


class TestValidationAndFallback:
    def test_workers_must_be_positive(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        campaign = _campaign(model, dataset)
        with pytest.raises(ValueError, match="workers"):
            campaign.run(8, workers=0)
        with pytest.raises(ValueError, match="workers"):
            ParallelCampaignExecutor(campaign, 0)

    def test_workers_none_means_serial(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        campaign = _campaign(model, dataset)
        result = campaign.run(8, workers=None)
        assert result.injections == 8
        assert campaign.parallel_info is None

    @needs_fork
    def test_weight_campaign_observe_rejected_before_forking(
            self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        campaign = _campaign(model, dataset, target="weight")
        with pytest.raises(ValueError, match="neuron campaign"):
            campaign.run(8, workers=2, observe=PropagationTracer())

    def test_fork_unavailable_falls_back_to_serial(self, trained_tiny_model,
                                                   monkeypatch):
        model, dataset, _ = trained_tiny_model
        serial = _campaign(model, dataset).run(8)
        monkeypatch.setattr(
            "repro.campaign.parallel.multiprocessing.get_all_start_methods",
            lambda: ["spawn"])
        campaign = _campaign(model, dataset)
        with pytest.warns(RuntimeWarning, match="fork"):
            result = campaign.run(8, workers=2)
        assert result.corruptions == serial.corruptions
        assert campaign.parallel_info is None


@needs_fork
class TestChaos:
    """The headline fault-tolerance invariant, asserted where the executor
    lives: a campaign that loses a worker to SIGKILL mid-run finishes and
    is bitwise-identical to ``workers=1``.  The full chaos suite (watchdog,
    quarantine, respawn, journal resume) is ``tests/test_recovery.py``."""

    def test_sigkilled_worker_campaign_is_bitwise_identical(
            self, trained_tiny_model, tmp_path):
        from .test_recovery import _kill_once_in_worker, _science_tallies

        model, dataset, _ = trained_tiny_model
        n = 48
        base = _campaign(model, dataset)
        base_trace = InjectionTrace()
        base_result = base.run(n, trace=base_trace)

        campaign = _campaign(model, dataset)
        _kill_once_in_worker(campaign, tmp_path, os.getpid())
        trace = InjectionTrace()
        with pytest.warns(RuntimeWarning, match="died"):
            result = campaign.run(n, workers=2, trace=trace)
        assert result.corruptions == base_result.corruptions
        assert np.array_equal(result.per_layer_injections,
                              base_result.per_layer_injections)
        assert np.array_equal(result.per_layer_corruptions,
                              base_result.per_layer_corruptions)
        assert trace.events == base_trace.events
        assert _science_tallies(campaign) == _science_tallies(base)
        assert campaign.perf.worker_failures == 1

    @pytest.mark.parametrize("torn", [False, True], ids=["handed", "torn"])
    def test_worker_killed_after_a_multi_mb_send_cannot_wedge_the_fleet(
            self, trained_tiny_model, tmp_path, monkeypatch, torn):
        """A worker SIGKILLed right after handing a multi-MB chunk message
        to its channel (or halfway through writing it) loses at most that
        message; the survivor finishes and the result is bitwise serial."""
        from .test_recovery import _science_tallies

        model, dataset, _ = trained_tiny_model
        n = 48
        base = _campaign(model, dataset)
        base_trace = InjectionTrace()
        base_result = base.run(n, trace=base_trace)

        campaign = _campaign(model, dataset)
        parent = os.getpid()
        orig_chunk = type(campaign)._execute_chunk
        armed = []  # set only inside the one worker that is about to die

        def ballasted(self, *args, **kwargs):
            out = orig_chunk(self, *args, **kwargs)
            if os.getpid() != parent:
                try:
                    (tmp_path / "killed").touch(exist_ok=False)
                except FileExistsError:
                    pass
                else:
                    armed.append(True)
                    self.telemetry.publish("campaign", "ballast", bytes(4 << 20))
            return out

        orig_send = Connection.send

        def send_then_die(self, obj):
            if not (armed and obj[0] == "chunk"):
                return orig_send(self, obj)
            if torn:
                buf = bytes(ForkingPickler.dumps(obj))
                self._send(struct.pack("!i", len(buf)) + buf[:len(buf) // 2])
            else:
                orig_send(self, obj)
            os.kill(os.getpid(), signal.SIGKILL)

        campaign._execute_chunk = ballasted.__get__(campaign)
        monkeypatch.setattr(Connection, "send", send_then_die)
        trace = InjectionTrace()
        with _deadline(120), pytest.warns(RuntimeWarning, match="died"):
            result = campaign.run(n, workers=2, trace=trace)
        assert (tmp_path / "killed").exists()
        assert result.corruptions == base_result.corruptions
        assert np.array_equal(result.per_layer_injections,
                              base_result.per_layer_injections)
        assert np.array_equal(result.per_layer_corruptions,
                              base_result.per_layer_corruptions)
        assert trace.events == base_trace.events
        assert _science_tallies(campaign) == _science_tallies(base)
        assert campaign.parallel_info["worker_failures"] == 1


@contextmanager
def _deadline(seconds):
    """Fail the test, instead of stalling the suite, if the body hangs.

    SIGALRM raises in the main thread (interrupting the parent's wait on
    its workers); the faulthandler backstop dumps every thread's stack and
    exits if even that cannot surface.
    """
    def expire(signum, frame):
        raise TimeoutError(f"campaign still running after {seconds}s: wedged")

    previous = signal.signal(signal.SIGALRM, expire)
    faulthandler.dump_traceback_later(seconds + 60, exit=True)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        faulthandler.cancel_dump_traceback_later()
        signal.signal(signal.SIGALRM, previous)
