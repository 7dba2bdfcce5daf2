"""Tests for repro.telemetry — the unified live-observability plane.

Covers the envelope bus (schema, ordering, bounded queues with honest
drop counters), the flight recorder (ring semantics, schema-versioned
dumps), the Prometheus text exporter, the progress meter (rate and ETA
clamp) and the heartbeat renderer's terminal line, the NDJSON streaming
server (multi-client fan-out, torn frames, slow-client eviction), the
sampler gauges, ``repro top``'s aggregator/renderer in both live and
recorded modes, and the CLI ``--stream`` / ``--metrics-out`` /
``telemetry`` JSON block wiring.

The load-bearing invariant throughout is the ISSUE's acceptance bar:
telemetry is *observation only* — a streamed campaign produces bitwise-
identical outcomes, per-layer tallies, RNG stream, and cache statistics
to an unstreamed one, serial and parallel alike.
"""

import io
import json
import math
import multiprocessing
import os
import signal
import socket
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import InjectionCampaign
from repro.cli import main
from repro.core import SingleBitFlip, StuckAt
from repro.profile.heartbeat import CampaignHeartbeat, ProgressMeter
from repro.telemetry import (
    ENVELOPE_SCHEMA,
    FLIGHT_SCHEMA,
    SOURCES,
    FlightRecorder,
    NdjsonDecoder,
    Subscription,
    TelemetryBus,
    TelemetrySampler,
    TelemetryServer,
    TopAggregator,
    coerce_bus,
    load_flight_dump,
    make_envelope,
    parse_address,
    render,
    run_top,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")

_NONDETERMINISTIC = ("elapsed_seconds", "injections_per_sec")
_RECOVERY = ("chunk_retries", "chunks_requeued", "chunks_quarantined",
             "worker_failures", "worker_respawns")


def _campaign(model, dataset, rng=11, **kwargs):
    return InjectionCampaign(
        model, dataset, error_model=SingleBitFlip(), criterion="top1",
        batch_size=4, pool_size=16, rng=rng, **kwargs)


def _science_tallies(campaign):
    d = campaign.perf.as_dict()
    for key in _NONDETERMINISTIC + _RECOVERY:
        d.pop(key)
    return d


def _rng_probe(campaign):
    """Fingerprint of the campaign RNG stream position after a run."""
    return campaign.rng.integers(0, 2**63, size=8).tolist()


# ---------------------------------------------------------------------- #
# Envelopes and the bus
# ---------------------------------------------------------------------- #

class TestBus:
    def test_envelope_schema_fields(self):
        env = make_envelope("r1", 3, "campaign", "chunk", {"x": 1}, worker=2)
        assert env["schema"] == ENVELOPE_SCHEMA
        assert env["run"] == "r1"
        assert env["seq"] == 3
        assert env["source"] == "campaign"
        assert env["kind"] == "chunk"
        assert env["worker"] == 2
        assert env["data"] == {"x": 1}
        assert isinstance(env["t_wall"], float)
        assert isinstance(env["t_mono"], float)

    def test_publish_orders_and_counts(self):
        bus = TelemetryBus(run_id="fixed")
        sub = bus.subscribe()
        for i in range(5):
            env = bus.publish("campaign", "chunk", {"i": i})
            assert env["run"] == "fixed"
        drained = sub.drain()
        assert [e["seq"] for e in drained] == [0, 1, 2, 3, 4]
        assert [e["data"]["i"] for e in drained] == [0, 1, 2, 3, 4]
        stats = bus.stats()
        assert stats["events_published"] == 5
        assert stats["events_dropped"] == 0
        assert stats["subscribers"] == 1

    def test_full_queue_drops_oldest_and_counts_honestly(self):
        bus = TelemetryBus()
        sub = bus.subscribe(maxlen=4)
        for i in range(10):
            bus.publish("campaign", "chunk", {"i": i})
        assert len(sub) == 4
        # Live viewers keep the newest state: the oldest six were dropped.
        assert [e["data"]["i"] for e in sub.drain()] == [6, 7, 8, 9]
        assert sub.dropped == 6
        assert bus.events_dropped == 6
        assert bus.events_published == 10

    def test_unsubscribe_stops_delivery(self):
        bus = TelemetryBus()
        sub = bus.subscribe()
        bus.publish("campaign", "chunk", {})
        sub.close()
        bus.publish("campaign", "chunk", {})
        assert len(sub) == 1
        assert bus.subscribers == 0

    def test_subscription_maxlen_validation(self):
        with pytest.raises(ValueError, match="maxlen"):
            Subscription(TelemetryBus(), maxlen=0)

    def test_coerce_bus(self):
        assert coerce_bus(None) is None
        assert coerce_bus(False) is None
        fresh = coerce_bus(True)
        assert isinstance(fresh, TelemetryBus)
        assert isinstance(fresh.recorder, FlightRecorder)
        bus = TelemetryBus()
        assert coerce_bus(bus) is bus
        with pytest.raises(TypeError, match="telemetry must be"):
            coerce_bus(42)

    def test_consumers_see_every_envelope_in_order_recorder_first(self):
        recorder = FlightRecorder()
        bus = TelemetryBus(recorder=recorder)
        seen = []

        def consume(envelope):
            seen.append((len(recorder), envelope["seq"]))

        bus.add_consumer(consume)
        for i in range(3):
            bus.publish("campaign", "chunk", {"i": i})
        bus.remove_consumer(consume)
        bus.publish("campaign", "chunk", {"i": 3})
        # Synchronous and lossless, after the recorder captured each one.
        assert seen == [(1, 0), (2, 1), (3, 2)]

    def test_consumer_errors_propagate_out_of_publish(self):
        bus = TelemetryBus()

        def broken(envelope):
            raise OSError("sink full")

        bus.add_consumer(broken)
        with pytest.raises(OSError, match="sink full"):
            bus.publish("observe", "injection", {"index": 0})


# ---------------------------------------------------------------------- #
# Flight recorder
# ---------------------------------------------------------------------- #

class TestFlightRecorder:
    def test_ring_overwrites_oldest(self):
        rec = FlightRecorder(capacity=3)
        for i in range(5):
            rec.record({"seq": i})
        assert len(rec) == 3
        assert [e["seq"] for e in rec.snapshot()] == [2, 3, 4]
        assert rec.overwritten == 2

    def test_dump_and_load_round_trip(self, tmp_path):
        bus = TelemetryBus(recorder=FlightRecorder(capacity=8))
        for i in range(4):
            bus.publish("campaign", "chunk", {"i": i})
        path = bus.dump_flight("interrupt", out_dir=tmp_path)
        assert path.name == f"flight_{bus.run_id}_interrupt.json"
        payload = load_flight_dump(path)
        assert payload["schema"] == FLIGHT_SCHEMA
        assert payload["run"] == bus.run_id
        assert payload["reason"] == "interrupt"
        assert payload["captured"] == 4
        assert payload["overwritten"] == 0
        assert [e["data"]["i"] for e in payload["events"]] == [0, 1, 2, 3]
        assert bus.recorder.last_dump == path

    def test_load_rejects_non_flight_files(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError, match="not a flight-recorder dump"):
            load_flight_dump(bogus)

    def test_dump_without_recorder_is_none(self):
        assert TelemetryBus().dump_flight("interrupt") is None


# ---------------------------------------------------------------------- #
# The progress meter and the heartbeat renderer
# ---------------------------------------------------------------------- #

class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class _Lines:
    def __init__(self):
        self.lines = []

    def write(self, text):
        self.lines.append(text)

    def flush(self):
        pass


def _feed(heartbeat, kind, **data):
    heartbeat(make_envelope("hb", 0, "campaign", kind, data))


def _chunk(heartbeat, done, total, rate=0.0, eta_s=None):
    _feed(heartbeat, "chunk", done=done, total=total, rate=rate, eta_s=eta_s,
          cache_hit_rate=None)


class TestProgressMeter:
    def test_eta_is_clamped_finite_and_non_negative(self):
        clock = _FakeClock()
        meter = ProgressMeter(100, clock=clock)
        readings = [meter.update(10, executed=True)]
        clock.now += 2.0
        readings.append(meter.update(60, executed=True))  # 25/s, eta 1.6s
        clock.now += 1.0
        readings.append(meter.update(120, executed=True))  # overshoot
        assert readings[1] == (25.0, 1.6)
        for rate, eta in readings:
            assert math.isfinite(rate) and rate >= 0
            assert eta is None or (math.isfinite(eta) and eta >= 0)
        assert readings[2][1] == 0.0

    def test_zero_elapsed_rate_is_zero_not_nan(self):
        meter = ProgressMeter(100, clock=_FakeClock())
        assert meter.update(5, executed=True) == (0.0, None)

    def test_journaled_chunks_do_not_start_the_clock(self):
        clock = _FakeClock()
        meter = ProgressMeter(100, clock=clock)
        assert meter.update(50, executed=False) == (0.0, None)
        clock.now += 5.0
        meter.update(60, executed=True)  # the anchor: first executed chunk
        clock.now += 1.0
        assert meter.update(70, executed=True) == (10.0, 3.0)


class TestHeartbeat:
    def test_final_line_always_emits_despite_rate_limit(self):
        clock, out = _FakeClock(), _Lines()
        hb = CampaignHeartbeat(interval_s=60.0, stream=out, clock=clock)
        _feed(hb, "run_start", n_injections=100)
        _chunk(hb, 50, 100)
        clock.now += 0.01  # far inside the rate-limit window
        _chunk(hb, 100, 100)
        _feed(hb, "run_end", injections=100, corruptions=0)
        text = "".join(out.lines)
        assert "100/100" in text
        assert "done" in text

    def test_terminal_line_prints_exactly_once(self):
        clock, out = _FakeClock(), _Lines()
        hb = CampaignHeartbeat(interval_s=0.0, stream=out, clock=clock)
        _feed(hb, "run_start", n_injections=10)
        _chunk(hb, 5, 10)
        clock.now += 1.0
        _chunk(hb, 10, 10)
        _feed(hb, "run_end", injections=10, corruptions=0)
        assert sum("done" in line for line in out.lines) == 1

    def test_run_end_forces_terminal_line_when_short(self):
        """A quarantined run never reaches done == total on its own."""
        clock, out = _FakeClock(), _Lines()
        hb = CampaignHeartbeat(interval_s=60.0, stream=out, clock=clock)
        _feed(hb, "run_start", n_injections=100)
        _chunk(hb, 20, 100)
        clock.now += 0.01
        _chunk(hb, 40, 100)  # suppressed by the interval
        _feed(hb, "run_end", injections=40, corruptions=0)
        last = "".join(out.lines).splitlines()[-1]
        assert "40/100" in last and last.endswith("done")

    def test_lines_route_through_the_bus(self):
        """Every line renders an envelope the bus delivered; other sources,
        like the sampler's gauges, print nothing."""
        bus = TelemetryBus()
        clock, out = _FakeClock(), _Lines()
        hb = CampaignHeartbeat(interval_s=0.0, stream=out, clock=clock)
        bus.add_consumer(hb)
        bus.publish("campaign", "run_start", {"n_injections": 10})
        bus.publish("campaign", "chunk", {"done": 4, "total": 10, "rate": 8.0,
                                          "eta_s": 0.75, "cache_hit_rate": 0.5})
        bus.publish("sampler", "gauges", {"done": 4, "total": 10})
        bus.publish("campaign", "run_end", {"injections": 10, "corruptions": 1})
        lines = "".join(out.lines).splitlines()
        assert hb.ticks == len(lines) == 2
        assert lines[0].endswith("4/10 injections | 8.0 inj/s | eta 0.8s | cache hit 50%")
        assert lines[1].endswith("done")


# ---------------------------------------------------------------------- #
# Bitwise invariance: the acceptance bar
# ---------------------------------------------------------------------- #

class TestScienceInvariance:
    N = 48

    def test_serial_streamed_run_is_bitwise_identical(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        base = _campaign(model, dataset)
        base_result = base.run(self.N)
        base_probe = _rng_probe(base)

        streamed = _campaign(model, dataset)
        bus = TelemetryBus(recorder=FlightRecorder())
        sub = bus.subscribe(maxlen=100_000)
        result = streamed.run(self.N, telemetry=bus, observe=True,
                              progress=True)

        assert result.corruptions == base_result.corruptions
        assert np.array_equal(result.per_layer_injections,
                              base_result.per_layer_injections)
        assert np.array_equal(result.per_layer_corruptions,
                              base_result.per_layer_corruptions)
        assert _science_tallies(streamed) == _science_tallies(base)
        assert _rng_probe(streamed) == base_probe
        events = sub.drain()
        assert {e["source"] for e in events} >= {"campaign", "observe"}
        assert all(e["source"] in SOURCES for e in events)
        assert bus.events_dropped == 0
        # The bus detaches at run end: publishing stops with the campaign.
        assert streamed.telemetry is None

    @needs_fork
    def test_workers_4_streamed_run_is_bitwise_identical(self,
                                                         trained_tiny_model,
                                                         tmp_path):
        model, dataset, _ = trained_tiny_model
        base = _campaign(model, dataset)
        base_result = base.run(self.N)
        base_probe = _rng_probe(base)

        streamed = _campaign(model, dataset)
        bus = TelemetryBus(recorder=FlightRecorder())
        sub = bus.subscribe(maxlen=100_000)
        result = streamed.run(self.N, workers=4, telemetry=bus,
                              journal=tmp_path / "j.jsonl", observe=True,
                              progress=True)

        assert result.corruptions == base_result.corruptions
        assert np.array_equal(result.per_layer_injections,
                              base_result.per_layer_injections)
        assert np.array_equal(result.per_layer_corruptions,
                              base_result.per_layer_corruptions)
        assert _rng_probe(streamed) == base_probe
        events = sub.drain()
        sources = {e["source"] for e in events}
        assert sources >= {"campaign", "observe", "recovery", "worker"}
        # Worker-shard events are attributed to their worker.
        tagged = [e for e in events if e["worker"] is not None]
        assert {e["worker"] for e in tagged} == {0, 1, 2, 3}
        # Fleet lifecycle: 4 spawns, 4 exits, one complete journal.
        spawns = [e for e in events
                  if e["source"] == "worker" and e["kind"] == "spawn"]
        exits = [e for e in events
                 if e["source"] == "worker" and e["kind"] == "exit"]
        assert len(spawns) == 4 and len(exits) == 4
        assert any(e["kind"] == "journal_complete" for e in events
                   if e["source"] == "recovery")

    def test_queue_overflow_drops_events_not_outcomes(self, trained_tiny_model):
        """A saturated subscriber loses telemetry, never science."""
        model, dataset, _ = trained_tiny_model
        base = _campaign(model, dataset)
        base_result = base.run(self.N)

        streamed = _campaign(model, dataset)
        bus = TelemetryBus()
        tiny = bus.subscribe(maxlen=2)  # guaranteed overflow
        result = streamed.run(self.N, telemetry=bus, observe=True)
        assert result.corruptions == base_result.corruptions
        assert np.array_equal(result.per_layer_corruptions,
                              base_result.per_layer_corruptions)
        assert tiny.dropped > 0
        assert bus.events_dropped == tiny.dropped
        assert len(tiny) == 2


# ---------------------------------------------------------------------- #
# NDJSON server
# ---------------------------------------------------------------------- #

def _read_stream(sock, deadline_s=5.0):
    decoder = NdjsonDecoder()
    events = []
    sock.settimeout(0.2)
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            chunk = sock.recv(65536)
        except socket.timeout:
            continue
        except OSError:
            break
        if not chunk:
            break
        events.extend(decoder.feed(chunk))
    return events, decoder


class TestServer:
    def test_parse_address(self):
        assert parse_address("127.0.0.1:9000") == ("tcp", "127.0.0.1", 9000)
        assert parse_address(":0") == ("tcp", "127.0.0.1", 0)
        assert parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("relative.sock") == ("unix", "relative.sock")
        # A path with a colon in a directory name is still a path.
        assert parse_address("/tmp/a:b/x.sock")[0] == "unix"

    def test_unix_socket_stream_round_trip(self, tmp_path):
        bus = TelemetryBus(run_id="srv1")
        with TelemetryServer(bus, tmp_path / "t.sock") as server:
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            client.connect(str(tmp_path / "t.sock"))
            time.sleep(0.15)  # let the serve loop accept
            for i in range(20):
                bus.publish("campaign", "chunk", {"i": i})
            events, decoder = _read_stream(client, deadline_s=3.0)
            client.close()
        assert [e["data"]["i"] for e in events] == list(range(20))
        assert all(e["schema"] == ENVELOPE_SCHEMA for e in events)
        assert decoder.bad_lines == 0
        assert server.clients_served == 1
        assert not (tmp_path / "t.sock").exists()  # stop() unlinks

    def test_tcp_ephemeral_port_and_multiple_clients(self):
        bus = TelemetryBus()
        server = TelemetryServer(bus, "127.0.0.1:0").start()
        try:
            host, port = server.endpoint.rsplit(":", 1)
            clients = [socket.create_connection((host, int(port)))
                       for _ in range(3)]
            time.sleep(0.15)
            for i in range(5):
                bus.publish("campaign", "chunk", {"i": i})
            for client in clients:
                events, _ = _read_stream(client, deadline_s=3.0)
                assert [e["data"]["i"] for e in events] == list(range(5))
                client.close()
            assert server.clients_served == 3
        finally:
            server.stop()

    def test_slow_client_is_evicted_not_waited_on(self, tmp_path):
        bus = TelemetryBus()
        server = TelemetryServer(bus, tmp_path / "slow.sock",
                                 max_client_buffer=4096).start()
        try:
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            client.connect(str(tmp_path / "slow.sock"))
            # Never read: the kernel buffer fills, then the server-side
            # buffer crosses max_client_buffer and the client is evicted.
            blob = "x" * 2048
            deadline = time.monotonic() + 10.0
            while server.clients_evicted == 0 and time.monotonic() < deadline:
                bus.publish("campaign", "chunk", {"blob": blob})
                time.sleep(0.002)
            assert server.clients_evicted == 1
            client.close()
        finally:
            server.stop()

    def test_stop_is_idempotent(self, tmp_path):
        bus = TelemetryBus()
        server = TelemetryServer(bus, tmp_path / "t.sock").start()
        server.stop()
        server.stop()


class _PerfCampaign:
    """Stands in for a campaign: the sampler reads only ``perf``."""

    def __init__(self, forwards, forwards_saved):
        from repro.perf import CampaignPerfCounters

        self.perf = CampaignPerfCounters(forwards=forwards,
                                         forwards_saved=forwards_saved)


class TestSampler:
    def test_gauges_derive_from_bus_traffic(self):
        bus = TelemetryBus()
        sub = bus.subscribe()
        sampler = TelemetrySampler(bus, interval_s=60.0)  # manual sampling
        sampler.start()
        bus.publish("campaign", "run_start", {"n_injections": 100})
        bus.publish("campaign", "chunk", {"done": 40, "total": 100, "rate": 20.0,
                                          "eta_s": 3.0, "cache_hit_rate": 0.75})
        bus.publish("worker", "spawn", {"wid": 0, "pid": os.getpid()})
        sampler.stop()
        gauges = [e for e in sub.drain() if e["source"] == "sampler"]
        assert len(gauges) >= 2  # one at start, one at stop
        final = gauges[-1]["data"]
        assert final["done"] == 40
        assert final["total"] == 100
        assert (final["inj_per_s"], final["eta_s"], final["cache_hit_rate"]) \
            == (20.0, 3.0, 0.75)
        assert final["rss_kb"] is None or final["rss_kb"] > 0
        assert final["workers"][0]["wid"] == 0
        assert final["workers"][0]["alive"] is True

    def test_chunk_tallies_advance_progress_without_heartbeat(self):
        bus = TelemetryBus()
        sub = bus.subscribe()
        sampler = TelemetrySampler(bus, interval_s=60.0)
        sampler.start()
        for done in (4, 8, 12):
            bus.publish("campaign", "chunk", {"done": done, "total": 12})
        sampler.stop()
        final = [e for e in sub.drain() if e["source"] == "sampler"][-1]
        assert final["data"]["done"] == 12

    def test_lane_occupancy_gauges(self):
        bus = TelemetryBus()
        sub = bus.subscribe()
        # Two lane-packed forwards hosting 8 + 4 injections.
        sampler = TelemetrySampler(bus, campaign=_PerfCampaign(2, 10),
                                   interval_s=60.0)
        sampler.start()
        sampler.stop()
        final = [e for e in sub.drain() if e["source"] == "sampler"][-1]["data"]
        assert final["lane_occupancy"] == 6.0
        assert final["forwards_saved"] == 10

    def test_lane_gauges_absent_without_forwards(self):
        for campaign in (None, _PerfCampaign(0, 0)):
            bus = TelemetryBus()
            sub = bus.subscribe()
            TelemetrySampler(bus, campaign=campaign, interval_s=60.0).start().stop()
            final = [e for e in sub.drain() if e["source"] == "sampler"][-1]["data"]
            assert final["lane_occupancy"] is None  # no forwards seen

    def test_stop_is_idempotent(self):
        sampler = TelemetrySampler(TelemetryBus(), interval_s=60.0).start()
        sampler.stop()
        published = sampler.bus.events_published
        sampler.stop()
        assert sampler.bus.events_published == published


# ---------------------------------------------------------------------- #
# Torn frames and the top aggregator/renderer
# ---------------------------------------------------------------------- #

class TestNdjsonDecoder:
    def test_torn_frames_reassemble(self):
        lines = (json.dumps({"a": 1}) + "\n" + json.dumps({"b": 2}) + "\n")
        raw = lines.encode()
        decoder = NdjsonDecoder()
        out = []
        # Worst case: the stream arrives one byte at a time.
        for i in range(len(raw)):
            out.extend(decoder.feed(raw[i:i + 1]))
        assert out == [{"a": 1}, {"b": 2}]
        assert decoder.bad_lines == 0
        assert decoder.pending == 0

    def test_torn_multibyte_utf8_survives(self):
        payload = json.dumps({"s": "é" * 10}).encode() + b"\n"
        decoder = NdjsonDecoder()
        split = len(payload) // 2  # guaranteed to tear inside the blob
        out = decoder.feed(payload[:split])
        out += decoder.feed(payload[split:])
        assert out == [{"s": "é" * 10}]
        assert decoder.bad_lines == 0

    def test_garbage_lines_are_counted_not_fatal(self):
        decoder = NdjsonDecoder()
        out = decoder.feed(b'not json\n{"ok": 1}\n\xff\xfe\n')
        assert out == [{"ok": 1}]
        assert decoder.bad_lines == 2


def _env(source, kind, data, seq=0, worker=None):
    return make_envelope("toprun", seq, source, kind, data, worker=worker)


class TestTop:
    def test_aggregator_folds_the_stream(self):
        agg = TopAggregator()
        agg.ingest(_env("campaign", "run_start", {"n_injections": 100}))
        agg.ingest(_env("worker", "spawn", {"wid": 0, "pid": 42}))
        agg.ingest(_env("worker", "spawn", {"wid": 1, "pid": 43}))
        agg.ingest(_env("campaign", "chunk",
                        {"layer": 2, "injections": 3, "corruptions": 1,
                         "tallies": [[2, 0], [2, 1], [3, 0]],
                         "done": 60, "total": 100, "rate": 25.0,
                         "eta_s": 1.6, "cache_hit_rate": 0.9}))
        agg.ingest(_env("sampler", "gauges",
                        {"done": 60, "total": 100, "inj_per_s": 30.0,
                         "eta_s": 1.5, "cache_hit_rate": 0.9,
                         "rss_kb": 4096,
                         "workers": [{"wid": 0, "pid": 42, "alive": True,
                                      "rss_kb": 2048}]}))
        agg.ingest(_env("worker", "died", {"wid": 1, "pid": 43}))
        agg.ingest(_env("campaign", "run_end", {"injections": 100}))
        agg.ingest({"schema": "bogus"})
        assert agg.run == "toprun"
        assert agg.done == 60 and agg.total == 100
        assert agg.finished and agg.skipped == 1
        assert agg.layer_injections == {2: 2, 3: 1}
        assert agg.outcomes[2] == 1
        board = render(agg)
        assert "60/100" in board
        assert "done" in board
        assert "DIED" in board
        assert "cache hit" in board

    def test_per_layer_counts_match_a_lane_packed_campaign(self,
                                                           trained_tiny_model):
        """Weight lanes mix layers; top credits each lane's own layer."""
        model, dataset, _ = trained_tiny_model
        campaign = InjectionCampaign(model, dataset, error_model=StuckAt(1e20),
                                     batch_size=8, pool_size=16, rng=3,
                                     target="weight")
        bus = TelemetryBus()
        sub = bus.subscribe(maxlen=100_000)
        result = campaign.run(32, telemetry=bus)
        agg = TopAggregator()
        for env in sub.drain():
            agg.ingest(env)
        layers = range(campaign.fi.num_layers)
        assert [agg.layer_injections[j] for j in layers] \
            == result.per_layer_injections.tolist()
        assert [agg.outcomes[j] for j in layers] \
            == result.per_layer_corruptions.tolist()
        assert agg.done == agg.total == 32

    def test_run_top_renders_a_flight_dump(self, tmp_path):
        """SIGTERM mid-campaign leaves exactly one interrupt dump, which
        ``repro top`` renders as an aborted run."""
        from tests.test_recovery import _cli, _wait_for_journal

        journal = tmp_path / "j.jsonl"
        proc = _cli(["inject", "alexnet", "--scale", "smoke", "--campaign",
                     "20000", "--batch-size", "8", "--json", "--journal",
                     str(journal), "--out-dir", str(tmp_path)],
                    start_new_session=True)
        try:
            _wait_for_journal(journal, min_chunks=2)
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130
        dumps = sorted(tmp_path.glob("flight_*.json"))
        assert len(dumps) == 1, dumps
        payload = load_flight_dump(dumps[0])
        assert payload["reason"] == "interrupt"
        assert payload["events"]
        assert all(e["schema"] == ENVELOPE_SCHEMA and e["run"] == payload["run"]
                   for e in payload["events"])
        render = _cli(["top", str(dumps[0])])
        out, err = render.communicate(timeout=60)
        assert render.returncode == 0, err
        assert "ABORTED (interrupt)" in out
        assert "flight dump:" in out
        assert "/20000" in out

    def test_run_top_rejects_a_non_dump_file(self, tmp_path, capsys):
        bogus = tmp_path / "x.json"
        bogus.write_text(json.dumps({"schema": "nope"}))
        assert run_top(str(bogus)) == 2
        assert "not a flight-recorder dump" in capsys.readouterr().err

    def test_run_top_follows_a_live_server(self, tmp_path, capsys):
        bus = TelemetryBus()
        with TelemetryServer(bus, tmp_path / "live.sock"):
            import threading

            def feed():
                time.sleep(0.2)
                bus.publish("campaign", "run_start", {"n_injections": 4})
                bus.publish("campaign", "chunk", {"done": 4, "total": 4})
                bus.publish("campaign", "run_end", {"injections": 4})

            feeder = threading.Thread(target=feed)
            feeder.start()
            code = run_top(str(tmp_path / "live.sock"), max_events=3,
                           connect_timeout=5.0)
            feeder.join()
        assert code == 0
        assert "4/4" in capsys.readouterr().out


# ---------------------------------------------------------------------- #
# Flight dumps on chaos (extends the test_recovery pattern)
# ---------------------------------------------------------------------- #

@needs_fork
class TestFlightDumpOnChaos:
    def test_fleet_exhaustion_dumps_the_flight_recorder(self,
                                                        trained_tiny_model,
                                                        tmp_path):
        model, dataset, _ = trained_tiny_model
        campaign = _campaign(model, dataset)
        orig = type(campaign)._execute_chunk
        parent = os.getpid()

        def always_dies(self, layer_idx, positions, *args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return orig(self, layer_idx, positions, *args, **kwargs)

        campaign._execute_chunk = always_dies.__get__(campaign)
        bus = TelemetryBus(recorder=FlightRecorder())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(RuntimeError, match="fleet exhausted"):
                campaign.run(48, workers=2, telemetry=bus,
                             recovery={"max_respawns": 1,
                                       "respawn_backoff_s": 0.01},
                             journal=tmp_path / "j.jsonl")
        dumps = sorted(tmp_path.glob("flight_*.json"))
        assert len(dumps) == 1, [d.name for d in dumps]
        payload = load_flight_dump(dumps[0])
        assert payload["reason"] == "fleet_exhausted"
        assert payload["schema"] == FLIGHT_SCHEMA
        kinds = {(e["source"], e["kind"]) for e in payload["events"]}
        assert ("worker", "died") in kinds
        assert ("recovery", "fleet_exhausted") in kinds

    def test_sigkilled_worker_run_streams_and_still_matches_serial(
            self, trained_tiny_model, tmp_path):
        from tests.test_recovery import _kill_once_in_worker

        model, dataset, _ = trained_tiny_model
        base = _campaign(model, dataset)
        base_result = base.run(48)

        campaign = _campaign(model, dataset)
        _kill_once_in_worker(campaign, tmp_path, os.getpid())
        bus = TelemetryBus(recorder=FlightRecorder())
        sub = bus.subscribe(maxlen=100_000)
        with pytest.warns(RuntimeWarning, match="died"):
            result = campaign.run(48, workers=2, telemetry=bus,
                                  journal=tmp_path / "j.jsonl")
        # Science first: the disturbed streamed run matches clean serial.
        assert result.corruptions == base_result.corruptions
        assert np.array_equal(result.per_layer_corruptions,
                              base_result.per_layer_corruptions)
        events = sub.drain()
        kinds = {(e["source"], e["kind"]) for e in events}
        assert ("worker", "died") in kinds
        assert campaign.perf.as_dict()["worker_failures"] >= 1
        # The run recovered, so no flight dump was triggered.
        assert list(tmp_path.glob("flight_*.json")) == []


# ---------------------------------------------------------------------- #
# CLI wiring
# ---------------------------------------------------------------------- #

class TestCli:
    def test_inject_json_gains_a_telemetry_block(self, tmp_path, capsys):
        code = main(["inject", "alexnet", "--scale", "smoke", "--campaign",
                     "24", "--batch-size", "8", "--json",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        block = record["telemetry"]
        assert set(block) == {"events_published", "events_dropped",
                              "clients_served", "recorder_dump"}
        assert block["events_published"] > 0
        assert block["events_dropped"] == 0
        assert block["clients_served"] == 0
        assert block["recorder_dump"] is None

    def test_inject_stream_serves_ndjson(self, tmp_path, capsys):
        sock_path = tmp_path / "t.sock"
        import threading

        collected = {}

        def reader():  # ``repro top SOCK --raw`` until the stream closes
            out = io.StringIO()
            collected["rc"] = run_top(str(sock_path), raw=True, out=out,
                                      connect_timeout=15.0)
            collected["events"] = [json.loads(line)
                                   for line in out.getvalue().splitlines()]

        thread = threading.Thread(target=reader)
        thread.start()
        args = ["inject", "alexnet", "--scale", "smoke", "--campaign", "24",
                "--batch-size", "8", "--json", "--stream", str(sock_path),
                "--journal", str(tmp_path / "j.jsonl"),
                "--observe", str(tmp_path / "o.jsonl"),
                "--out-dir", str(tmp_path)]
        code = main(args + (["--workers", "2"] if HAS_FORK else []))
        thread.join()
        assert code == 0
        assert collected["rc"] == 0
        record = json.loads(capsys.readouterr().out)
        assert record["telemetry"]["clients_served"] == 1
        assert record["telemetry"]["recorder_dump"] is None
        events = collected["events"]
        assert events, "reader saw no envelopes"
        fields = {"schema", "run", "seq", "source", "kind", "t_wall", "t_mono",
                  "worker", "data"}
        assert all(set(e) == fields for e in events)
        assert all(e["schema"] == ENVELOPE_SCHEMA for e in events)
        assert len({e["run"] for e in events}) == 1
        sources = {e["source"] for e in events}
        assert sources >= {"campaign", "observe", "recovery", "sampler"}
        if HAS_FORK:
            assert "worker" in sources
        last = [e["data"] for e in events
                if (e["source"], e["kind"]) == ("campaign", "chunk")][-1]
        assert last["done"] == last["total"] == 24
        assert math.isfinite(last["rate"])

    def test_inject_observe_requires_campaign(self, capsys):
        assert main(["inject", "alexnet", "--observe", "x.jsonl"]) == 2
        assert "requires --campaign" in capsys.readouterr().err

    def test_inject_stream_requires_campaign(self, capsys):
        assert main(["inject", "alexnet", "--stream", "x.sock"]) == 2
        assert "requires --campaign" in capsys.readouterr().err

    def test_profile_metrics_out_writes_prometheus_text(self, tmp_path, capsys):
        metrics = tmp_path / "m.prom"
        code = main(["profile", "--model", "alexnet", "--scale", "smoke",
                     "--campaign", "16", "--batch-size", "8",
                     "--out-dir", str(tmp_path), "--metrics-out", str(metrics)])
        assert code == 0
        text = metrics.read_text()
        assert "# TYPE campaign_injections counter" in text
        assert "campaign_injections 16" in text
        # The summary JSON carries the same counters the text renders.
        summary = json.loads((tmp_path / "alexnet_summary.json").read_text())
        assert "campaign_forwards " + str(summary["meta"]["perf"]["forwards"]) in text
        assert "chunk_seconds" not in text

    def test_profile_metrics_out_needs_runtime_profile(self, capsys):
        assert main(["profile", "alexnet", "--metrics-out", "m.prom"]) == 2
        assert "runtime profile" in capsys.readouterr().err

    def test_profile_metrics_out_requires_campaign(self, tmp_path, capsys):
        """A forward profile has no counters to render, like --stream."""
        assert main(["profile", "--model", "alexnet", "--scale", "smoke",
                     "--out-dir", str(tmp_path),
                     "--metrics-out", str(tmp_path / "m.prom")]) == 2
        assert "--metrics-out requires --campaign" in capsys.readouterr().err
        assert not (tmp_path / "m.prom").exists()
