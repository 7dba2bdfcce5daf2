"""Tests for repro.profile: span tracer, instrumentation, exports."""

import io
import json

import numpy as np
import pytest

from repro import nn
from repro import tensor as T
from repro.campaign import InjectionCampaign
from repro.profile import (
    CampaignHeartbeat,
    NULL_PROFILER,
    NullProfiler,
    Profiler,
    chrome_trace_events,
    coerce_profiler,
    coerce_progress,
    instrument,
    profile_forward,
    summary,
    text_table,
    write_artifacts,
)
from repro.telemetry import make_envelope


class FakeClock:
    """Deterministic clock: each call advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestSpanTracer:
    def test_single_span_records_duration(self):
        prof = Profiler(clock=FakeClock(), track_allocations=False)
        with prof.span("root"):
            pass
        # Clock ticks: enter t0=0, start=1; exit end=2, post=3.
        assert len(prof.roots) == 1
        span = prof.roots[0]
        assert span.duration_s == pytest.approx(1.0)
        assert span.overhead_s == pytest.approx(2.0)
        assert prof.overhead_s == pytest.approx(2.0)

    def test_nested_spans_and_self_time(self):
        prof = Profiler(clock=FakeClock(), track_allocations=False)
        with prof.span("outer"):
            with prof.span("inner"):
                pass
        outer, = prof.roots
        inner, = outer.children
        assert inner.parent is outer
        # outer: start=1 end=6; inner: start=3 end=4, overhead 2.
        assert outer.duration_s == pytest.approx(5.0)
        assert inner.duration_s == pytest.approx(1.0)
        # Self-time removes the child's window AND its bookkeeping cost.
        assert outer.self_seconds == pytest.approx(5.0 - (1.0 + 2.0))

    def test_sibling_spans_share_a_parent(self):
        prof = Profiler(track_allocations=False)
        with prof.span("parent"):
            with prof.span("a"):
                pass
            with prof.span("b"):
                pass
        assert [c.name for c in prof.roots[0].children] == ["a", "b"]
        assert len(prof.spans) == 3

    def test_span_yields_itself_for_annotation(self):
        prof = Profiler(track_allocations=False)
        with prof.span("phase", layer=3) as span:
            span.annotate(hits=7)
        assert prof.roots[0].args == {"layer": 3, "hits": 7}

    def test_path_and_walk(self):
        prof = Profiler(track_allocations=False)
        with prof.span("a"):
            with prof.span("b"):
                with prof.span("c"):
                    pass
        leaf = prof.spans[-1]
        assert leaf.path() == ("a", "b", "c")
        assert [s.name for s in prof.roots[0].walk()] == ["a", "b", "c"]

    def test_decorator_opens_a_fresh_span_per_call(self):
        prof = Profiler(track_allocations=False)

        @prof.span("work", cat="fn")
        def work(x):
            return x * 2

        assert work(3) == 6
        assert work(4) == 8
        assert len(prof.roots) == 2
        assert all(s.name == "work" and s.cat == "fn" for s in prof.roots)

    def test_current_tracks_the_open_span(self):
        prof = Profiler(track_allocations=False)
        assert prof.current is None
        with prof.span("outer"):
            assert prof.current.name == "outer"
            with prof.span("inner"):
                assert prof.current.name == "inner"
            assert prof.current.name == "outer"
        assert prof.current is None

    def test_total_seconds_sums_roots_only(self):
        prof = Profiler(clock=FakeClock(), track_allocations=False)
        with prof.span("a"):
            pass
        with prof.span("b"):
            pass
        assert prof.total_seconds == pytest.approx(
            sum(r.duration_s for r in prof.roots))

    def test_alloc_bytes_charged_to_innermost_span(self):
        prof = Profiler()
        with prof.span("outer"):
            T.zeros(4, 4)  # 64 bytes float32, charged to outer
            with prof.span("inner"):
                T.zeros(8, 8)  # 256 bytes, charged to inner
        outer, = prof.roots
        inner, = outer.children
        assert inner.alloc_bytes >= 256
        assert outer.alloc_bytes >= 64
        assert inner.alloc_bytes < outer.alloc_bytes + inner.alloc_bytes

    def test_alloc_hook_removed_after_last_span(self):
        from repro.tensor.tensor import set_alloc_hook

        prof = Profiler()
        with prof.span("only"):
            pass
        previous = set_alloc_hook(None)
        assert previous is None  # profiler uninstalled its hook on exit

    def test_exception_still_closes_the_span(self):
        prof = Profiler(track_allocations=False)
        with pytest.raises(RuntimeError):
            with prof.span("doomed"):
                raise RuntimeError("boom")
        assert prof.current is None
        assert prof.roots[0].end >= prof.roots[0].start

    def test_reset_drops_spans_but_keeps_clock(self):
        clock = FakeClock()
        prof = Profiler(clock=clock, track_allocations=False)
        with prof.span("x"):
            pass
        prof.reset()
        assert prof.roots == [] and prof.spans == []
        assert prof.overhead_s == 0.0
        assert prof.clock is clock

    def test_reset_refuses_while_a_span_is_open(self):
        prof = Profiler(track_allocations=False)
        with pytest.raises(RuntimeError, match="open"):
            with prof.span("open"):
                prof.reset()


class TestNullProfiler:
    def test_records_nothing(self):
        with NULL_PROFILER.span("anything", cat="x", key=1) as span:
            span.annotate(more=2)
        assert NULL_PROFILER.spans == ()
        assert NULL_PROFILER.roots == ()
        assert NULL_PROFILER.total_seconds == 0.0
        assert NULL_PROFILER.current is None
        assert not NULL_PROFILER.enabled

    def test_span_context_is_shared(self):
        assert NULL_PROFILER.span("a") is NULL_PROFILER.span("b")

    def test_decorator_is_identity(self):
        def fn():
            return 42

        assert NULL_PROFILER.span("x")(fn) is fn

    def test_coerce_profiler(self):
        assert coerce_profiler(None) is NULL_PROFILER
        assert coerce_profiler(False) is NULL_PROFILER
        assert isinstance(coerce_profiler(True), Profiler)
        prof = Profiler(track_allocations=False)
        assert coerce_profiler(prof) is prof
        null = NullProfiler()
        assert coerce_profiler(null) is null
        with pytest.raises(TypeError, match="profiler"):
            coerce_profiler("yes")


class TestInstrument:
    def test_per_layer_spans_nest_into_the_module_tree(self, tiny_conv_net):
        prof = Profiler(track_allocations=False)
        x = T.randn(1, 3, 16, 16, rng=0)
        output, prof = profile_forward(tiny_conv_net, x, profiler=prof)
        root, = prof.roots
        assert root.name == "forward"
        seq_span, = root.children  # the Sequential wraps every layer
        assert "Sequential" in seq_span.name
        child_types = [c.args.get("type") for c in seq_span.children]
        assert child_types == ["Conv2d", "ReLU", "Conv2d", "ReLU", "Conv2d",
                               "ReLU", "Flatten", "Linear"]

    def test_spans_carry_output_shape_and_dtype(self, tiny_conv_net):
        x = T.randn(2, 3, 16, 16, rng=0)
        _, prof = profile_forward(tiny_conv_net, x)
        leaf = prof.roots[0].children[0].children[-1]  # the Linear head
        assert leaf.args["shape"] == [2, 10]
        assert "float" in leaf.args["dtype"]

    def test_self_times_sum_to_at_most_wall_clock(self, tiny_conv_net):
        x = T.randn(1, 3, 16, 16, rng=0)
        _, prof = profile_forward(tiny_conv_net, x)
        total_self = sum(s.self_seconds for s in prof.spans)
        assert total_self <= prof.total_seconds + 1e-9

    def test_instrumented_forward_is_bit_identical(self, tiny_conv_net):
        x = T.randn(1, 3, 16, 16, rng=0)
        tiny_conv_net.eval()
        with T.no_grad():
            clean = tiny_conv_net(x).data.copy()
        profiled, _ = profile_forward(tiny_conv_net, x)
        np.testing.assert_array_equal(clean, profiled.data)

    def test_hooks_removed_after_context(self, tiny_conv_net):
        prof = Profiler(track_allocations=False)
        with instrument(tiny_conv_net, prof):
            pass
        assert all(not m._forward_hooks and not m._forward_pre_hooks
                   for m in tiny_conv_net.modules())

    def test_forward_exception_unwinds_open_spans(self, tiny_conv_net):
        prof = Profiler(track_allocations=False)
        with instrument(tiny_conv_net, prof):
            with pytest.raises(Exception):
                tiny_conv_net(T.randn(1, 3, 4, 4, rng=0))  # too small: raises
        assert prof.current is None

    def test_restores_training_mode(self, tiny_conv_net):
        tiny_conv_net.train()
        profile_forward(tiny_conv_net, T.randn(1, 3, 16, 16, rng=0))
        assert tiny_conv_net.training


class TestExport:
    def _profiled(self):
        prof = Profiler(clock=FakeClock(), track_allocations=False)
        with prof.span("root", cat="phase"):
            with prof.span("leaf", cat="layer", layer=0):
                pass
            with prof.span("leaf", cat="layer", layer=1):
                pass
        return prof

    def test_chrome_events_have_required_fields(self):
        events = chrome_trace_events(self._profiled())
        assert events[0]["ph"] == "M"
        x_events = [e for e in events if e["ph"] == "X"]
        assert len(x_events) == 3
        for event in x_events:
            assert {"name", "cat", "ts", "dur", "pid", "tid"} <= set(event)
            assert event["ts"] >= 0 and event["dur"] > 0

    def test_summary_aggregates_repeated_paths(self):
        out = summary(self._profiled(), meta={"model": "toy"})
        assert out["num_spans"] == 3
        leaf_row, = [r for r in out["spans"] if r["name"] == "leaf"]
        assert leaf_row["count"] == 2
        assert leaf_row["path"] == "root/leaf"
        assert leaf_row["depth"] == 1
        assert out["meta"] == {"model": "toy"}
        json.dumps(out)  # must be JSON-serialisable as-is

    def test_text_table_lists_spans_and_totals(self):
        table = text_table(self._profiled())
        assert "root" in table and "leaf" in table
        assert "recorded wall clock" in table
        assert "profiler overhead" in table

    def test_write_artifacts_roundtrip(self, tmp_path):
        paths = write_artifacts(self._profiled(), tmp_path, stem="toy")
        trace = json.loads(paths["trace"].read_text())
        assert {e["ph"] for e in trace["traceEvents"]} == {"M", "X"}
        loaded = json.loads(paths["summary_json"].read_text())
        assert loaded["num_spans"] == 3
        assert "recorded wall clock" in paths["summary_txt"].read_text()


class TestCampaignProfiling:
    def test_profiled_campaign_is_bitwise_invariant(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model

        def run(profiler):
            campaign = InjectionCampaign(model, dataset, batch_size=4,
                                         pool_size=32, rng=0, profiler=profiler)
            result = campaign.run(16)
            return campaign, result

        plain_campaign, plain = run(None)
        prof_campaign, profiled = run(Profiler())
        assert profiled.corruptions == plain.corruptions
        np.testing.assert_array_equal(profiled.per_layer_corruptions,
                                      plain.per_layer_corruptions)
        assert (prof_campaign.rng.bit_generator.state
                == plain_campaign.rng.bit_generator.state)
        assert prof_campaign.perf.cache_hits == plain_campaign.perf.cache_hits
        assert prof_campaign.perf.cache_misses == plain_campaign.perf.cache_misses

    def test_campaign_records_phase_spans(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        prof = Profiler()
        campaign = InjectionCampaign(model, dataset, batch_size=4, pool_size=32,
                                     rng=1, profiler=prof)
        campaign.run(8)
        names = {s.name for s in prof.spans}
        assert {"campaign.pool", "campaign.plan", "campaign.chunk"} <= names
        chunk_spans = [s for s in prof.spans if s.name == "campaign.chunk"]
        assert all("cache_hits" in s.args for s in chunk_spans)

    def test_profiler_true_builds_a_fresh_profiler(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        campaign = InjectionCampaign(model, dataset, batch_size=4, pool_size=32,
                                     rng=2, profiler=True)
        campaign.run(4)
        assert isinstance(campaign.profiler, Profiler)
        assert len(campaign.profiler.spans) > 0


class TestHeartbeat:
    def test_progress_true_prints_at_least_one_line(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        campaign = InjectionCampaign(model, dataset, batch_size=4, pool_size=32,
                                     rng=3)
        stream = io.StringIO()
        heartbeat = CampaignHeartbeat(stream=stream)
        campaign.run(8, progress=heartbeat)
        out = stream.getvalue()
        assert "8/8 injections" in out
        assert "done" in out
        assert heartbeat.ticks >= 1

    @staticmethod
    def _envelope(kind, **data):
        return make_envelope("hb", 0, "campaign", kind, data)

    def test_rate_limited_but_final_tick_always_prints(self):
        clock = FakeClock(step=0.1)
        stream = io.StringIO()
        heartbeat = CampaignHeartbeat(interval_s=10.0, stream=stream, clock=clock)
        heartbeat(self._envelope("run_start", n_injections=4))
        for done in (1, 2, 4):  # 2 and 4 fall within the interval: suppressed
            heartbeat(self._envelope("chunk", done=done, total=4))
        heartbeat(self._envelope("run_end", injections=4))  # always prints
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert len(lines) == 2
        assert "4/4" in lines[-1] and "done" in lines[-1]

    def test_reports_rate_and_eta(self):
        stream = io.StringIO()
        heartbeat = CampaignHeartbeat(interval_s=0.0, stream=stream)
        heartbeat(self._envelope("chunk", done=5, total=10, rate=5.0, eta_s=1.0))
        assert "inj/s" in stream.getvalue()
        assert "eta" in stream.getvalue()

    def test_coerce_progress(self):
        assert coerce_progress(None) is None
        assert coerce_progress(False) is None
        assert isinstance(coerce_progress(True), CampaignHeartbeat)
        heartbeat = CampaignHeartbeat()
        assert coerce_progress(heartbeat) is heartbeat
        ticks = []
        consume = coerce_progress(lambda done, total: ticks.append((done, total)))
        consume(self._envelope("run_start", n_injections=10))
        consume(self._envelope("chunk", done=4, total=10))
        assert ticks == [(4, 10)]
        with pytest.raises(TypeError, match="progress"):
            coerce_progress(3)
