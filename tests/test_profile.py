"""Tests for repro.profile: span tracer, instrumentation, exports."""

import io
import json
import multiprocessing

import numpy as np
import pytest

from repro import nn
from repro import tensor as T
from repro.campaign import CampaignInterrupted, InjectionCampaign
from repro.core import SingleBitFlip, StuckAt
from repro.data import SelfLabelledDataset
from repro.profile import (
    CampaignHeartbeat,
    Profiler,
    campaign_spans,
    chrome_trace_events,
    coerce_progress,
    instrument,
    profile_forward,
    span_records,
    summary,
    text_table,
    write_artifacts,
)
from repro.profile.instrument import _campaign_sites
from repro.telemetry import make_envelope

from .test_resume import NonChainNet

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable")


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

    def test_consume_rebases_worker_parent_indices(self):
        def spans_row(wid, depth):
            worker = Profiler(clock=FakeClock(), track_allocations=False)
            with worker.span("campaign.chunk"):
                with worker.span("resume.plan"):
                    if depth > 2:
                        with worker.span("resume.capture"):
                            pass
            return make_envelope("run", 0, "profile", "spans",
                                 {"pid": 100 + wid, "spans": span_records(worker)},
                                 worker=wid)

        prof = Profiler(track_allocations=False)
        prof.consume(spans_row(1, 2))
        prof.consume(spans_row(0, 3))
        assert [r["parent"] for r in prof.foreign_spans] == [None, 0, None, 2, 3]
        assert [r["process_name"] for r in prof.foreign_spans] == \
            ["repro.worker[1]"] * 2 + ["repro.worker[0]"] * 3
        paths = [r["path"] for r in summary(prof)["spans"]]
        assert paths == [
            "repro.worker[1]", "repro.worker[1]/campaign.chunk",
            "repro.worker[1]/campaign.chunk/resume.plan",
            "repro.worker[0]", "repro.worker[0]/campaign.chunk",
            "repro.worker[0]/campaign.chunk/resume.plan",
            "repro.worker[0]/campaign.chunk/resume.plan/resume.capture"]

    def test_write_artifacts_roundtrip(self, tmp_path):
        paths = write_artifacts(self._profiled(), tmp_path, stem="toy")
        trace = json.loads(paths["trace"].read_text())
        assert {e["ph"] for e in trace["traceEvents"]} == {"M", "X"}
        loaded = json.loads(paths["summary_json"].read_text())
        assert loaded["num_spans"] == 3
        assert "recorded wall clock" in paths["summary_txt"].read_text()


def _strip_wall_clock(log):
    """An observe log's lines, re-serialised as the sink writes them, minus
    per-injection ``latency_s`` and the footer's wall-clock perf fields."""
    lines = []
    for line in log.read_text().splitlines():
        event = json.loads(line)
        event.pop("latency_s", None)
        for key in ("elapsed_seconds", "injections_per_sec"):
            event.get("perf", {}).pop(key, None)
        lines.append(json.dumps(event, sort_keys=True, separators=(",", ":")))
    return lines


def _run_cell(cell, model, dataset, out_dir):
    """Run one invariance cell; the observables profiling must not move."""
    def build():
        return InjectionCampaign(model, dataset, batch_size=4, pool_size=32, rng=0)

    log = out_dir / "observe.jsonl"
    campaign = build()
    if cell == "serial":
        result = campaign.run(16)
    elif cell == "workers2":
        result = campaign.run(16, workers=2)
    elif cell == "observe":
        result = campaign.run(16, observe=log)
        campaign.observer.close()
    else:  # journal resume after an interrupt
        journal = out_dir / "run.journal"

        def interrupt(done, total):
            if done >= 8:
                raise KeyboardInterrupt

        with pytest.raises(CampaignInterrupted):
            campaign.run(16, journal=journal, progress=interrupt)
        campaign = build()
        result = campaign.run(16, journal=journal)
    return {
        "injections": result.injections,
        "corruptions": result.corruptions,
        "per_layer_injections": result.per_layer_injections.tolist(),
        "per_layer_corruptions": result.per_layer_corruptions.tolist(),
        "rng": campaign.rng.bit_generator.state,
        "cache": (campaign.perf.cache_hits, campaign.perf.cache_misses),
        "observe_log": _strip_wall_clock(log) if cell == "observe" else None,
    }


def _span_pairs(prof):
    """``{lane: {(span name, parent name)}}``: the parent process's lane
    ``repro.profile`` and one per worker, from the recorded parent links."""
    lanes = {"repro.profile": {(s.name, s.parent.name if s.parent else None)
                               for s in prof.spans}}
    for record in prof.foreign_spans:
        parent = record["parent"]
        lanes.setdefault(record["process_name"], set()).add(
            (record["name"],
             None if parent is None else prof.foreign_spans[parent]["name"]))
    return lanes


def _profiled(build, n, **run_kwargs):
    prof = Profiler()
    with campaign_spans(prof):
        campaign = build()
        campaign.run(n, **run_kwargs)
    return prof, campaign


# The serial span tree of a resumed campaign, chain and stub mode, neuron
# and weight target alike, as the in-code spans recorded it.
SERIAL_TREE = {
    ("campaign.pool", None), ("resume.capture", "campaign.pool"),
    ("campaign.plan", None), ("campaign.chunk", None),
    ("resume.plan", "campaign.chunk"), ("campaign.replay", "campaign.chunk"),
}
WORKER_TREE = {
    ("campaign.chunk", None), ("resume.plan", "campaign.chunk"),
    ("campaign.replay", "campaign.chunk"),
}


class TestCampaignProfiling:
    CELLS = ("serial", "workers2", "observe", "journal")

    def test_profiled_campaign_is_bitwise_invariant(self, trained_tiny_model,
                                                    tmp_path):
        model, dataset, _ = trained_tiny_model
        cells = [c for c in self.CELLS
                 if c != "workers2" or "fork" in multiprocessing.get_all_start_methods()]
        for cell in cells:
            plain = _run_cell(cell, model, dataset, tmp_path / cell / "plain")
            prof = Profiler()
            with campaign_spans(prof):
                profiled = _run_cell(cell, model, dataset,
                                     tmp_path / cell / "profiled")
            assert any(s.name == "campaign.plan" for s in prof.spans), cell
            if cell == "workers2":
                assert prof.foreign_spans
            for key, value in plain.items():
                assert profiled[key] == value, (cell, key)

    def test_campaign_records_phase_spans(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        prof = Profiler()
        with campaign_spans(prof):
            campaign = InjectionCampaign(model, dataset, batch_size=4,
                                         pool_size=32, rng=1)
            campaign.run(8)
        names = {s.name for s in prof.spans}
        assert {"campaign.pool", "campaign.plan", "campaign.chunk"} <= names
        chunk_spans = [s for s in prof.spans if s.name == "campaign.chunk"]
        assert all("cache_hits" in s.args for s in chunk_spans)


class TestCampaignSpanTree:
    """The span names and nesting each campaign shape records."""

    def test_chain_neuron_campaign(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        prof, campaign = _profiled(lambda: InjectionCampaign(
            model, dataset, error_model=SingleBitFlip(), batch_size=4,
            pool_size=32, rng=0), 16)
        assert campaign._resume.chain
        assert _span_pairs(prof) == {"repro.profile": SERIAL_TREE}

    def test_stub_mode_campaign(self, tiny_dataset):
        model = NonChainNet()
        model.eval()
        dataset = SelfLabelledDataset(model, tiny_dataset)
        prof, campaign = _profiled(lambda: InjectionCampaign(
            model, dataset, batch_size=4, pool_size=16, rng=3), 8)
        assert not campaign._resume.chain
        assert _span_pairs(prof) == {"repro.profile": SERIAL_TREE}
        modes = {s.args["mode"] for s in prof.spans if s.name == "campaign.replay"}
        assert modes == {"stub"}

    def test_weight_campaign(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        prof, _ = _profiled(lambda: InjectionCampaign(
            model, dataset, error_model=StuckAt(1e20), batch_size=8,
            pool_size=64, rng=9, target="weight"), 12)
        assert _span_pairs(prof) == {"repro.profile": SERIAL_TREE}

    @needs_fork
    def test_two_worker_campaign_per_pid_lane(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        prof, _ = _profiled(lambda: InjectionCampaign(
            model, dataset, error_model=SingleBitFlip(), batch_size=4,
            pool_size=16, rng=11), 24, workers=2)
        assert _span_pairs(prof) == {
            "repro.profile": {
                ("campaign.pool", None), ("resume.capture", "campaign.pool"),
                ("campaign.plan", None), ("campaign.parallel", None),
                ("campaign.merge", None),
            },
            "repro.worker[0]": WORKER_TREE,
            "repro.worker[1]": WORKER_TREE,
        }

    @needs_fork
    def test_summary_rows_count_every_worker_chunk(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model

        def build():
            return InjectionCampaign(model, dataset, batch_size=4, pool_size=16,
                                     rng=11)

        plan_of = build()
        n_chunks = len(plan_of._chunks(plan_of._plan(24)[1], 24))
        prof, _ = _profiled(build, 24, workers=2)
        rows = summary(prof)["spans"]
        chunk_rows = [r for r in rows if r["name"] == "campaign.chunk"]
        assert sum(r["count"] for r in chunk_rows) == n_chunks
        assert {r["path"].split("/")[0] for r in chunk_rows} == {
            "repro.worker[0]", "repro.worker[1]"}
        # Each row follows its parent's row.
        seen = set()
        for row in rows:
            assert row["depth"] == 0 or row["path"].rsplit("/", 1)[0] in seen
            seen.add(row["path"])
        assert "repro.worker[1]" in text_table(prof)

    @needs_fork
    def test_failed_worker_attempt_ships_no_spans(self, trained_tiny_model,
                                                  tmp_path):
        import os

        model, dataset, _ = trained_tiny_model
        marker = str(tmp_path / "failed-once")
        prof = Profiler()
        with campaign_spans(prof):
            campaign = InjectionCampaign(model, dataset, batch_size=4,
                                         pool_size=16, rng=11)
            execute = campaign._execute_chunk

            def fails_once(*args, **kwargs):
                try:  # the first attempt on any worker, exactly once
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    return execute(*args, **kwargs)
                raise RuntimeError("first attempt fails")

            campaign._execute_chunk = fails_once
            campaign.run(24, workers=2)
        assert campaign.parallel_info["retries"] == 1
        chunks = [r for r in prof.foreign_spans if r["name"] == "campaign.chunk"]
        assert len(chunks) == campaign.perf.forwards  # one per chunk record
        assert all("resumed" in r["args"] for r in chunks)


class TestCampaignSpansContext:
    def _wrapped(self):
        from repro.campaign import InjectionCampaign as campaign_cls

        sites = [(owner, attr) for owner, attr, _, _ in _campaign_sites()]
        return sites + [(campaign_cls, "run")]

    def test_exit_restores_every_wrapped_attribute(self):
        originals = [(owner, attr, owner.__dict__[attr])
                     for owner, attr in self._wrapped()]
        with campaign_spans(Profiler()):
            assert all(owner.__dict__[attr] is not original
                       for owner, attr, original in originals)
        assert all(owner.__dict__[attr] is original
                   for owner, attr, original in originals)
        with pytest.raises(ValueError, match="boom"):
            with campaign_spans(Profiler()):
                raise ValueError("boom")
        assert all(owner.__dict__[attr] is original
                   for owner, attr, original in originals)

    def test_second_concurrent_entry_raises(self):
        originals = [(owner, attr, owner.__dict__[attr])
                     for owner, attr in self._wrapped()]
        with campaign_spans(Profiler()):
            with pytest.raises(RuntimeError, match="already open"):
                with campaign_spans(Profiler()):
                    pass
        assert all(owner.__dict__[attr] is original
                   for owner, attr, original in originals)
        with campaign_spans(Profiler()):  # reusable once closed
            pass

    def test_campaign_built_after_exit_records_no_span(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        prof = Profiler()
        with campaign_spans(prof):
            pass
        campaign = InjectionCampaign(model, dataset, batch_size=4, pool_size=32,
                                     rng=2)
        campaign.run(4)
        assert prof.spans == [] and prof.foreign_spans == []


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
