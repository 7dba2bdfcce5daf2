"""Tests for repro.observe — propagation tracing and campaign telemetry.

Covers the divergence metrics on hand-built tensors, the event schema
roundtrip, the JSONL sink (including the torn-trailing-line policy), the
bitwise do-not-change-the-science contract of observed campaigns, report
determinism, and the graceful degradation path when resume is off.
"""

import json

import numpy as np
import pytest

from repro.campaign import InjectionCampaign
from repro.core import SingleBitFlip
from repro.observe import (
    JsonlEventSink,
    LayerDivergence,
    MemorySink,
    ObservedInjection,
    PropagationTracer,
    aggregate,
    build_event,
    classify_outcome,
    coerce_tracer,
    divergence_rows,
    load_events,
    render_json,
    render_markdown,
    timing_summary,
)
from repro.observe.events import (
    OUTCOME_DETECTED,
    OUTCOME_MASKED,
    OUTCOME_MISCLASSIFIED,
)
from repro.perf import CampaignPerfCounters


class TestDivergenceRows:
    def test_identical_batches_have_zero_divergence(self):
        acts = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        counts, l2, linf = divergence_rows(acts, acts.copy())
        assert counts.tolist() == [0, 0]
        assert l2.tolist() == [0.0, 0.0]
        assert linf.tolist() == [0.0, 0.0]

    def test_hand_built_norms(self):
        clean = np.zeros((2, 4), dtype=np.float32)
        perturbed = np.array([[1.0, 0.0, 0.0, 0.0],
                              [3.0, -4.0, 0.0, 0.0]], dtype=np.float32)
        counts, l2, linf = divergence_rows(clean, perturbed)
        assert counts.tolist() == [1, 2]
        assert l2 == pytest.approx([1.0, 5.0])
        assert linf == pytest.approx([1.0, 4.0])

    def test_single_mantissa_bit_flip_registers(self):
        clean = np.full((1, 8), 1.0, dtype=np.float32)
        perturbed = clean.copy()
        perturbed[0, 3] = np.nextafter(np.float32(1.0), np.float32(2.0))
        counts, l2, linf = divergence_rows(clean, perturbed)
        assert counts.tolist() == [1]
        assert 0 < l2[0] < 1e-6
        assert linf[0] == l2[0]

    def test_nan_counts_as_diverged(self):
        clean = np.zeros((1, 3), dtype=np.float32)
        perturbed = np.array([[np.nan, 0.0, 0.0]], dtype=np.float32)
        counts, l2, _ = divergence_rows(clean, perturbed)
        assert counts.tolist() == [1]
        assert not np.isfinite(l2[0])

    def test_higher_rank_activations_flatten(self):
        clean = np.zeros((2, 2, 2, 2), dtype=np.float32)
        perturbed = clean.copy()
        perturbed[1, 1, 0, 1] = 2.0
        counts, l2, linf = divergence_rows(clean, perturbed)
        assert counts.tolist() == [0, 1]
        assert l2[1] == pytest.approx(2.0)
        assert linf[1] == pytest.approx(2.0)

    def test_empty_feature_dimension(self):
        counts, l2, linf = divergence_rows(np.zeros((3, 0)), np.zeros((3, 0)))
        assert counts.tolist() == [0, 0, 0]
        assert l2.tolist() == [0.0, 0.0, 0.0]
        assert linf.tolist() == [0.0, 0.0, 0.0]

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            divergence_rows(np.zeros((2, 3)), np.zeros((2, 4)))


class TestClassifyOutcome:
    def test_masked(self):
        assert classify_outcome([0.1, 0.9, 0.2], 1) == OUTCOME_MASKED

    def test_misclassified(self):
        assert classify_outcome([0.9, 0.1, 0.2], 1) == OUTCOME_MISCLASSIFIED

    def test_nan_and_inf_are_detectable(self):
        assert classify_outcome([np.nan, 0.1], 0) == OUTCOME_DETECTED
        assert classify_outcome([np.inf, 0.1], 0) == OUTCOME_DETECTED


class TestBuildEvent:
    def _event(self, divergence, layer=1, num_layers=5, **kwargs):
        defaults = dict(index=0, layer=layer, coords=(0, 1), pool_index=3,
                        seed=42, label=2, clean_predicted=2,
                        logits_row=[0.1, 0.2, 0.9], corrupted=False,
                        divergence=divergence, num_layers=num_layers,
                        resumed=True, latency_s=0.5)
        defaults.update(kwargs)
        return build_event(**defaults)

    def test_fault_reaching_last_layer_is_not_masked(self):
        rows = [LayerDivergence(1, 4, 2.0, 1.0), LayerDivergence(4, 1, 0.5, 0.5)]
        event = self._event(rows)
        assert event.first_divergence_layer == 1
        assert event.last_divergence_layer == 4
        assert event.masked_by_layer is None

    def test_fault_dying_early_is_masked_by_next_layer(self):
        event = self._event([LayerDivergence(1, 4, 2.0, 1.0),
                             LayerDivergence(2, 1, 0.5, 0.5)])
        assert event.masked_by_layer == 3

    def test_no_divergence_is_masked_at_the_target(self):
        event = self._event([])
        assert event.first_divergence_layer is None
        assert event.last_divergence_layer is None
        assert event.masked_by_layer == 1

    def test_dict_roundtrip(self):
        event = self._event([LayerDivergence(1, 4, 2.0, 1.0)])
        payload = event.to_dict()
        assert payload["type"] == "injection"
        json.dumps(payload)  # strictly serialisable
        assert ObservedInjection.from_dict(payload) == event

    def test_from_dict_rejects_other_event_types(self):
        with pytest.raises(ValueError, match="not an injection"):
            ObservedInjection.from_dict({"type": "campaign_start"})


class TestSinks:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [{"type": "injection", "index": i, "outcome": "masked"}
                  for i in range(3)]
        with JsonlEventSink(path) as sink:
            for event in events:
                sink.emit(event)
        assert load_events(path) == events

    def test_jsonl_appends_across_campaigns(self, tmp_path):
        path = tmp_path / "events.jsonl"
        for batch in range(2):
            with JsonlEventSink(path) as sink:
                sink.emit({"batch": batch})
        assert load_events(path) == [{"batch": 0}, {"batch": 1}]

    def test_constructing_a_sink_touches_nothing(self, tmp_path):
        path = tmp_path / "sub" / "events.jsonl"
        JsonlEventSink(path)
        assert not path.parent.exists()

    def test_corrupt_trailing_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"index": 0}\n{"index": 1}\n{"index": 2, "trun')
        with pytest.warns(RuntimeWarning, match="torn.jsonl:3"):
            events = load_events(path)
        assert events == [{"index": 0}, {"index": 1}]

    def test_strict_mode_raises_on_corruption(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="corrupt event"):
            load_events(path, strict=True)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"a": 1}\n\n\n{"b": 2}\n')
        assert load_events(path) == [{"a": 1}, {"b": 2}]

    def test_memory_sink_iterates(self):
        sink = MemorySink()
        sink.emit({"x": 1})
        assert list(sink) == [{"x": 1}]
        assert len(sink) == 1

    def test_missing_log_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no such event log"):
            load_events(tmp_path / "absent.jsonl")

    def test_flush_every_buffers_until_threshold(self, tmp_path):
        path = tmp_path / "buffered.jsonl"
        sink = JsonlEventSink(path, flush_every=3)
        sink.emit({"i": 0})
        sink.emit({"i": 1})
        # Two events buffered: a concurrent reader may see nothing yet.
        assert len(load_events(path)) < 2
        sink.emit({"i": 2})  # third event crosses the threshold
        assert load_events(path) == [{"i": 0}, {"i": 1}, {"i": 2}]
        sink.close()

    def test_buffered_sink_flushes_on_close(self, tmp_path):
        path = tmp_path / "buffered.jsonl"
        sink = JsonlEventSink(path, flush_every=100)
        sink.emit({"i": 0})
        sink.close()
        assert load_events(path) == [{"i": 0}]

    def test_buffered_sink_flushes_on_context_exit(self, tmp_path):
        path = tmp_path / "buffered.jsonl"
        with JsonlEventSink(path, flush_every=100) as sink:
            sink.emit({"i": 0})
            sink.emit({"i": 1})
        assert load_events(path) == [{"i": 0}, {"i": 1}]

    def test_explicit_flush(self, tmp_path):
        path = tmp_path / "buffered.jsonl"
        sink = JsonlEventSink(path, flush_every=100)
        sink.emit({"i": 0})
        sink.flush()
        assert load_events(path) == [{"i": 0}]
        sink.close()

    def test_flush_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="flush_every"):
            JsonlEventSink(tmp_path / "x.jsonl", flush_every=0)


def _campaign(model, dataset, rng=11, resume=True, **kwargs):
    return InjectionCampaign(
        model, dataset, error_model=SingleBitFlip(), criterion="top1",
        batch_size=8, pool_size=16, rng=rng, resume=resume,
        strategy="uniform_layer", **kwargs)


class TestObservedCampaign:
    N = 24

    def test_observation_is_bitwise_invisible(self, trained_tiny_model):
        """Outcomes, per-layer counts, and the RNG stream are untouched."""
        model, dataset, _ = trained_tiny_model
        plain = _campaign(model, dataset)
        result_plain = plain.run(self.N)
        observed = _campaign(model, dataset)
        tracer = PropagationTracer()
        result_observed = observed.run(self.N, observe=tracer)
        assert result_observed.corruptions == result_plain.corruptions
        assert np.array_equal(result_observed.per_layer_corruptions,
                              result_plain.per_layer_corruptions)
        # The tracer draws nothing from the campaign generator: both streams
        # must sit at the same state after the run.
        assert plain.rng.integers(0, 2**63, size=8).tolist() == \
            observed.rng.integers(0, 2**63, size=8).tolist()

    def test_one_event_per_injection_in_plan_order(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        campaign = _campaign(model, dataset)
        tracer = PropagationTracer()
        campaign.run(self.N, observe=tracer)
        injections = [e for e in tracer.events if e["type"] == "injection"]
        assert len(injections) == self.N
        assert [e["index"] for e in injections] == list(range(self.N))
        assert tracer.observed_injections == self.N
        assert tracer.events[0]["type"] == "campaign_start"
        assert tracer.events[-1]["type"] == "campaign_end"

    def test_divergence_never_precedes_the_target_layer(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        campaign = _campaign(model, dataset)
        tracer = PropagationTracer()
        campaign.run(self.N, observe=tracer)
        for event in tracer.events:
            if event["type"] != "injection":
                continue
            for row in event["divergence"]:
                assert row[0] >= event["layer"]
            if event["first_divergence_layer"] is not None:
                assert event["first_divergence_layer"] == event["layer"]

    def test_same_seed_reports_are_identical(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        reports = []
        for _ in range(2):
            tracer = PropagationTracer()
            _campaign(model, dataset).run(self.N, observe=tracer)
            reports.append(aggregate(tracer.events))
        assert render_json(reports[0]) == render_json(reports[1])

    def test_resume_on_needs_no_clean_captures(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        tracer = PropagationTracer()
        _campaign(model, dataset, resume=True).run(self.N, observe=tracer)
        assert tracer.clean_captures == 0

    def test_resume_off_degrades_to_clean_captures(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        tracer = PropagationTracer()
        result = _campaign(model, dataset, resume=False).run(self.N, observe=tracer)
        assert tracer.clean_captures > 0
        assert tracer.observed_injections == self.N
        # Degraded observation still matches the campaign's own counters.
        report = aggregate(tracer.events)
        assert report["summary"]["corruptions"] == result.corruptions

    def test_resume_on_off_profiles_agree(self, trained_tiny_model):
        """Modulo the resume telemetry itself, both paths see the same faults."""
        model, dataset, _ = trained_tiny_model
        profiles = {}
        for resume in (True, False):
            tracer = PropagationTracer()
            _campaign(model, dataset, resume=resume).run(self.N, observe=tracer)
            report = aggregate(tracer.events)
            report["summary"].pop("resumed")
            for layer in report["layers"]:
                layer.pop("resumed")
            profiles[resume] = render_json(report)
        assert profiles[True] == profiles[False]

    def test_observe_true_builds_a_memory_tracer(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        campaign = _campaign(model, dataset)
        campaign.run(self.N, observe=True)
        assert campaign.observer is not None
        assert campaign.observer.observed_injections == self.N

    def test_observe_path_writes_jsonl(self, trained_tiny_model, tmp_path):
        model, dataset, _ = trained_tiny_model
        log = tmp_path / "campaign.jsonl"
        campaign = _campaign(model, dataset)
        result = campaign.run(self.N, observe=log)
        campaign.observer.close()
        events = load_events(log)
        assert sum(e["type"] == "injection" for e in events) == self.N
        assert aggregate(events)["summary"]["corruptions"] == result.corruptions

    def test_detach_removes_hooks_even_on_reuse(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        tracer = PropagationTracer()
        for _ in range(2):  # one tracer can observe several campaigns
            _campaign(model, dataset).run(self.N, observe=tracer)
        assert tracer.observed_injections == 2 * self.N
        assert all(len(m._forward_hooks) == 0 for m in model.modules())

    def test_weight_campaigns_are_rejected(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        campaign = _campaign(model, dataset, target="weight")
        with pytest.raises(ValueError, match="neuron campaign"):
            campaign.run(self.N, observe=True)

    def test_coerce_tracer_validates(self):
        assert coerce_tracer(None) is None
        assert coerce_tracer(False) is None
        tracer = PropagationTracer()
        assert coerce_tracer(tracer) is tracer
        assert isinstance(coerce_tracer(True), PropagationTracer)
        with pytest.raises(TypeError, match="observe"):
            coerce_tracer(3.14)


class TestReport:
    def _events(self):
        return [
            {"type": "campaign_start", "network": "tiny", "criterion": "top1",
             "num_layers": 4},
            {"type": "injection", "layer": 0, "corrupted": True,
             "outcome": OUTCOME_MISCLASSIFIED, "resumed": True,
             "masked_by_layer": None, "first_divergence_layer": 0,
             "last_divergence_layer": 3,
             "divergence": [[0, 2, 1.5, 1.0], [3, 1, 0.5, 0.5]],
             "latency_s": 0.25},
            {"type": "injection", "layer": 0, "corrupted": False,
             "outcome": OUTCOME_MASKED, "resumed": False,
             "masked_by_layer": 1, "first_divergence_layer": 0,
             "last_divergence_layer": 0,
             "divergence": [[0, 1, 0.1, 0.1]], "latency_s": 0.75},
            {"type": "unknown_future_event"},
            {"type": "campaign_end", "injections": 2, "corruptions": 1},
        ]

    def test_aggregate_profile(self):
        report = aggregate(self._events())
        assert report["summary"]["campaigns"] == 1
        assert report["summary"]["injections"] == 2
        assert report["summary"]["corruptions"] == 1
        assert report["summary"]["corruption_rate"] == 0.5
        (layer0,) = report["layers"]
        assert layer0["layer"] == 0
        assert layer0["outcomes"][OUTCOME_MISCLASSIFIED] == 1
        assert layer0["masked_in_network"] == 1
        assert layer0["mean_divergence_depth"] == pytest.approx((4 + 1) / 2)
        assert layer0["mean_l2_at_target"] == pytest.approx((1.5 + 0.1) / 2)

    def test_timing_is_separate_from_the_aggregate(self):
        report = aggregate(self._events())
        assert "latency" not in json.dumps(report)
        timing = timing_summary(self._events())
        assert timing["observed"] == 2
        assert timing["total_s"] == pytest.approx(1.0)
        assert timing["mean_latency_s"] == pytest.approx(0.5)

    def test_render_markdown(self):
        report = aggregate(self._events())
        text = render_markdown(report, timing=timing_summary(self._events()))
        assert "# Campaign telemetry report" in text
        assert "| 0 | 2 | 1 |" in text
        assert "## Timing" in text

    def test_render_json_is_strict(self):
        assert json.loads(render_json(aggregate(self._events())))

    def test_aggregate_carries_wilson_intervals(self):
        from repro.campaign.stats import wilson_interval

        report = aggregate(self._events())
        lo, hi = wilson_interval(1, 2, 0.99)
        assert report["summary"]["confidence"] == 0.99
        assert report["summary"]["ci_low"] == pytest.approx(lo)
        assert report["summary"]["ci_high"] == pytest.approx(hi)
        (layer0,) = report["layers"]
        assert layer0["ci_low"] == pytest.approx(lo)
        assert layer0["ci_high"] == pytest.approx(hi)
        assert 0.0 <= layer0["ci_low"] < 0.5 < layer0["ci_high"] <= 1.0

    def test_zero_injection_interval_is_null(self):
        events = [ev for ev in self._events()
                  if ev.get("type") in ("campaign_start", "campaign_end")]
        report = aggregate(events)
        assert report["summary"]["ci_low"] is None
        assert report["summary"]["ci_high"] is None

    def test_markdown_renders_ci_column(self):
        from repro.campaign.stats import wilson_interval

        report = aggregate(self._events())
        text = render_markdown(report)
        lo, hi = wilson_interval(1, 2, 0.99)
        assert "99% CI" in text
        assert f"[{lo:.4f}, {hi:.4f}]" in text
        # The summary bullet carries the interval too, not just the table.
        summary_lines = [line for line in text.splitlines()
                         if line.startswith("-") and "99% CI [" in line]
        assert summary_lines


class TestPerfCountersReset:
    def test_reset_zeroes_tallies_and_keeps_config(self):
        perf = CampaignPerfCounters(resume_enabled=True)
        perf.injections = 10
        perf.cache_hits = 5
        perf.elapsed_seconds = 1.5
        assert perf.reset() is perf
        assert perf.injections == 0
        assert perf.cache_hits == 0
        assert perf.elapsed_seconds == 0.0
        assert perf.resume_enabled is True
