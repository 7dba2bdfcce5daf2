"""Tests for repro.observe — propagation tracing and campaign telemetry.

Covers the divergence metrics on hand-built tensors, the event schema's
outcome and masking rules over every event of observed smoke campaigns,
the JSONL sink (including the torn-trailing-line policy), the bitwise
do-not-change-the-science contract of observed campaigns, report
determinism, the graceful degradation path when resume is off, and what
an interrupted observed run leaves in its log.
"""

import json
import multiprocessing

import numpy as np
import pytest

from repro import models, tensor
from repro.campaign import CampaignInterrupted, InjectionCampaign
from repro.core import SingleBitFlip, StuckAt, StuckAtBit
from repro.data import SelfLabelledDataset, SyntheticClassification
from repro.observe import (
    JsonlEventSink,
    MemorySink,
    PropagationTracer,
    aggregate,
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


class _LogitsTracer(PropagationTracer):
    """A tracer that also keeps each injection's faulty logits row, so the
    events' outcomes can be checked against the logits they came from."""

    def __init__(self):
        super().__init__()
        self.logits = {}

    def record_chunk(self, *, rows, logits, **kwargs):
        for (p, _), row in zip(rows, np.asarray(logits)):
            self.logits[p] = row.copy()
        super().record_chunk(rows=rows, logits=logits, **kwargs)


def _smoke_campaign(error_model=None):
    """A resnet18/cifar10 smoke campaign on self-labelled inputs."""
    tensor.manual_seed(0)
    net = models.get_model("resnet18", "cifar10", scale="smoke",
                           rng=tensor.spawn(1))
    net.eval()
    classes, size = models.dataset_preset("cifar10")
    dataset = SelfLabelledDataset(
        net, SyntheticClassification(num_classes=classes, image_size=size, seed=1))
    return InjectionCampaign(net, dataset, error_model=error_model,
                             batch_size=16, pool_size=16, rng=0)


@pytest.fixture(scope="module")
def smoke_events():
    """``(event, faulty logits row, campaign)`` for every injection event of
    four observed smoke campaigns.  A bit stuck at 0 is often 0 already, so
    that campaign supplies the injections that change no value."""
    out = []
    for error_model in (SingleBitFlip(), StuckAt(float("inf")), StuckAt(0.0),
                        StuckAtBit(stuck=0)):
        campaign = _smoke_campaign(error_model)
        tracer = _LogitsTracer()
        campaign.run(64, observe=tracer)
        out += [(event, tracer.logits[event["index"]], campaign)
                for event in tracer.events if event["type"] == "injection"]
    return out


class TestClassifyOutcome:
    """The outcome rule, over every event the tracer built: detected iff a
    logit is non-finite, else misclassified iff ``predicted !=
    clean_predicted``, else masked."""

    def _finite_events(self, smoke_events):
        return [(event, logits, campaign) for event, logits, campaign in smoke_events
                if np.isfinite(logits).all()]

    def test_masked(self, smoke_events):
        finite = self._finite_events(smoke_events)
        for event, logits, campaign in finite:
            clean = int(campaign.pool_logits[event["pool_index"]].argmax())
            assert event["clean_predicted"] == clean
            assert event["predicted"] == int(logits.argmax())
            assert (event["outcome"] == OUTCOME_MASKED) == (event["predicted"] == clean)
        assert any(event["outcome"] == OUTCOME_MASKED for event, _, _ in finite)

    def test_misclassified(self, smoke_events):
        finite = self._finite_events(smoke_events)
        for event, _, _ in finite:
            assert (event["outcome"] == OUTCOME_MISCLASSIFIED) == \
                (event["predicted"] != event["clean_predicted"])
        assert any(event["outcome"] == OUTCOME_MISCLASSIFIED for event, _, _ in finite)

    def test_nan_and_inf_are_detectable(self, smoke_events):
        for event, logits, _ in smoke_events:
            assert (event["outcome"] == OUTCOME_DETECTED) == \
                (not np.isfinite(logits).all())
            # NaN ranks lowest in an event's ``predicted``.
            assert event["predicted"] == int(
                np.nan_to_num(logits, nan=-np.inf).argmax())
        assert any(event["outcome"] == OUTCOME_DETECTED for event, _, _ in smoke_events)


class TestBuildEvent:
    """The divergence fields of every event the tracer built: ascending
    rows, first/last read off them, and the three ``masked_by_layer``
    rules."""

    @staticmethod
    def _rows(event):
        layers = [row[0] for row in event["divergence"]]
        assert layers == sorted(set(layers))
        assert all(row[1] > 0 for row in event["divergence"])
        return layers

    def test_fault_reaching_last_layer_is_not_masked(self, smoke_events):
        seen = 0
        for event, _, campaign in smoke_events:
            layers = self._rows(event)
            if layers and layers[-1] == campaign.fi.num_layers - 1:
                assert event["masked_by_layer"] is None
                assert event["last_divergence_layer"] == layers[-1]
                seen += 1
        assert seen

    def test_fault_dying_early_is_masked_by_next_layer(self, smoke_events):
        seen = 0
        for event, _, campaign in smoke_events:
            layers = self._rows(event)
            if layers and layers[-1] < campaign.fi.num_layers - 1:
                assert event["first_divergence_layer"] == layers[0]
                assert event["last_divergence_layer"] == layers[-1]
                assert event["masked_by_layer"] == layers[-1] + 1
                seen += 1
        assert seen

    def test_no_divergence_is_masked_at_the_target(self, smoke_events):
        seen = 0
        for event, _, _ in smoke_events:
            if not self._rows(event):
                assert event["first_divergence_layer"] is None
                assert event["last_divergence_layer"] is None
                assert event["masked_by_layer"] == event["layer"]
                seen += 1
        assert seen

    def test_dict_roundtrip(self, smoke_events, tmp_path):
        events = [event for event, _, _ in smoke_events]
        for event in events:
            json.dumps(event, allow_nan=False)  # strictly serialisable
        path = tmp_path / "events.jsonl"
        with JsonlEventSink(path) as sink:
            for event in events:
                sink.emit(event)
        assert load_events(path, strict=True) == events


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

    def test_every_emit_reaches_the_file(self, tmp_path):
        path = tmp_path / "open.jsonl"
        sink = JsonlEventSink(path)
        for i in range(3):
            sink.emit({"i": i})
            # A concurrent reader sees each event as soon as it is emitted.
            assert load_events(path) == [{"i": j} for j in range(i + 1)]
        sink.close()

    def test_buffered_sink_flushes_on_close(self, tmp_path):
        path = tmp_path / "buffered.jsonl"
        sink = JsonlEventSink(path)
        sink.emit({"i": 0})
        sink.close()
        assert load_events(path) == [{"i": 0}]

    def test_buffered_sink_flushes_on_context_exit(self, tmp_path):
        path = tmp_path / "buffered.jsonl"
        with JsonlEventSink(path) as sink:
            sink.emit({"i": 0})
            sink.emit({"i": 1})
        assert load_events(path) == [{"i": 0}, {"i": 1}]

    def test_explicit_flush(self, tmp_path):
        path = tmp_path / "buffered.jsonl"
        sink = JsonlEventSink(path)
        sink.emit({"i": 0})
        sink.flush()
        assert load_events(path) == [{"i": 0}]
        sink.close()


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

    def test_observe_true_is_rejected(self, trained_tiny_model, tmp_path,
                                      monkeypatch):
        model, dataset, _ = trained_tiny_model
        monkeypatch.chdir(tmp_path)
        with pytest.raises(TypeError, match="observe"):
            _campaign(model, dataset).run(self.N, observe=True)
        assert list(tmp_path.iterdir()) == []
        assert not hasattr(_campaign(model, dataset), "observer")

    def test_observe_path_writes_jsonl(self, trained_tiny_model, tmp_path,
                                       monkeypatch):
        model, dataset, _ = trained_tiny_model
        log = tmp_path / "campaign.jsonl"
        campaign = _campaign(model, dataset)
        closed = []
        close = JsonlEventSink.close

        def recording_close(sink):
            closed.append(sink.path)
            close(sink)

        monkeypatch.setattr(JsonlEventSink, "close", recording_close)
        result = campaign.run(self.N, observe=log)
        assert closed == [log]  # the run closes the tracer it built
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
            campaign.run(self.N, observe=PropagationTracer())

    def test_coerce_tracer_validates(self, tmp_path):
        assert coerce_tracer(None) is None
        tracer = PropagationTracer()
        assert coerce_tracer(tracer) is tracer
        built = coerce_tracer(tmp_path / "x.jsonl")
        assert isinstance(built.sink, JsonlEventSink)
        assert built.sink.path == tmp_path / "x.jsonl"
        for bad in (True, False, 3.14):
            with pytest.raises(TypeError, match="observe"):
                coerce_tracer(bad)


class TestInterruptedObservedRun:
    """A gracefully interrupted run writes the events of every chunk it
    folded; the journal resume appends the rest."""

    N = 64

    @pytest.mark.parametrize("workers", [
        1,
        pytest.param(2, marks=pytest.mark.skipif(
            "fork" not in multiprocessing.get_all_start_methods(),
            reason="fork start method unavailable")),
    ])
    def test_interrupted_log_holds_the_folded_injections(self, tmp_path, workers):
        def interrupt(done, total):
            if done >= 24:
                raise KeyboardInterrupt

        log = tmp_path / "observe.jsonl"
        journal = tmp_path / "run.journal"
        with pytest.raises(CampaignInterrupted) as excinfo:
            _smoke_campaign().run(self.N, workers=workers, journal=journal,
                                  observe=log, progress=interrupt)
        partial = excinfo.value.partial
        assert 24 <= partial["completed_injections"] < self.N
        events = load_events(log)
        injections = [e["index"] for e in events if e["type"] == "injection"]
        assert len(injections) == partial["completed_injections"]
        assert injections == sorted(injections)  # plan order
        assert [e["type"] for e in events].count("campaign_end") == 0

        result = _smoke_campaign().run(self.N, workers=workers, journal=journal,
                                       observe=log)
        events = load_events(log)
        indices = sorted(e["index"] for e in events if e["type"] == "injection")
        assert indices == list(range(self.N))
        assert aggregate(events)["summary"]["injections"] == self.N
        assert aggregate(events)["summary"]["corruptions"] == result.corruptions


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
