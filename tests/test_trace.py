"""Tests for the per-injection tracing facility."""

import json
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from repro.campaign import InjectionCampaign, InjectionTrace, load_journal, margin
from repro.campaign import runner as runner_mod
from repro.core import SingleBitFlip, StuckAt


class TestMargin:
    def test_positive_for_correct_confident(self):
        logits = np.array([[5.0, 1.0, 0.0]])
        assert margin(logits, np.array([0]))[0] == pytest.approx(4.0)

    def test_negative_for_misclassified(self):
        logits = np.array([[1.0, 5.0, 0.0]])
        assert margin(logits, np.array([0]))[0] == pytest.approx(-4.0)

    def test_vectorised(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0]])
        np.testing.assert_allclose(margin(logits, np.array([0, 1])), [1.0, 3.0])

    def test_non_finite_logits_give_non_finite_margins_silently(self):
        logits = np.array([[np.inf, np.inf, 0.0],   # inf - inf
                           [np.nan, 1.0, 2.0],      # NaN true logit
                           [1.0, np.inf, 0.0],      # infinite rival
                           [np.inf, 1.0, 0.0]],     # infinite true logit
                          dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = margin(logits, np.zeros(4, dtype=np.int64))
        assert np.isnan(got[0]) and np.isnan(got[1])
        assert got[2] == -np.inf and got[3] == np.inf


class TestTraceBasics:
    def _event_kwargs(self, corrupted=False, layer=0):
        return dict(layer=layer, coords=(1, 2, 3), batch_slot=0, label=1,
                    predicted=2 if corrupted else 1, corrupted=corrupted,
                    margin_before=1.5, margin_after=-0.5 if corrupted else 1.2)

    def test_record_and_len(self):
        trace = InjectionTrace()
        trace.record(**self._event_kwargs())
        trace.record(**self._event_kwargs(corrupted=True))
        assert len(trace) == 2
        assert trace.events[0].index == 0
        assert trace.events[1].index == 1

    def test_corruption_rate(self):
        trace = InjectionTrace()
        assert trace.corruption_rate() == 0.0
        trace.record(**self._event_kwargs(corrupted=True))
        trace.record(**self._event_kwargs(corrupted=False))
        assert trace.corruption_rate() == 0.5

    def test_per_layer_counts(self):
        trace = InjectionTrace()
        trace.record(**self._event_kwargs(layer=0, corrupted=True))
        trace.record(**self._event_kwargs(layer=2))
        injections, corruptions = trace.per_layer_counts(3)
        np.testing.assert_array_equal(injections, [1, 0, 1])
        np.testing.assert_array_equal(corruptions, [1, 0, 0])

    def test_margin_erosion(self):
        trace = InjectionTrace()
        trace.record(**self._event_kwargs(corrupted=True))  # 1.5 -> -0.5 = 2.0
        trace.record(**self._event_kwargs(corrupted=False))  # 1.5 -> 1.2 = 0.3
        assert trace.margin_erosion() == pytest.approx(1.15)

    def test_json_roundtrip(self, tmp_path):
        trace = InjectionTrace()
        trace.record(**self._event_kwargs(corrupted=True))
        path = trace.to_json(tmp_path / "trace.json")
        loaded = InjectionTrace.from_json(path)
        assert len(loaded) == 1
        assert loaded.events[0].coords == (1, 2, 3)
        assert loaded.events[0].corrupted

    def test_npz_export(self, tmp_path):
        trace = InjectionTrace()
        trace.record(**self._event_kwargs())
        trace.record(**self._event_kwargs(corrupted=True, layer=1))
        path = trace.to_npz(tmp_path / "trace.npz")
        with np.load(path) as archive:
            np.testing.assert_array_equal(archive["layer"], [0, 1])
            np.testing.assert_array_equal(archive["corrupted"], [False, True])
            assert archive["coords"].shape == (2, 3)

    def test_npz_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            InjectionTrace().to_npz(tmp_path / "x.npz")


class TestCampaignIntegration:
    def test_trace_matches_campaign_counts(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        trace = InjectionTrace()
        campaign = InjectionCampaign(model, dataset, error_model=SingleBitFlip(),
                                     batch_size=8, pool_size=64, rng=5)
        result = campaign.run(48, trace=trace)
        assert len(trace) == result.injections
        assert sum(e.corrupted for e in trace) == result.corruptions
        injections, corruptions = trace.per_layer_counts(campaign.fi.num_layers)
        np.testing.assert_array_equal(injections, result.per_layer_injections)
        np.testing.assert_array_equal(corruptions, result.per_layer_corruptions)

    def test_traced_margins_consistent_with_outcome(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        trace = InjectionTrace()
        campaign = InjectionCampaign(model, dataset, error_model=SingleBitFlip(),
                                     batch_size=8, pool_size=64, rng=6)
        campaign.run(64, trace=trace)
        for event in trace:
            # Clean pool inputs are correctly classified: positive margin.
            assert event.margin_before > 0
            # A corrupted outcome implies the perturbed margin went negative.
            if event.corrupted:
                assert event.margin_after < 0


def _event_json(events):
    """Events as canonical JSON: compares NaN margins by value, bit-exact."""
    return [json.dumps(asdict(e), sort_keys=True) for e in events]


class _RecordingRun(runner_mod._CampaignRun):
    """A ``_CampaignRun`` that remembers every instance built."""

    built = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.built.append(self)


def _held_rows(run):
    """How many per-injection rows the run object keeps."""
    return sum(isinstance(row, dict) and "margin_after" in row
               for value in vars(run).values() if isinstance(value, dict)
               for row in value.values())


class TestRowBuffer:
    """A run buffers per-injection rows only while a trace is attached."""

    def _run(self, model, dataset, tmp_path, monkeypatch, trace=None, name="j"):
        monkeypatch.setattr(_RecordingRun, "built", [])
        monkeypatch.setattr(runner_mod, "_CampaignRun", _RecordingRun)
        campaign = InjectionCampaign(model, dataset, error_model=SingleBitFlip(),
                                     batch_size=8, pool_size=64, rng=7)
        journal = tmp_path / f"{name}.jsonl"
        result = campaign.run(96, journal=journal, trace=trace)
        (run,) = _RecordingRun.built
        return campaign, result, run, journal

    def test_journaled_run_without_trace_holds_no_rows(self, trained_tiny_model,
                                                       tmp_path, monkeypatch):
        model, dataset, _ = trained_tiny_model
        _, result, run, journal = self._run(model, dataset, tmp_path, monkeypatch)
        assert result.injections == 96
        assert _held_rows(run) == 0
        # The rows still reach the journal: a later traced resume needs them.
        _, chunks, _ = load_journal(journal)
        assert sum(len(r["trace_events"]) for r in chunks.values()) == 96

    def test_traced_run_yields_the_full_plan_ordered_trace(
            self, trained_tiny_model, tmp_path, monkeypatch):
        model, dataset, _ = trained_tiny_model
        trace = InjectionTrace()
        _, result, run, journal = self._run(model, dataset, tmp_path,
                                            monkeypatch, trace=trace)
        assert _held_rows(run) == 96
        assert [e.index for e in trace] == list(range(96))
        _, chunks, _ = load_journal(journal)
        rows = dict(row for r in chunks.values() for row in r["trace_events"])
        assert sorted(rows) == list(range(96))
        for event in trace:
            row = dict(rows[event.index], coords=tuple(rows[event.index]["coords"]))
            assert asdict(event) == {"index": event.index, **row}
        assert sum(e.corrupted for e in trace) == result.corruptions


class TestNonFiniteRows:
    """Chunks whose logits overflow still get rows: NaN margins, no warning."""

    def _campaign(self, model, dataset, captured):
        campaign = InjectionCampaign(model, dataset, error_model=StuckAt(np.inf),
                                     batch_size=8, pool_size=32, rng=3)
        execute = campaign._execute_chunk

        def capturing(layer_idx, positions, *args, **kwargs):
            logits, skipped = execute(layer_idx, positions, *args, **kwargs)
            captured.append((list(positions), logits.copy()))
            return logits, skipped

        campaign._execute_chunk = capturing
        return campaign

    def test_rows_round_trip_through_journal_and_trace_json(
            self, trained_tiny_model, tmp_path):
        model, dataset, _ = trained_tiny_model
        captured = []
        campaign = self._campaign(model, dataset, captured)
        journal = tmp_path / "j.jsonl"
        trace = InjectionTrace()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            campaign.run(32, journal=journal, trace=trace)
        logits = np.concatenate([l for _, l in captured])
        assert np.isinf(logits).any() and np.isnan(logits).any()

        # Each row's margins are margin() of its own logits, NaN included.
        labels = {e.index: e.label for e in trace}
        for positions, chunk_logits in captured:
            expected = margin(chunk_logits, [labels[p] for p in positions])
            got = [trace.events[p].margin_after for p in positions]
            np.testing.assert_array_equal(got, expected)
        assert any(np.isnan(e.margin_after) for e in trace)

        # Journal: the stored rows are the trace, NaN margins and all.
        _, chunks, _ = load_journal(journal)
        rows = dict(row for r in chunks.values() for row in r["trace_events"])
        rebuilt = InjectionTrace()
        for p in sorted(rows):
            rebuilt.record(**dict(rows[p], coords=tuple(rows[p]["coords"])))
        assert _event_json(rebuilt) == _event_json(trace)

        # InjectionTrace JSON export round-trips the non-finite margins.
        back = InjectionTrace.from_json(trace.to_json(tmp_path / "t.json"))
        assert _event_json(back) == _event_json(trace)

        # A resume from the truncated journal rebuilds the same trace.
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:3]) + "\n")
        resumed_trace = InjectionTrace()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            self._campaign(model, dataset, []).run(32, journal=journal,
                                                   trace=resumed_trace)
        assert _event_json(resumed_trace) == _event_json(trace)
