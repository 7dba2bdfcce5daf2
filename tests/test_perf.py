"""Tests for the runtime-overhead measurement harness (Fig. 3 machinery)."""

import numpy as np
import pytest

from repro import tensor as T
from repro.perf import (
    CampaignPerfCounters,
    OverheadMeasurement,
    measure_overhead,
    sweep_batch_sizes,
    time_inference,
)


class TestTimeInference:
    def test_returns_positive_stats(self, tiny_conv_net):
        x = T.randn(1, 3, 16, 16, rng=0)
        mean, std = time_inference(tiny_conv_net, x, trials=3, warmup=1)
        assert mean > 0
        assert std >= 0

    def test_restores_training_mode(self, tiny_conv_net):
        tiny_conv_net.train()
        time_inference(tiny_conv_net, T.randn(1, 3, 16, 16, rng=0), trials=1, warmup=0)
        assert tiny_conv_net.training


class TestMeasureOverhead:
    def test_measurement_fields(self, tiny_conv_net):
        m = measure_overhead(tiny_conv_net, (3, 16, 16), trials=3, warmup=1,
                             network="tiny", dataset="unit", rng=0)
        assert isinstance(m, OverheadMeasurement)
        assert m.network == "tiny"
        assert m.base_mean_s > 0 and m.fi_mean_s > 0
        assert m.batch_size == 1

    def test_overhead_is_small_relative_to_inference(self, tiny_conv_net):
        m = measure_overhead(tiny_conv_net, (3, 16, 16), trials=10, warmup=2, rng=1)
        # The injection hook is one gather+scatter; allow generous noise
        # margins but catch anything pathological (e.g. per-call deepcopy).
        assert m.fi_mean_s < m.base_mean_s * 3

    def test_no_hooks_left_after_measurement(self, tiny_conv_net):
        measure_overhead(tiny_conv_net, (3, 16, 16), trials=2, warmup=0, rng=2)
        assert all(len(m._forward_hooks) == 0 for m in tiny_conv_net.modules())

    def test_cuda_device_path(self, tiny_conv_net):
        m = measure_overhead(tiny_conv_net, (3, 16, 16), trials=2, warmup=0,
                             device="cuda", rng=3)
        assert m.device == "cuda"

    def test_str_contains_overhead(self, tiny_conv_net):
        m = measure_overhead(tiny_conv_net, (3, 16, 16), trials=2, warmup=0, rng=4)
        assert "overhead" in str(m)


class TestBatchSweep:
    def test_sweep_covers_requested_batches(self, tiny_conv_net):
        measurements = sweep_batch_sizes(tiny_conv_net, (3, 16, 16),
                                         batch_sizes=(1, 2), trials=2, rng=5)
        assert [m.batch_size for m in measurements] == [1, 2]

    def test_larger_batches_take_longer(self, tiny_conv_net):
        measurements = sweep_batch_sizes(tiny_conv_net, (3, 16, 16),
                                         batch_sizes=(1, 16), trials=4, rng=6)
        assert measurements[1].base_mean_s > measurements[0].base_mean_s


class TestCampaignPerfCounters:
    def _filled(self):
        return CampaignPerfCounters(
            injections=100, elapsed_seconds=4.0, forwards=25,
            resumed_forwards=20, capture_forwards=2,
            layer_forwards_executed=30, layer_forwards_skipped=70,
            cache_hits=60, cache_misses=40, cache_evictions=5,
            cache_bytes=1024, resume_enabled=True,
        )

    def test_derived_rates(self):
        perf = self._filled()
        assert perf.injections_per_sec == pytest.approx(25.0)
        assert perf.cache_hit_rate == pytest.approx(0.6)
        assert perf.fraction_layer_forwards_skipped == pytest.approx(0.7)

    def test_zero_division_edges(self):
        perf = CampaignPerfCounters()
        assert perf.injections_per_sec == 0.0
        assert perf.cache_hit_rate == 0.0
        assert perf.fraction_layer_forwards_skipped == 0.0
        perf.injections = 10
        perf.elapsed_seconds = -1.0  # pathological clock: still no crash
        assert perf.injections_per_sec == 0.0

    def test_reset_zeroes_tallies_and_keeps_config(self):
        perf = self._filled()
        result = perf.reset()
        assert result is perf
        assert perf.injections == 0
        assert perf.elapsed_seconds == 0.0
        assert perf.cache_hits == 0
        assert perf.resume_enabled is True  # configuration survives

    def test_as_dict_is_json_serialisable_and_complete(self):
        import json

        perf = self._filled()
        d = perf.as_dict()
        json.dumps(d)
        assert d["injections"] == 100
        assert d["cache_hit_rate"] == pytest.approx(0.6)
        assert d["resume_enabled"] is True

    def test_str_mentions_throughput(self):
        assert "injections" in str(self._filled())

    def test_add_folds_a_chunk_delta(self):
        perf = self._filled()
        assert perf.add({"forwards": 1, "cache_hits": 4, "cache_bytes": -24}) is perf
        assert (perf.forwards, perf.cache_hits, perf.cache_bytes) == (26, 64, 1000)

    def test_prometheus_text_renders_counters_and_gauges(self):
        """What ``repro profile --metrics-out`` writes: tallies as counters,
        rates and configuration as gauges, sorted, numbers equal to
        ``as_dict()``."""
        perf = self._filled()
        text = perf.prometheus_text()
        lines = text.splitlines()
        types = dict(line.split()[2:] for line in lines if line.startswith("# TYPE"))
        samples = dict(line.split() for line in lines if not line.startswith("#"))
        assert text.endswith("\n") and not any(line.startswith("# HELP") for line in lines)
        assert types["campaign_injections"] == "counter"
        assert types["campaign_cache_hits"] == "counter"
        assert types["campaign_injections_per_sec"] == "gauge"
        assert types["campaign_cache_bytes"] == "gauge"
        assert list(samples) == sorted(samples)
        assert samples["campaign_injections"] == "100"
        assert samples["campaign_injections_per_sec"] == "25"
        assert samples["campaign_cache_hit_rate"] == "0.6"
        assert samples["campaign_resume_enabled"] == "1"
        expected = {f"campaign_{k}": float(v) for k, v in perf.as_dict().items()}
        assert {k: float(v) for k, v in samples.items()} == expected
