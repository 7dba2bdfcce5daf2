"""Tests for checkpoint-and-resume campaign execution.

Covers the segmented-forward trace, the activation checkpoint cache, the
campaign fast path (bit-identical to full forwards for every registry
classifier, via boundary replay for chains and prefix stubbing for branchy
models), the weight-site fallback, the vectorised site samplers, the perf
counters, the pointwise-conv kernel, and the corrupt train-cache
regression.
"""

import numpy as np
import pytest

from repro import models, nn
from repro.campaign import (
    ActivationCheckpointCache,
    CampaignResumeEngine,
    InjectionCampaign,
    InjectionTrace,
)
from repro.core import (
    FaultInjection,
    SingleBitFlip,
    StuckAt,
    random_neuron_locations,
    random_weight_locations,
)
from repro.data import SelfLabelledDataset, SyntheticClassification
from repro.nn import functional as F
from repro.perf import CampaignPerfCounters
from repro.tensor import Tensor, no_grad

from .test_nn_functional import naive_conv2d

REGISTRY = sorted(models.BUILDERS)


class NonChainNet(nn.Module):
    """A model whose top-level data flow is not a module chain."""

    def __init__(self, num_classes=4):
        super().__init__()
        gen = np.random.default_rng(3)
        self.conv = nn.Conv2d(3, 3, 3, padding=1, rng=gen)
        self.head = nn.Linear(3, num_classes, rng=gen)

    def forward(self, x):
        h = self.conv(x) + x  # residual add outside any module
        pooled = h.mean(axis=(2, 3))
        return self.head(pooled)


class TestSegmentedForward:
    def test_sequential_chains_and_replays_bitwise(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        x = Tensor(dataset.sample(4, rng=0)[0])
        seg = nn.segment_model(model, x)
        assert seg.is_chain
        assert seg.num_segments == len(list(model.children()))
        with no_grad():
            reference = model(x)
            out, boundaries = seg.capture(x)
        assert np.array_equal(out.data, reference.data)
        assert len(boundaries) == seg.num_segments
        for s in range(seg.num_segments):
            with no_grad():
                replay = seg.run_from(s, boundaries[s])
            assert np.array_equal(replay.data, reference.data)

    def test_non_chain_model_reports_no_chain(self):
        model = NonChainNet()
        model.eval()
        seg = nn.segment_model(model, Tensor(np.zeros((2, 3, 8, 8), dtype=np.float32)))
        assert not seg.is_chain
        assert seg.num_segments == 0
        with pytest.raises(RuntimeError, match="chain"):
            seg.run_from(0, Tensor(np.zeros((2, 3, 8, 8), dtype=np.float32)))
        with pytest.raises(RuntimeError, match="chain"):
            seg.capture(Tensor(np.zeros((2, 3, 8, 8), dtype=np.float32)))

    def test_stub_outputs_replaces_and_restores(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        x = Tensor(dataset.sample(2, rng=1)[0])
        seg = nn.segment_model(model, x)
        conv = next(m for m in model.modules() if isinstance(m, nn.Conv2d))
        fake = Tensor(np.full((2, 8, 16, 16), 7.0, dtype=np.float32))
        with seg.stub_outputs([(conv, fake)]):
            assert conv(x) is fake
        assert "forward" not in conv.__dict__
        with no_grad():
            assert conv(x).shape == fake.shape  # real forward is back

    def test_segment_of_maps_submodules(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        seg = nn.segment_model(model, Tensor(dataset.sample(2, rng=2)[0]))
        for index, child in enumerate(model.children()):
            assert seg.segment_of(child) == index
        assert seg.segment_of(model) is None or seg.segment_of(model) == 0


class TestActivationCheckpointCache:
    def test_get_put_and_counting(self):
        cache = ActivationCheckpointCache(budget_bytes=1024)
        row = np.arange(8, dtype=np.float32)
        assert cache.get("a") is None
        assert cache.misses == 1
        assert cache.put("a", row)
        got = cache.get("a")
        np.testing.assert_array_equal(got, row)
        assert cache.hits == 1
        assert len(cache) == 1
        assert cache.bytes_used == row.nbytes

    def test_peek_does_not_count(self):
        cache = ActivationCheckpointCache(budget_bytes=1024)
        cache.put("a", np.zeros(4, dtype=np.float32))
        cache.peek("a")
        cache.peek("missing")
        assert cache.hits == 0
        assert cache.misses == 0

    def test_lru_eviction_order(self):
        row = np.zeros(16, dtype=np.float32)  # 64 bytes
        cache = ActivationCheckpointCache(budget_bytes=3 * row.nbytes)
        for key in ("a", "b", "c"):
            cache.put(key, row)
        cache.get("a")  # refresh "a": "b" becomes least recent
        cache.put("d", row)
        assert "b" not in cache
        assert all(key in cache for key in ("a", "c", "d"))
        assert cache.evictions == 1
        assert cache.bytes_used <= cache.budget_bytes

    def test_replace_updates_bytes(self):
        cache = ActivationCheckpointCache(budget_bytes=4096)
        cache.put("a", np.zeros(8, dtype=np.float32))
        cache.put("a", np.zeros(16, dtype=np.float32))
        assert len(cache) == 1
        assert cache.bytes_used == 64

    def test_oversized_row_refused(self):
        cache = ActivationCheckpointCache(budget_bytes=64)
        cache.put("small", np.zeros(4, dtype=np.float32))
        assert not cache.put("huge", np.zeros(1024, dtype=np.float32))
        assert "huge" not in cache
        assert "small" in cache  # refusal must not flush existing rows

    def test_invalid_budget(self):
        with pytest.raises(ValueError, match="budget"):
            ActivationCheckpointCache(budget_bytes=0)


@pytest.mark.parametrize("name", REGISTRY)
class TestRegistryResumeEquivalence:
    """Every registry classifier: resumed forwards == full forwards, bitwise."""

    def test_truncated_resume_matches_full_forward(self, name):
        net = models.get_model(name, "cifar10", scale="smoke", rng=0)
        net.eval()
        fi = FaultInjection(net, batch_size=2, input_shape=(3, 32, 32), rng=0)
        engine = CampaignResumeEngine(fi)
        assert engine.available, f"{name} trace could not anchor the profiled layers"
        x_np = np.random.default_rng(1).normal(size=(2, 3, 32, 32)).astype(np.float32)
        with no_grad():
            reference = net(Tensor(x_np)).data
        out, boundaries, acts = engine.capture(Tensor(x_np))
        assert np.array_equal(out.data, reference)
        engine.store_rows([0, 1], [0, 1], boundaries, acts)
        # Resume at the deepest instrumentable layer — the strongest
        # truncation: every instrumentable layer gets stubbed.
        target = fi.num_layers - 1
        plan = engine.plan_chunk(target, [0, 1], x_np)
        assert plan is not None
        seg_index, boundary, stub_pairs, skipped = plan
        assert skipped == fi.num_layers
        with no_grad():
            with engine.segmented.stub_outputs(stub_pairs):
                if seg_index is None:  # stub mode: re-run the model's forward
                    replay = net(Tensor(x_np)).data
                else:
                    replay = engine.segmented.run_from(seg_index, boundary).data
        assert np.array_equal(replay, reference)

    def test_campaign_counts_identical_resume_on_vs_off(self, name):
        net = models.get_model(name, "cifar10", scale="smoke", rng=0)
        net.eval()
        dataset = SelfLabelledDataset(net, SyntheticClassification(num_classes=10, image_size=32, seed=5))
        results = {}
        for resume in (True, False):
            campaign = InjectionCampaign(
                net, dataset, error_model=SingleBitFlip(), batch_size=4,
                pool_size=16, rng=11, resume=resume)
            result = campaign.run(8)
            results[resume] = result
            if resume:
                assert campaign.perf.resume_enabled
                assert campaign.perf.resumed_forwards == campaign.perf.forwards
        assert results[True].corruptions == results[False].corruptions
        np.testing.assert_array_equal(
            results[True].per_layer_injections, results[False].per_layer_injections)
        np.testing.assert_array_equal(
            results[True].per_layer_corruptions, results[False].per_layer_corruptions)


class TestCampaignResumePaths:
    def test_traces_identical_resume_on_vs_off(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        traces = {}
        for resume in (True, False):
            campaign = InjectionCampaign(model, dataset, error_model=SingleBitFlip(),
                                         batch_size=8, pool_size=64, rng=42, resume=resume)
            trace = InjectionTrace()
            campaign.run(96, trace=trace)
            traces[resume] = trace
        for on, off in zip(traces[True], traces[False]):
            assert (on.layer, on.coords, on.batch_slot) == (off.layer, off.coords, off.batch_slot)
            assert (on.label, on.predicted, on.corrupted) == (off.label, off.predicted, off.corrupted)
            assert on.margin_after == off.margin_after

    def test_weight_campaign_lane_packs_forwards(self, trained_tiny_model):
        """Weight campaigns pack batch_size sites per forward (regression:
        the runner used to silently fall back to one site per forward) and
        ride the resume cache — lane hooks keep the weights clean through
        the forward, so cached prefix activations stay valid."""
        model, dataset, _ = trained_tiny_model
        outcomes = {}
        for lane_packing in (True, False):
            campaign = InjectionCampaign(model, dataset, error_model=StuckAt(1e20),
                                         batch_size=8, pool_size=64, rng=9,
                                         target="weight", lane_packing=lane_packing)
            result = campaign.run(12)
            if lane_packing:
                assert campaign.perf.resume_enabled
                assert campaign.perf.forwards == 2  # ceil(12 / 8) forwards
                assert campaign.perf.forwards_saved == 10
                assert campaign.perf.mean_lane_occupancy == 6.0
                assert campaign.perf.resumed_forwards == campaign.perf.forwards
            else:
                # The unpacked oracle rewrites the weight tensor for the
                # whole forward: nothing upstream is clean, nothing resumes.
                assert campaign.perf.resume_enabled is False
                assert campaign.perf.resumed_forwards == 0
                assert campaign.perf.forwards == 12  # the serial oracle
                assert campaign.perf.forwards_saved == 0
            outcomes[lane_packing] = (result.corruptions,
                                      tuple(result.per_layer_injections.tolist()))
        assert outcomes[True] == outcomes[False]
        assert sum(outcomes[True][1]) == 12

    def test_non_chain_model_resumes_via_stubbing(self, tiny_dataset):
        """Branchy forwards still resume: prefix layers stubbed on a full re-run."""
        model = NonChainNet()
        model.eval()
        dataset = SelfLabelledDataset(model, tiny_dataset)
        results = {}
        for resume in (True, False):
            campaign = InjectionCampaign(model, dataset, batch_size=4, pool_size=16,
                                         rng=3, resume=resume)
            assert campaign.perf.resume_enabled is resume
            if resume:
                assert campaign._resume is not None
                assert not campaign._resume.chain
            results[resume] = campaign.run(8)
            if resume:
                assert campaign.perf.resumed_forwards == campaign.perf.forwards > 0
        assert results[True].injections == 8
        assert results[True].corruptions == results[False].corruptions
        np.testing.assert_array_equal(
            results[True].per_layer_corruptions, results[False].per_layer_corruptions)

    def test_tiny_budget_degrades_gracefully(self, trained_tiny_model):
        """A cache too small for even one chunk must not break correctness."""
        model, dataset, _ = trained_tiny_model
        baseline = InjectionCampaign(model, dataset, error_model=SingleBitFlip(),
                                     batch_size=8, pool_size=64, rng=21, resume=False)
        starved = InjectionCampaign(model, dataset, error_model=SingleBitFlip(),
                                    batch_size=8, pool_size=64, rng=21, resume=True,
                                    resume_budget_bytes=128)
        assert baseline.run(32).corruptions == starved.run(32).corruptions

    def test_eviction_refill_stays_correct(self, trained_tiny_model):
        """A budget that holds some rows forces refills mid-campaign."""
        model, dataset, _ = trained_tiny_model
        baseline = InjectionCampaign(model, dataset, error_model=SingleBitFlip(),
                                     batch_size=8, pool_size=64, rng=22, resume=False)
        tight = InjectionCampaign(model, dataset, error_model=SingleBitFlip(),
                                  batch_size=8, pool_size=64, rng=22, resume=True,
                                  resume_budget_bytes=64 * 1024)
        assert tight._resume is not None
        assert baseline.run(64).corruptions == tight.run(64).corruptions


class TestVectorisedSampling:
    @pytest.fixture
    def fi(self, tiny_conv_net):
        return FaultInjection(tiny_conv_net, batch_size=2, input_shape=(3, 16, 16), rng=0)

    def test_neuron_locations_within_bounds(self, fi):
        layers, coords = random_neuron_locations(fi, 200, rng=0)
        assert len(layers) == len(coords) == 200
        for layer, coord in zip(layers, coords):
            shape = fi.layer(int(layer)).neuron_shape
            assert len(coord) == len(shape)
            assert all(0 <= c < b for c, b in zip(coord, shape))

    def test_neuron_locations_deterministic(self, fi):
        a = random_neuron_locations(fi, 50, rng=7)
        b = random_neuron_locations(fi, 50, rng=7)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_proportional_prefers_big_layers(self, fi):
        layers, _ = random_neuron_locations(fi, 800, rng=1)
        counts = np.bincount(layers, minlength=fi.num_layers)
        assert counts[0] > counts[1] > 0

    def test_uniform_layer_strategy(self, fi):
        layers, _ = random_neuron_locations(fi, 600, rng=2, strategy="uniform_layer")
        counts = np.bincount(layers, minlength=fi.num_layers)
        assert (counts > 120).all()

    def test_fixed_layer(self, fi):
        layers, coords = random_neuron_locations(fi, 10, layer=1, rng=0)
        assert (layers == 1).all()
        shape = fi.layer(1).neuron_shape
        for coord in coords:
            assert all(0 <= c < b for c, b in zip(coord, shape))

    def test_rejects_bad_inputs(self, fi):
        with pytest.raises(ValueError, match="strategy"):
            random_neuron_locations(fi, 4, strategy="bogus")
        with pytest.raises(ValueError, match="n must be"):
            random_neuron_locations(fi, 0)

    def test_weight_locations_within_bounds(self, fi):
        layers, coords = random_weight_locations(fi, 100, rng=3)
        for layer, coord in zip(layers, coords):
            shape = fi.layer(int(layer)).weight_shape
            assert all(0 <= c < b for c, b in zip(coord, shape))


class TestPerfCounters:
    def test_zero_counters_are_safe(self):
        perf = CampaignPerfCounters()
        assert perf.injections_per_sec == 0.0
        assert perf.cache_hit_rate == 0.0
        assert perf.fraction_layer_forwards_skipped == 0.0

    def test_campaign_populates_counters(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        campaign = InjectionCampaign(model, dataset, error_model=SingleBitFlip(),
                                     batch_size=8, pool_size=64, rng=13)
        campaign.run(64)
        perf = campaign.perf
        assert perf.resume_enabled
        assert perf.injections == 64
        assert perf.injections_per_sec > 0
        assert perf.resumed_forwards == perf.forwards > 0
        assert perf.layer_forwards_skipped > 0
        assert 0 < perf.fraction_layer_forwards_skipped <= 1
        assert perf.cache_hits > 0
        assert perf.cache_bytes > 0
        record = perf.as_dict()
        assert record["injections"] == 64
        assert record["resume_enabled"] is True
        assert "str" not in str(perf)  # __str__ renders without error

    def test_counters_accumulate_across_runs(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        campaign = InjectionCampaign(model, dataset, batch_size=4, pool_size=32, rng=14)
        campaign.run(8)
        campaign.run(8)
        assert campaign.perf.injections == 16


class TestPointwiseConv:
    @pytest.mark.parametrize("stride,groups,bias", [
        (1, 1, True), (2, 1, True), (1, 2, False), (2, 2, True),
    ])
    def test_matches_naive_reference(self, stride, groups, bias):
        gen = np.random.default_rng(17)
        x = gen.normal(size=(2, 4, 9, 9)).astype(np.float32)
        w = gen.normal(size=(6, 4 // groups, 1, 1)).astype(np.float32)
        b = gen.normal(size=(6,)).astype(np.float32) if bias else None
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b) if bias else None,
                       stride=stride, groups=groups)
        expected = naive_conv2d(x, w, b, (stride, stride), (0, 0), groups)
        np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-5)
        assert out.dtype == np.float32

    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradients_match_generic_path(self, stride):
        """Pointwise grads vs the generic im2col path on an equivalent kernel.

        The same 1x1 kernel embedded at the centre of a 3x3 zero weight with
        padding 1 samples the identical input grid for stride 1 and 2, so
        the generic path is an exact reference (no finite-difference noise).
        """
        gen = np.random.default_rng(23)
        x_np = gen.normal(size=(2, 3, 6, 6)).astype(np.float32)
        w_np = gen.normal(size=(5, 3, 1, 1)).astype(np.float32)
        b_np = gen.normal(size=(5,)).astype(np.float32)

        x = Tensor(x_np, requires_grad=True)
        w = Tensor(w_np, requires_grad=True)
        b = Tensor(b_np, requires_grad=True)
        (F.conv2d(x, w, b, stride=stride) ** 2).sum().backward()

        x_ref = Tensor(x_np, requires_grad=True)
        w_big = np.zeros((5, 3, 3, 3), dtype=np.float32)
        w_big[:, :, 1, 1] = w_np[:, :, 0, 0]
        w_ref = Tensor(w_big, requires_grad=True)
        b_ref = Tensor(b_np, requires_grad=True)
        (F.conv2d(x_ref, w_ref, b_ref, stride=stride, padding=1) ** 2).sum().backward()

        np.testing.assert_allclose(x.grad, x_ref.grad, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(
            w.grad[:, :, 0, 0], w_ref.grad[:, :, 1, 1], rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(b.grad, b_ref.grad, rtol=1e-5, atol=1e-6)

    def test_float32_input_stays_float32_with_float64_weight(self):
        x = Tensor(np.ones((1, 2, 4, 4), dtype=np.float32))
        w = Tensor(np.ones((3, 2, 1, 1), dtype=np.float64))
        assert F.conv2d(x, w, None).dtype == np.float32
        w3 = Tensor(np.ones((3, 2, 3, 3), dtype=np.float64))
        assert F.conv2d(x, w3, None, padding=1).dtype == np.float32


class TestCorruptTrainCache:
    def test_corrupt_file_is_treated_as_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.train import cache

        spec = {"model": "unit-test", "seed": 0}
        path = cache.cache_dir() / f"{cache._key(spec)}.npz"
        path.write_bytes(b"this is not a zip archive")
        assert cache.load_state(spec) is None
        assert not path.exists()  # corrupt entry deleted for recompute

    def test_get_or_train_recovers_from_corruption(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.train import cache

        spec = {"model": "unit-test-2"}
        trained = []

        def build():
            return nn.Linear(4, 2, rng=np.random.default_rng(0))

        def train(model):
            trained.append(True)

        _, was_cached = cache.get_or_train(spec, build, train)
        assert not was_cached and len(trained) == 1
        # Corrupt the freshly written entry; the next call must retrain.
        path = cache.cache_dir() / f"{cache._key(spec)}.npz"
        path.write_bytes(b"garbage")
        _, was_cached = cache.get_or_train(spec, build, train)
        assert not was_cached and len(trained) == 2
        _, was_cached = cache.get_or_train(spec, build, train)
        assert was_cached and len(trained) == 2
