"""Tests for campaign statistics, criteria, and the campaign runner."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.campaign import (
    CampaignResult,
    ConfidenceDrop,
    InjectionCampaign,
    Proportion,
    Top1Misclassification,
    Top1NotInTopK,
    as_criterion,
    normal_interval,
    required_trials,
    wilson_interval,
)
from repro import nn
from repro.core import SingleBitFlip, StuckAt
from repro.data import SelfLabelledDataset


class TestStats:
    def test_wilson_contains_point_estimate(self):
        low, high = wilson_interval(10, 100, 0.99)
        assert low < 0.1 < high

    def test_wilson_zero_successes(self):
        low, high = wilson_interval(0, 50, 0.99)
        assert low == 0.0
        assert 0 < high < 0.25

    def test_wilson_all_successes(self):
        low, high = wilson_interval(50, 50, 0.99)
        assert high == 1.0
        assert 0.75 < low < 1.0

    def test_wilson_narrower_with_more_trials(self):
        narrow = wilson_interval(100, 10000, 0.99)
        wide = wilson_interval(1, 100, 0.99)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_confidence_ordering(self):
        low99 = wilson_interval(10, 100, 0.99)
        low90 = wilson_interval(10, 100, 0.90)
        assert (low99[1] - low99[0]) > (low90[1] - low90[0])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
        with pytest.raises(ValueError, match="confidence"):
            wilson_interval(1, 10, confidence=0.5)

    def test_normal_interval_symmetric(self):
        low, high = normal_interval(50, 100, 0.95)
        assert low == pytest.approx(1 - high, abs=1e-9)

    def test_required_trials_matches_paper_regime(self):
        # ~1% SDC rate measured to +/-0.2% at 99% needs tens of thousands.
        n = required_trials(0.01, 0.002, 0.99)
        assert 10_000 < n < 50_000

    def test_proportion_str(self):
        p = Proportion(5, 100)
        text = str(p)
        assert "5/100" in text and "99%" in text

    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=1000))
    def test_wilson_bounds_are_probabilities(self, successes, trials):
        successes = min(successes, trials)
        low, high = wilson_interval(successes, trials)
        assert 0.0 <= low <= successes / trials <= high <= 1.0


class TestCriteria:
    def test_top1_flags_changed_argmax(self):
        criterion = Top1Misclassification()
        logits = np.array([[0.9, 0.1], [0.2, 0.8]], dtype=np.float32)
        flags = criterion(logits, np.array([0, 0]))
        np.testing.assert_array_equal(flags, [False, True])

    def test_top1_not_in_topk(self):
        criterion = Top1NotInTopK(k=2)
        logits = np.array([[5.0, 4.0, 3.0, 0.0], [5.0, 4.0, 3.0, 0.0]], dtype=np.float32)
        flags = criterion(logits, np.array([1, 3]))
        np.testing.assert_array_equal(flags, [False, True])

    def test_topk_k_larger_than_classes(self):
        criterion = Top1NotInTopK(k=10)
        logits = np.array([[1.0, 0.0]], dtype=np.float32)
        assert not criterion(logits, np.array([1]))[0]

    def test_topk_invalid_k(self):
        with pytest.raises(ValueError):
            Top1NotInTopK(k=0)

    def test_confidence_drop(self):
        criterion = ConfidenceDrop(threshold=0.2)
        baseline = np.array([[4.0, 0.0]], dtype=np.float32)  # ~98% on class 0
        perturbed = np.array([[0.0, 0.0]], dtype=np.float32)  # 50%
        flags = criterion(perturbed, np.array([0]), baseline)
        assert flags[0]
        flags = criterion(baseline, np.array([0]), baseline)
        assert not flags[0]

    def test_confidence_drop_requires_baseline(self):
        criterion = ConfidenceDrop()
        with pytest.raises(ValueError, match="baseline"):
            criterion(np.zeros((1, 2)), np.array([0]))

    @pytest.mark.parametrize("criterion", [Top1Misclassification(), Top1NotInTopK(k=2),
                                           ConfidenceDrop()],
                             ids=["top1", "top1_top2", "confidence"])
    @pytest.mark.parametrize("bad", [np.nan, -np.nan, np.inf, -np.inf],
                             ids=["nan", "neg-nan", "inf", "neg-inf"])
    def test_non_finite_row_is_corrupted(self, criterion, bad):
        # A NaN or +inf sits at the label, where argmax reports it; a -inf
        # sits off the label, where neither argmax nor softmax notices it.
        baseline = np.array([[4.0, 1.0, 0.0], [4.0, 1.0, 0.0]], dtype=np.float32)
        perturbed = baseline.copy()
        perturbed[0, 2 if bad == -np.inf else 0] = bad
        flags = criterion(perturbed, np.array([0, 0]), baseline)
        np.testing.assert_array_equal(flags, [True, False])

    def test_as_criterion(self):
        assert isinstance(as_criterion("top1"), Top1Misclassification)
        assert isinstance(as_criterion("top1_top5"), Top1NotInTopK)
        fn = Top1Misclassification()
        assert as_criterion(fn) is fn
        with pytest.raises(ValueError, match="unknown criterion"):
            as_criterion("nope")


class TestCampaign:
    def test_campaign_runs_and_counts(self, trained_tiny_model):
        model, dataset, accuracy = trained_tiny_model
        assert accuracy > 0.8
        campaign = InjectionCampaign(model, dataset, error_model=SingleBitFlip(),
                                     batch_size=8, pool_size=64, rng=0,
                                     network_name="tiny")
        result = campaign.run(64)
        assert result.injections == 64
        assert 0 <= result.corruptions <= 64
        assert result.per_layer_injections.sum() == 64

    def test_pool_only_contains_correct(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        campaign = InjectionCampaign(model, dataset, batch_size=4, pool_size=64, rng=1)
        from repro.tensor import Tensor, no_grad

        with no_grad():
            preds = model(Tensor(campaign.pool_images)).data.argmax(axis=1)
        np.testing.assert_array_equal(preds, campaign.pool_labels)

    def test_catastrophic_error_model_corrupts_everything(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        campaign = InjectionCampaign(
            model, dataset, error_model=StuckAt(1e30), batch_size=8, pool_size=64,
            rng=2, layer=0,
        )
        result = campaign.run(32)
        # A 1e30 neuron in the first conv makes logits NaN/inf: argmax lands on
        # class 0 for all, so nearly every non-class-0 input misclassifies.
        assert result.corruptions > 0

    def test_layer_restriction(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        campaign = InjectionCampaign(model, dataset, batch_size=4, pool_size=64,
                                     layer=1, rng=3)
        result = campaign.run(16)
        assert result.per_layer_injections[1] == 16
        assert result.per_layer_injections[0] == 0

    def test_model_left_pristine(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        campaign = InjectionCampaign(model, dataset, batch_size=4, pool_size=32, rng=4)
        campaign.run(8)
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(param.data, before[name])
        assert all(len(m._forward_hooks) == 0 for m in model.modules())

    def test_deterministic_given_seed(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        results = []
        for _ in range(2):
            campaign = InjectionCampaign(model, dataset, error_model=SingleBitFlip(),
                                         batch_size=8, pool_size=64, rng=77)
            results.append(campaign.run(48).corruptions)
        assert results[0] == results[1]

    def test_zero_injections_rejected(self, tiny_dataset):
        from repro import nn

        model = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1),
                              nn.GlobalAvgPool2d(), nn.Flatten())
        campaign = InjectionCampaign(model, tiny_dataset, batch_size=2, pool_size=32,
                                     rng=5)
        with pytest.raises(ValueError, match="n_injections"):
            campaign.run(0)

    def test_result_str_and_layer_vulnerability(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        campaign = InjectionCampaign(model, dataset, batch_size=4, pool_size=32,
                                     rng=6, network_name="tiny")
        result = campaign.run(8)
        assert "tiny" in str(result)
        for layer in range(campaign.fi.num_layers):
            vulnerability = result.layer_vulnerability(layer)
            if result.per_layer_injections[layer]:
                assert vulnerability is not None
            else:
                assert vulnerability is None


class _BatchProbe(nn.Module):
    """Copying layer recording the batch size of every forward through it.

    The list is class-level so it also sees the forwards of the clone a
    campaign makes of its model.
    """

    batches = []

    def forward(self, x):
        type(self).batches.append(int(x.shape[0]))
        return x + 0.0  # a fresh tensor keeps the probe in the traced chain


class TestPoolBuild:
    @pytest.mark.parametrize("resume", [True, False])
    def test_one_clean_forward_per_pool_chunk(self, tiny_dataset, resume):
        """A self-labelled pool is labelled by the screening forward itself:
        one clean forward per 64-input chunk, no separate labelling pass."""
        gen = np.random.default_rng(0)
        model = nn.Sequential(_BatchProbe(), nn.Conv2d(3, 4, 3, padding=1, rng=gen),
                              nn.ReLU(), nn.GlobalAvgPool2d(), nn.Flatten(),
                              nn.Linear(4, 4, rng=gen))
        model.eval()
        _BatchProbe.batches = []
        campaign = InjectionCampaign(model, SelfLabelledDataset(model, tiny_dataset),
                                     batch_size=4, pool_size=128, rng=0, resume=resume)
        # Forwards of 64+ rows are pool work; layer profiling runs smaller.
        assert [b for b in _BatchProbe.batches if b >= 64] == [64, 64]
        assert campaign.clean_accuracy == 1.0
        np.testing.assert_array_equal(campaign.pool_labels,
                                      campaign.pool_logits.argmax(axis=1))
