"""Differential tests for the resume replay's early exit.

A chain replay drops a row from the batch once it is bitwise equal to its
cached clean row at a segment boundary past the chunk's deepest site, and
feeds it its cached clean head input.  The oracle is the ``resume=False``
campaign: full forwards that run no replay code.  Every lane row (floats
compared as bytes), per-layer tally and RNG end state must match it, on
every chain registry model and through lanes, workers, a journal restart
and a starved cache.  Under an observer rows still exit and its events do
not change.  The engine-level tests pin the head rule, the bitwise
compare and the rows that must stay.
"""

import json
import multiprocessing
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from repro import models
from repro.campaign import (
    CampaignInterrupted,
    CampaignResumeEngine,
    InjectionCampaign,
    InjectionTrace,
    load_journal,
)
from repro.core import FaultInjection, Identity, SingleBitFlip
from repro.data import SelfLabelledDataset, SyntheticClassification
from repro.observe import PropagationTracer
from repro.scenario import ResidentFaultSet, ResidentWeightFault
from repro.tensor import Tensor, no_grad

CHAIN_MODELS = ("alexnet", "vgg19", "resnet18", "resnet50", "resnext", "resnet110")

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable")


def _net(name):
    net = models.get_model(name, "cifar10", scale="smoke", rng=0)
    net.eval()
    dataset = SelfLabelledDataset(
        net, SyntheticClassification(num_classes=10, image_size=32, seed=5))
    return net, dataset


def _campaign(net, dataset, **kwargs):
    kwargs.setdefault("error_model", SingleBitFlip())
    return InjectionCampaign(net, dataset, batch_size=16, pool_size=32, rng=11,
                             **kwargs)


def _lane_rows(trace):
    """Every lane row, floats as their IEEE-754 bytes (NaN == NaN, -0.0 != 0.0)."""
    return [(e.index, e.layer, e.coords, e.batch_slot, e.label, e.predicted,
             e.corrupted, struct.pack("<d", e.margin_before),
             struct.pack("<d", e.margin_after)) for e in trace]


def _outcomes(campaign, n, **run_kwargs):
    trace = InjectionTrace()
    result = campaign.run(n, trace=trace, **run_kwargs)
    return (_lane_rows(trace), result.per_layer_injections.tolist(),
            result.per_layer_corruptions.tolist(),
            repr(campaign.rng.bit_generator.state))


@pytest.fixture(scope="module")
def resnet18():
    return _net("resnet18")


@pytest.fixture(scope="module")
def oracle_256(resnet18):
    """The resnet18 neuron campaign's outcomes from full forwards."""
    return _outcomes(_campaign(*resnet18, resume=False), 256)


class TestMatchesFullForwards:
    @pytest.mark.parametrize("name", CHAIN_MODELS)
    def test_neuron_campaign(self, name):
        net, dataset = _net(name)
        campaign = _campaign(net, dataset)
        assert campaign._resume.chain
        got = _outcomes(campaign, 256)
        assert got == _outcomes(_campaign(net, dataset, resume=False), 256)
        if name == "resnet18":
            assert campaign.perf.segment_rows_skipped > 0

    @pytest.mark.parametrize("name", ("alexnet", "resnet18"))
    def test_weight_lanes(self, name):
        net, dataset = _net(name)
        campaign = _campaign(net, dataset, target="weight")
        got = _outcomes(campaign, 128)
        assert got == _outcomes(_campaign(net, dataset, target="weight",
                                          resume=False), 128)
        assert campaign.perf.segment_rows_skipped > 0

    @needs_fork
    def test_two_workers(self, resnet18, oracle_256):
        campaign = _campaign(*resnet18)
        assert _outcomes(campaign, 256, workers=2) == oracle_256
        assert campaign.perf.segment_rows_skipped > 0

    def test_starved_cache_keeps_evicted_rows(self, resnet18, oracle_256):
        campaign = _campaign(*resnet18, resume_budget_bytes=64 * 1024)
        assert _outcomes(campaign, 256) == oracle_256
        assert campaign.perf.cache_evictions > 0

    def test_journal_kill_and_resume(self, resnet18, oracle_256, tmp_path,
                                     monkeypatch):
        from repro.campaign.runner import _CampaignRun

        fold = _CampaignRun.fold

        def killed_after_three(self, cid, record, *args, **kwargs):
            folded = fold(self, cid, record, *args, **kwargs)
            if folded and len(self.done) == 3:
                raise KeyboardInterrupt
            return folded

        path = tmp_path / "j.jsonl"
        monkeypatch.setattr(_CampaignRun, "fold", killed_after_three)
        with pytest.raises(CampaignInterrupted):
            _campaign(*resnet18).run(256, journal=path)
        monkeypatch.setattr(_CampaignRun, "fold", fold)
        assert len(load_journal(path)[1]) == 3
        assert _outcomes(_campaign(*resnet18), 256, journal=path) == oracle_256

    def test_journal_records_without_the_counter_resume(self, resnet18,
                                                        oracle_256, tmp_path):
        """Records written before ``segment_rows_skipped`` existed still fold."""
        from repro.campaign.recovery import _checksum

        path = tmp_path / "j.jsonl"
        _campaign(*resnet18).run(256, journal=path)
        lines = []
        for line in path.read_text().splitlines()[:4]:  # header + 3 chunks
            record = json.loads(line)
            if record["type"] == "chunk_done":
                del record["perf"]["segment_rows_skipped"]
                record["crc"] = _checksum(record)
            lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        path.write_text("\n".join(lines) + "\n")
        assert _outcomes(_campaign(*resnet18), 256, journal=path) == oracle_256


class TestObserver:
    def test_rows_exit_and_the_observe_log_is_unchanged(self, resnet18,
                                                         oracle_256):
        """Rows leave the batch under an observer too; it fills their
        activations in from its clean references, so every event equals
        that of a replay in which no row leaves."""
        events = {}
        for exits in (True, False):
            observed = _campaign(*resnet18)
            if not exits:
                observed._resume._last_exit = -1  # no boundary to leave at
            tracer = PropagationTracer()
            assert _outcomes(observed, 256, observe=tracer) == oracle_256
            assert (observed.perf.segment_rows_skipped > 0) is exits
            events[exits] = [
                {k: v for k, v in event.items() if k not in ("latency_s", "perf")}
                for event in tracer.events]
        assert events[True] == events[False]
        assert any(event.get("divergence") for event in events[True])


@pytest.fixture
def clean():
    """A resnet18 engine holding the clean rows of pool elements 0-3, with
    those rows' segment boundaries and logits."""
    net, _ = _net("resnet18")
    fi = FaultInjection(net, batch_size=4, input_shape=(3, 32, 32), rng=0)
    engine = CampaignResumeEngine(fi)
    x = np.random.default_rng(1).normal(size=(4, 3, 32, 32)).astype(np.float32)
    out, boundaries, acts = engine.capture(Tensor(x))
    engine.store_rows(range(4), range(4), boundaries, acts)
    return SimpleNamespace(engine=engine, boundaries=boundaries, logits=out.data,
                           head=engine.segmented.num_segments - 1)


def _replay(clean, layers, pool_indices=range(4)):
    """Replay the four clean rows from the segment of ``layers[0]`` with
    sites at ``layers`` (no hooks attached); True if the logits are bitwise
    the full forward's."""
    s = clean.engine._segment_of_layer[layers[0]]
    with no_grad():
        logits = clean.engine.replay(s, Tensor(clean.boundaries[s]),
                                     list(pool_indices), list(layers)).data
    return logits.tobytes() == clean.logits.tobytes()


class TestEngine:
    def test_chunk_whose_every_row_exits_matches_full_forward(self, clean):
        assert _replay(clean, [0] * 4)
        # Every row leaves at the first boundary past layer 0's segment.
        first = clean.engine._segment_of_layer[0] + 1
        assert clean.engine.segment_rows_skipped == 4 * (clean.head - first)

    def test_rows_without_cached_clean_rows_stay(self, clean):
        # Pool element 4 has no cached rows: clean batch row 3, filed under
        # it, cannot be compared, so it runs every segment.
        assert _replay(clean, [0] * 4, [0, 1, 2, 4])
        first = clean.engine._segment_of_layer[0] + 1
        assert clean.engine.segment_rows_skipped == 3 * (clean.head - first)

    def test_deepest_site_segment_bounds_the_exit(self, clean):
        # A site at the last layer leaves no boundary to exit at.
        assert _replay(clean, [0, 0, 0, clean.engine.fi.num_layers - 1])
        assert clean.engine.segment_rows_skipped == 0

    def test_negative_zero_does_not_count_as_clean(self, clean):
        cache = clean.engine.cache
        layer = 1  # its segment ends in a ReLU: the boundary after it has zeros
        first = clean.engine._segment_of_layer[layer] + 1
        ref = cache.peek(("seg", first, 0))
        zero = np.flatnonzero(ref.reshape(-1) == 0)[0]
        signed = ref.copy()
        signed.reshape(-1)[zero] = -signed.reshape(-1)[zero]
        assert np.array_equal(signed, ref)  # equal as floats ...
        cache.put(("seg", first, 0), signed)
        assert _replay(clean, [layer] * 4)
        # ... but row 0 only leaves one boundary later.
        assert clean.engine.segment_rows_skipped == 4 * (clean.head - first) - 1

    def test_nan_payloads_compare_by_bits(self, clean):
        engine = clean.engine
        quiet = np.array([np.nan], dtype=np.float32)
        other = (quiet.view(np.uint32) | np.uint32(1)).view(np.float32)
        for pool_index, ref in enumerate((quiet, other, quiet)):
            engine.cache.put(("seg", 1, pool_index), ref)
        data = np.stack([quiet, quiet, other])
        assert engine._clean_rows(data, 1, [0, 1, 2]).tolist() == [True, False, False]
        assert engine._clean_rows(data, 1, [None, 7, 0]).tolist() == [False] * 3


class TestHeadRule:
    def test_exited_rows_take_the_resident_models_logits(self, resnet18,
                                                         monkeypatch):
        net, dataset = resnet18
        # Transient model Identity: every row is clean and leaves the batch
        # at the first boundary; the head then sees cached rows only.
        campaign = _campaign(net, dataset, error_model=Identity(), layer=0)
        fi = campaign.fi
        weight = fi.layer(0).weight_shape
        resident = ResidentFaultSet([
            ResidentWeightFault(0, (o,) + (0,) * (len(weight) - 1), 25, 1)
            for o in range(weight[0])])
        chunks = []
        replay = campaign._resume.replay

        def spy(seg_index, boundary, pool_indices, site_layers=None):
            logits = replay(seg_index, boundary, pool_indices, site_layers)
            chunks.append((np.asarray(pool_indices), logits.data.copy()))
            return logits

        monkeypatch.setattr(campaign._resume, "replay", spy)
        campaign.run(64, resident=resident)
        head = campaign._resume.segmented.num_segments - 1
        assert campaign.perf.segment_rows_skipped == 64 * (head - 1)
        resident.apply(fi)
        try:
            with no_grad(), np.errstate(all="ignore"):
                want = [fi.model(Tensor(campaign.pool_images[idx])).data
                        for idx, _ in chunks]
        finally:
            resident.restore()
        for (idx, got), full in zip(chunks, want):
            assert got.tobytes() == full.tobytes()
        assert any(not np.array_equal(got, campaign.pool_logits[idx])
                   for idx, got in chunks)
