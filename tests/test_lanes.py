"""Lane-packed batched injection: equivalence against the serial oracle.

The planner packs *compatible* injection sites into batch lanes of one
forward — weight sites freely (per-lane weight deltas), neuron sites on
chain models by shared truncation segment, neuron sites on branchy models
by layer.  The contract is that packing is pure mechanism: a packed
campaign must be *scientifically* indistinguishable from the serial
one-injection-per-forward oracle (``lane_packing=False``) — identical
corruption outcomes, per-layer tallies, and RNG stream.

Raw float margins are deliberately NOT compared across packing modes:
the 2-D Linear head's BLAS blocking is batch-shape-dependent (last-bit
logit differences between a batch-1 and a batch-8 forward), while every
conv layer is bitwise row-stable at any batch size.  Discrete outcomes
are therefore the oracle contract; same-shape comparisons (resume on vs
off, serial vs workers=N) remain fully bitwise and are asserted
elsewhere.
"""

import json
import multiprocessing

import numpy as np
import pytest

from repro import models, tensor
from repro.campaign import InjectionCampaign
from repro.campaign.recovery import JournalMismatchError, load_journal
from repro.core import SingleBitFlip, StuckAt
from repro.data import SelfLabelledDataset, SyntheticClassification
from repro.scenario import compile_scenario, load_scenario, run_scenario

REGISTRY = sorted(models.BUILDERS)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")

#: Perf fields that legally differ between timing runs.
_WALL_CLOCK = ("elapsed_seconds", "injections_per_sec")


def registry_campaign(name, target, lane_packing, seed=5, rng=9,
                      batch_size=4, pool_size=16):
    """A smoke-scale campaign on a registry model, self-labelled."""
    tensor.manual_seed(seed)
    net = models.get_model(name, "cifar10", scale="smoke", rng=tensor.spawn(1))
    net.eval()
    dataset = SelfLabelledDataset(
        net, SyntheticClassification(num_classes=10, image_size=32,
                                     seed=seed + 1))
    error_model = StuckAt(1e20) if target == "weight" else SingleBitFlip()
    return InjectionCampaign(net, dataset, error_model=error_model,
                             batch_size=batch_size, pool_size=pool_size,
                             rng=rng, target=target,
                             lane_packing=lane_packing)


def science(campaign, result):
    """Everything the oracle contract covers, as one comparable tuple."""
    return (
        int(result.injections),
        int(result.corruptions),
        result.per_layer_injections.tolist(),
        result.per_layer_corruptions.tolist(),
        campaign.rng.bit_generator.state,
    )


def perf_science(campaign):
    d = campaign.perf.as_dict()
    for key in _WALL_CLOCK:
        d.pop(key)
    return d


# ---------------------------------------------------------------------- #
# Packed vs unpacked: every registry model, both targets
# ---------------------------------------------------------------------- #

class TestPackedMatchesOracle:
    N = 8

    @pytest.mark.parametrize("name", REGISTRY)
    @pytest.mark.parametrize("target", ["neuron", "weight"])
    def test_discrete_outcomes_identical(self, name, target):
        packed = registry_campaign(name, target, lane_packing=True)
        packed_result = packed.run(self.N)
        oracle = registry_campaign(name, target, lane_packing=False)
        oracle_result = oracle.run(self.N)
        assert science(packed, packed_result) == science(oracle, oracle_result)
        assert oracle.perf.forwards == self.N
        assert oracle.perf.forwards_saved == 0
        assert packed.perf.forwards <= oracle.perf.forwards
        assert (packed.perf.forwards + packed.perf.forwards_saved
                == oracle.perf.forwards)
        if target == "weight":
            # Weight sites are all mutually compatible: full batch packing.
            assert packed.perf.forwards == -(-self.N // packed.fi.batch_size)

    def test_unpacked_plans_singleton_chunks(self):
        campaign = registry_campaign("resnet18", "neuron", lane_packing=False)
        _, layers, *_ = campaign._plan(self.N)
        assert campaign._chunks(np.asarray(layers), self.N) == [
            [p] for p in range(self.N)]

    def test_chain_model_packs_across_layers_within_segment(self):
        """Cross-input grouping: neuron sites in different layers of the
        same truncation segment share one forward."""
        campaign = registry_campaign("resnet18", "neuron", lane_packing=True,
                                     batch_size=8, pool_size=32)
        assert campaign._lane_groups is not None
        n = 64
        _, layers, *_ = campaign._plan(n)
        layers = np.asarray(layers)
        chunks = campaign._chunks(layers, n)
        assert sum(len(c) for c in chunks) == n
        assert any(len({int(layers[p]) for p in chunk}) > 1
                   for chunk in chunks)
        for chunk in chunks:
            groups = {campaign._lane_groups[int(layers[p])] for p in chunk}
            assert len(groups) == 1  # never packs across a truncation point


# ---------------------------------------------------------------------- #
# Scenario families
# ---------------------------------------------------------------------- #

def scenario_config(family, lane_packing):
    base = {
        "name": f"lanes-{family}",
        "family": family,
        "seed": 3,
        "model": {"name": "resnet18", "dataset": "cifar10", "scale": "smoke"},
        "campaign": {"batch_size": 8, "pool_size": 32,
                     "lane_packing": lane_packing},
    }
    base[family] = {
        "transient": {"injections": 24},
        "rate": {"ber": 2e-5, "exposures": 2, "max_injections": 24},
        "persistent": {"faults": 3, "stuck": 1, "evaluations": 12},
        "accumulated": {"counts": [0, 2], "stuck": 1, "evaluations": 8},
    }[family]
    return base


class TestScenarioFamilies:
    @pytest.mark.parametrize("family",
                             ["transient", "rate", "persistent", "accumulated"])
    def test_packed_matches_unpacked(self, family):
        outcomes = {}
        for lane_packing in (True, False):
            compiled = compile_scenario(
                load_scenario(scenario_config(family, lane_packing)))
            assert compiled.campaign.lane_packing is lane_packing
            result = run_scenario(compiled)
            assert result.injections > 0  # a vacuous family proves nothing
            outcomes[lane_packing] = (
                [(p.label, p.injections, p.corruptions) for p in result.points],
                compiled.campaign.rng.bit_generator.state,
            )
            saved = compiled.campaign.perf.forwards_saved
            if lane_packing:
                assert result.forwards_saved == saved
                row = result.as_dict()
                assert row["forwards"] == compiled.campaign.perf.forwards
                assert row["lanes"] == pytest.approx(
                    compiled.campaign.perf.mean_lane_occupancy)
            else:
                assert saved == 0
                assert compiled.campaign.perf.forwards == result.injections
        assert outcomes[True] == outcomes[False]

    @pytest.mark.parametrize("family", ["persistent", "accumulated"])
    def test_resident_families_actually_pack(self, family):
        """Weight-target families pack evaluations batch_size at a time."""
        compiled = compile_scenario(
            load_scenario(scenario_config(family, True)))
        result = run_scenario(compiled)
        assert result.forwards_saved > 0
        for point in result.points:
            if point.injections:
                batch = compiled.campaign.fi.batch_size
                assert point.forwards == -(-point.injections // batch)
                assert point.as_dict()["injections_per_forward"] > 1.0


# ---------------------------------------------------------------------- #
# Parallel execution
# ---------------------------------------------------------------------- #

@needs_fork
class TestPackedParallel:
    def test_workers4_matches_serial_packed_and_oracle(self):
        serial = registry_campaign("resnet18", "weight", lane_packing=True,
                                   batch_size=8, pool_size=32)
        serial_result = serial.run(32)
        fleet = registry_campaign("resnet18", "weight", lane_packing=True,
                                  batch_size=8, pool_size=32)
        fleet_result = fleet.run(32, workers=4)
        assert science(fleet, fleet_result) == science(serial, serial_result)
        assert perf_science(fleet) == perf_science(serial)
        oracle = registry_campaign("resnet18", "weight", lane_packing=False,
                                   batch_size=8, pool_size=32)
        oracle_result = oracle.run(32)
        assert science(fleet, fleet_result) == science(oracle, oracle_result)
        assert fleet.perf.forwards == 4
        assert fleet.perf.forwards_saved == 28

    def test_workers4_neuron_packed(self):
        serial = registry_campaign("resnet18", "neuron", lane_packing=True,
                                   batch_size=8, pool_size=32)
        serial_result = serial.run(32)
        fleet = registry_campaign("resnet18", "neuron", lane_packing=True,
                                  batch_size=8, pool_size=32)
        fleet_result = fleet.run(32, workers=4)
        assert science(fleet, fleet_result) == science(serial, serial_result)
        assert perf_science(fleet) == perf_science(serial)


# ---------------------------------------------------------------------- #
# Journal resume, mid-lane
# ---------------------------------------------------------------------- #

class TestLaneJournal:
    def _run(self, lane_packing, journal=None, n=24):
        campaign = registry_campaign("resnet18", "weight",
                                     lane_packing=lane_packing,
                                     batch_size=8, pool_size=32)
        result = campaign.run(n, journal=journal)
        return campaign, result

    def test_resume_mid_lane_matches_undisturbed(self, tmp_path):
        base, base_result = self._run(True)

        # Journal a full packed run, then truncate to the header plus the
        # first chunk record: the resumed run restarts at a lane boundary.
        path = tmp_path / "j.jsonl"
        self._run(True, journal=path)
        lines = path.read_text().splitlines()
        assert json.loads(lines[-1])["type"] == "journal_end"
        path.write_text("\n".join(lines[:2]) + "\n")

        resumed, result = self._run(True, journal=path)
        assert science(resumed, result) == science(base, base_result)
        # Replayed chunk perf folds in from the journal: the ledger is
        # indistinguishable from the undisturbed run's.
        assert perf_science(resumed) == perf_science(base)
        _, chunks, complete = load_journal(path)
        assert complete and len(chunks) == 3

    def test_journal_records_carry_per_lane_tallies(self, tmp_path):
        path = tmp_path / "j.jsonl"
        campaign, result = self._run(True, journal=path)
        _, chunks, _ = load_journal(path)
        folded = np.zeros(campaign.fi.num_layers, dtype=np.int64)
        folded_cor = np.zeros(campaign.fi.num_layers, dtype=np.int64)
        positions = []
        for record in chunks.values():
            # Lane rows are the record's only per-injection data.
            assert "tallies" not in record and "positions" not in record
            rows = record["trace_events"]
            assert len(rows) == record["injections"]
            assert [row["batch_slot"] for _, row in rows] == list(range(len(rows)))
            assert sum(row["corrupted"] for _, row in rows) == record["corruptions"]
            for position, row in rows:
                positions.append(position)
                folded[row["layer"]] += 1
                folded_cor[row["layer"]] += row["corrupted"]
        assert sorted(positions) == list(range(24))
        assert folded.tolist() == result.per_layer_injections.tolist()
        assert folded_cor.tolist() == result.per_layer_corruptions.tolist()

    def test_packing_mode_is_part_of_the_fingerprint(self, tmp_path):
        """A packed journal cannot silently resume an unpacked run (and
        vice versa) — the chunk layouts differ, so the fingerprint must."""
        path = tmp_path / "j.jsonl"
        self._run(True, journal=path)
        with pytest.raises(JournalMismatchError):
            self._run(False, journal=path)
