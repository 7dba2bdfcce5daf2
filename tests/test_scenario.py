"""Scenario engine tests: config validation, compile, golden equivalence,
resident (persistent) faults, accumulated sweeps, and rate-driven plans."""

import hashlib
import json

import numpy as np
import pytest

from repro import models, tensor
from repro.campaign import InjectionCampaign
from repro.campaign.recovery import JournalMismatchError
from repro.data import SelfLabelledDataset, SyntheticClassification
from repro.quant import weight_params
from repro.scenario import (
    ResidentFaultSet,
    ResidentWeightFault,
    ScenarioError,
    compile_scenario,
    load_scenario,
    run_scenario,
    sample_resident_faults,
)

MODEL = {"name": "resnet18", "dataset": "cifar10", "scale": "smoke"}
CAMPAIGN = {"batch_size": 8, "pool_size": 32}


def scenario(family, seed=0, **overrides):
    base = {
        "name": f"test-{family}",
        "family": family,
        "seed": seed,
        "model": dict(MODEL),
        "campaign": dict(CAMPAIGN),
    }
    defaults = {
        "transient": {"injections": 24},
        "rate": {"ber": 1e-6, "exposures": 2, "max_injections": 40},
        "persistent": {"faults": 3, "stuck": 1, "evaluations": 12},
        "accumulated": {"counts": [0, 2, 4], "stuck": 1, "evaluations": 8},
    }
    base[family] = defaults[family]
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            base[key] = {**base[key], **value}
        else:
            base[key] = value
    return base


def weight_checksums(campaign):
    return [hashlib.sha256(m.weight.data.tobytes()).hexdigest()
            for _, m in campaign.fi._iter_instrumentable(campaign.fi.model)]


class TestConfigValidation:
    def test_valid_config_loads(self):
        config = load_scenario(scenario("transient"))
        assert config.family == "transient"
        assert config.transient.injections == 24
        assert "transient" in config.describe()

    def test_unknown_top_level_key_is_named(self):
        bad = scenario("transient")
        bad["tranisent"] = {}
        with pytest.raises(ScenarioError, match="tranisent"):
            load_scenario(bad)

    def test_missing_family_section(self):
        bad = scenario("transient")
        del bad["transient"]
        with pytest.raises(ScenarioError, match="requires a 'transient' section"):
            load_scenario(bad)

    def test_conflicting_family_section(self):
        bad = scenario("transient")
        bad["rate"] = {"ber": 1e-9}
        with pytest.raises(ScenarioError, match="conflicts with family"):
            load_scenario(bad)

    def test_bad_value_message_names_dotted_path(self):
        bad = scenario("transient", campaign={"batch_size": 0})
        with pytest.raises(ScenarioError, match=r"campaign\.batch_size"):
            load_scenario(bad)

    def test_bad_list_element_names_index(self):
        bad = scenario("accumulated", accumulated={"counts": [1, -2]})
        with pytest.raises(ScenarioError, match=r"accumulated\.counts\[1\]"):
            load_scenario(bad)

    def test_ber_must_be_probability(self):
        bad = scenario("rate", rate={"ber": 1.5})
        with pytest.raises(ScenarioError, match=r"rate\.ber"):
            load_scenario(bad)

    def test_unknown_family(self):
        bad = scenario("transient")
        bad["family"] = "cosmic"
        with pytest.raises(ScenarioError, match="family"):
            load_scenario(bad)

    def test_resident_families_force_weight_target(self):
        config = load_scenario(scenario("persistent"))
        assert config.select.target == "weight"
        bad = scenario("persistent", select={"target": "neuron"})
        with pytest.raises(ScenarioError, match=r"select\.target"):
            load_scenario(bad)

    def test_json_file_roundtrip(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario("transient")))
        config = load_scenario(str(path))
        assert config.name == "test-transient"
        assert config.family == "transient"

    def test_yaml_file_roundtrip(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "s.yaml"
        path.write_text(yaml.safe_dump(scenario("accumulated")))
        config = load_scenario(str(path))
        assert config.family == "accumulated"
        assert config.accumulated.counts == [0, 2, 4]

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="no such scenario file"):
            load_scenario("/nonexistent/s.yaml")

    def test_unknown_model_is_rc2_material(self):
        bad = scenario("transient", model={**MODEL, "name": "nonesuch"})
        with pytest.raises(ScenarioError, match="model"):
            compile_scenario(load_scenario(bad))


class TestSelectors:
    def test_layer_subset_restricts_sampling(self):
        config = load_scenario(scenario(
            "transient", seed=1, select={"layers": [0, 2]},
            transient={"injections": 32}))
        compiled = compile_scenario(config)
        assert compiled.layers == [0, 2]
        pool_idx, layers, coords, seeds = compiled.campaign._plan(32)
        assert set(int(l) for l in layers) <= {0, 2}

    def test_channel_subset_restricts_coords(self):
        config = load_scenario(scenario(
            "transient", seed=1, select={"channels": [1, 3]},
            transient={"injections": 32}))
        compiled = compile_scenario(config)
        _, _, coords, _ = compiled.campaign._plan(32)
        assert {c[0] for c in coords} <= {1, 3}

    def test_include_glob_and_exclude(self):
        config = load_scenario(scenario(
            "transient", select={"exclude": ["conv1*"]}))
        compiled = compile_scenario(config)
        names = [compiled.campaign.fi.layer(i).name for i in compiled.layers]
        assert names and not any(n.startswith("conv1") for n in names)

    def test_empty_selection_is_precise_error(self):
        config = load_scenario(scenario(
            "transient", select={"include": ["no-such-layer*"]}))
        with pytest.raises(ScenarioError, match=r"select\.include"):
            compile_scenario(config)

    def test_channels_out_of_range_is_precise_error(self):
        config = load_scenario(scenario(
            "transient", select={"channels": [10**6]}))
        with pytest.raises(ScenarioError, match=r"select\.channels"):
            compile_scenario(config)

    def test_unrestricted_selector_resolves_to_none(self):
        compiled = compile_scenario(load_scenario(scenario("transient")))
        assert compiled.layers is None and compiled.channels is None


class TestGoldenEquivalence:
    """A declarative single-transient scenario is bitwise-identical to the
    legacy hand-built campaign: outcomes, per-layer tallies, RNG stream."""

    SEED = 3
    N = 48

    def _legacy(self, workers=1):
        tensor.manual_seed(self.SEED)
        net = models.get_model("resnet18", "cifar10", scale="smoke",
                               rng=tensor.spawn(1))
        net.eval()
        classes, size = models.dataset_preset("cifar10")
        dataset = SelfLabelledDataset(
            net, SyntheticClassification(num_classes=classes, image_size=size,
                                         seed=self.SEED + 1))
        campaign = InjectionCampaign(net, dataset, batch_size=8, pool_size=32,
                                     rng=self.SEED, network_name="resnet18")
        result = campaign.run(self.N, workers=workers)
        return campaign, result

    def _declarative(self, workers=1):
        compiled = compile_scenario(load_scenario(scenario(
            "transient", seed=self.SEED, transient={"injections": self.N})))
        result = run_scenario(compiled, workers=workers)
        return compiled.campaign, result

    @pytest.mark.parametrize("workers", [1, 4])
    def test_bitwise_identical_to_legacy_campaign(self, workers):
        legacy_campaign, legacy_result = self._legacy(workers=workers)
        scen_campaign, scen_result = self._declarative(workers=workers)
        point = scen_result.points[0]
        assert point.injections == legacy_result.injections
        assert point.corruptions == legacy_result.corruptions
        # Per-layer tallies and the generator stream match exactly.
        serial_campaign, serial_result = self._legacy()
        np.testing.assert_array_equal(
            serial_result.per_layer_corruptions,
            legacy_result.per_layer_corruptions)
        state_legacy = legacy_campaign.rng.bit_generator.state["state"]["state"]
        state_scen = scen_campaign.rng.bit_generator.state["state"]["state"]
        assert state_legacy == state_scen

    def test_per_layer_tallies_match(self):
        _, legacy_result = self._legacy()
        compiled = compile_scenario(load_scenario(scenario(
            "transient", seed=self.SEED, transient={"injections": self.N})))
        scen_result = compiled.campaign.run(self.N)
        np.testing.assert_array_equal(scen_result.per_layer_injections,
                                      legacy_result.per_layer_injections)
        np.testing.assert_array_equal(scen_result.per_layer_corruptions,
                                      legacy_result.per_layer_corruptions)


class TestResidentFaults:
    def _compiled(self, seed=5, **overrides):
        return compile_scenario(load_scenario(scenario(
            "persistent", seed=seed, **overrides)))

    def test_faults_present_during_run_and_restored_after(self):
        compiled = self._compiled()
        campaign = compiled.campaign
        resident = compiled.points[0].resident
        before = weight_checksums(campaign)
        seen = {}

        real_begin = campaign._begin_resident_session

        def spying_begin(res):
            real_begin(res)
            modules = [m for _, m in
                       campaign.fi._iter_instrumentable(campaign.fi.model)]
            for fault in resident.faults:
                value = modules[fault.layer].weight.data[fault.coords]
                from repro.core.bitflip import float_to_bits
                bit = (int(float_to_bits(np.asarray([value]))[0]) >> fault.bit) & 1
                seen[(fault.layer, fault.coords)] = bit == fault.stuck

        campaign._begin_resident_session = spying_begin
        run_scenario(compiled)
        # Bits were genuinely stuck during the run...
        assert seen and all(seen.values())
        # ...and the weights came back bitwise-identical.
        assert weight_checksums(campaign) == before

    def test_restore_is_verified_bitwise(self):
        compiled = self._compiled()
        campaign = compiled.campaign
        resident = compiled.points[0].resident
        resident.apply(campaign.fi)
        # Sabotage one unrelated weight element: restore must detect it.
        modules = [m for _, m in
                   campaign.fi._iter_instrumentable(campaign.fi.model)]
        layer = resident.faults[0].layer
        flat = modules[layer].weight.data.reshape(-1)
        flat[-1] += 1.0
        with pytest.raises(RuntimeError, match="bitwise weight restoration"):
            resident.restore()

    def test_reapply_without_restore_raises(self):
        compiled = self._compiled()
        resident = compiled.points[0].resident
        resident.apply(compiled.campaign.fi)
        with pytest.raises(RuntimeError, match="already applied"):
            resident.apply(compiled.campaign.fi)
        resident.restore()

    def test_duplicate_sites_rejected(self):
        fault = ResidentWeightFault(layer=0, coords=(0, 0, 0, 0), bit=1, stuck=1)
        with pytest.raises(ValueError, match="twice"):
            ResidentFaultSet([fault, fault])

    def test_persistent_changes_outcomes_vs_clean(self):
        # Enough stuck-at-1 exponent-range faults in float32 weights make
        # the faulted model diverge from the clean pool predictions.
        compiled = compile_scenario(load_scenario(scenario(
            "persistent", seed=5,
            persistent={"faults": 40, "stuck": 1, "bit": 30,
                        "evaluations": 16})))
        result = run_scenario(compiled)
        assert result.points[0].corruptions > 0

    def test_resident_run_is_deterministic_serial_vs_parallel(self):
        serial = run_scenario(self._compiled(seed=9))
        parallel = run_scenario(self._compiled(seed=9), workers=4)
        assert serial.as_dict()["points"] == parallel.as_dict()["points"]

    def test_resume_cache_invalidated_across_resident_changes(self):
        # The resume engine's clean-activation cache belongs to the neuron
        # path; installing or removing residents must flush it.
        compiled = compile_scenario(load_scenario(scenario(
            "transient", seed=7, transient={"injections": 8})))
        campaign = compiled.campaign
        if campaign._resume is None:
            pytest.skip("resume engine unavailable for this model")
        resident = sample_resident_faults(
            campaign.fi, 3, np.random.default_rng(7), stuck=1)
        n = 8
        first = campaign.run(n, resident=resident)
        key_after_first = campaign._resident_cache_key
        assert key_after_first == resident.fingerprint
        # Dropping the residents must clear the (stale) clean-activation
        # cache; the run under no faults still completes and re-keys.
        campaign.run(n)
        assert campaign._resident_cache_key is None
        again = campaign.run(n, resident=resident)
        assert again.corruptions == first.corruptions

    def test_journal_fingerprint_pins_resident_set(self, tmp_path):
        compiled = self._compiled(seed=11)
        campaign = compiled.campaign
        resident = compiled.points[0].resident
        journal = tmp_path / "scenario.journal"
        campaign.run(8, journal=str(journal), resident=resident)
        # Same plan, different resident set -> the journal must be refused.
        other = sample_resident_faults(
            campaign.fi, 2, np.random.default_rng(123), stuck=0)
        with pytest.raises(JournalMismatchError):
            campaign.run(8, journal=str(journal), resident=other)

    def test_observe_composes_with_residents(self, tmp_path):
        # Propagation tracing is a neuron-campaign feature; resident weight
        # faults compose with it (transient upsets in a degraded model).
        from repro.observe import load_events

        compiled = compile_scenario(load_scenario(scenario(
            "transient", seed=5, transient={"injections": 8})))
        campaign = compiled.campaign
        resident = sample_resident_faults(
            campaign.fi, 2, np.random.default_rng(5), stuck=1)
        log = tmp_path / "events.jsonl"
        campaign.run(8, observe=str(log), resident=resident)
        kinds = {event.get("type") for event in load_events(log)}
        assert "campaign_start" in kinds and "injection" in kinds


class TestSampling:
    def _fi(self):
        compiled = compile_scenario(load_scenario(scenario("persistent")))
        return compiled.campaign.fi

    def test_sample_resident_faults_deterministic(self):
        fi = self._fi()
        a = sample_resident_faults(fi, 5, np.random.default_rng(42))
        b = sample_resident_faults(fi, 5, np.random.default_rng(42))
        assert a.fingerprint == b.fingerprint
        assert [f.describe() for f in a.faults] == [f.describe() for f in b.faults]

    def test_sample_distinct_sites(self):
        fi = self._fi()
        fs = sample_resident_faults(fi, 32, np.random.default_rng(0))
        sites = {(f.layer, f.coords) for f in fs.faults}
        assert len(sites) == 32

    def test_oversampling_fails_loudly(self):
        fi = self._fi()
        # Restrict to a single tiny channel slice so k exceeds capacity.
        with pytest.raises(ValueError, match="distinct weight sites"):
            sample_resident_faults(fi, 10**6, np.random.default_rng(0))

    def test_bit_range_honours_quantization(self):
        compiled = compile_scenario(load_scenario(scenario(
            "persistent", fault={"quantize": True})))
        resident = compiled.points[0].resident
        assert resident.quantization is not None
        assert all(0 <= f.bit < 8 for f in resident.faults)

    def test_bit_range_float32_without_quantization(self):
        compiled = compile_scenario(load_scenario(scenario("persistent")))
        resident = compiled.points[0].resident
        assert resident.quantization is None
        assert all(0 <= f.bit < 32 for f in resident.faults)

    @pytest.mark.parametrize("domain, bits", [("int8", 9), ("float32", 33)])
    def test_bits_past_storage_width_rejected_before_any_draw(self, domain, bits):
        fi = self._fi()
        quantization = weight_params(fi) if domain == "int8" else None
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="exceeds the storage width"):
            sample_resident_faults(fi, 5, rng, quantization=quantization, bits=bits)
        assert rng.bit_generator.state == state


class TestLargeResidentSets:
    def test_pinned_large_k_stream(self, monkeypatch):
        """Fingerprints, set order and generator end states of an INT8
        accumulated sweep with K in the thousands under a layer and a channel
        selector (8,680 eligible cells, so K=6000 re-draws many rounds).
        The literals were computed with the per-fault sampler."""
        from repro.scenario import compile as compile_mod

        generators = []
        real = compile_mod.sample_resident_faults

        def recording(fi, k, rng, **kwargs):
            generators.append(rng)
            return real(fi, k, rng, **kwargs)

        monkeypatch.setattr(compile_mod, "sample_resident_faults", recording)
        compiled = compile_scenario(load_scenario(scenario(
            "accumulated", seed=21, fault={"quantize": True},
            select={"layers": [5, 6, 8, 12, 13, 19],
                    "channels": [0, 1, 2, 3, 5, 8, 13]},
            accumulated={"counts": [0, 1500, 6000], "stuck": 0, "evaluations": 8})))
        want = [
            (0, "6dc277b2492c056be9d92f8da2ccb0f098196f2b3fa89246e7332cb221bbbd4a",
             "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
             2965446352358091964),
            (1500, "a0cd6af2415fd8360519f93b41014a8e33797757585d2f511d9930357dfe44ee",
             "a8d9ea81eb19a3bc8ec476865e09fe417a773c2660c00be7710fd486c64f0b57",
             2387266009114773059),
            (6000, "23b2fd2814f0a2d9b07cbbb36705be6cde90303b5d434a7c44fae8be8a1196e3",
             "6c30f49d0c493f4c3074df3a31acf2ec59394ed4532ff9e8a54d7c612ce68b6f",
             2101565914859427016),
        ]
        got = []
        for point, rng in zip(compiled.points, generators, strict=True):
            resident = point.resident
            in_order = hashlib.sha256(json.dumps(resident.describe()).encode())
            got.append((len(resident), resident.fingerprint, in_order.hexdigest(),
                        int(rng.integers(0, 2**62))))
        assert got == want

    def test_run_builds_no_fault_objects(self, monkeypatch):
        from repro.scenario import resident as resident_mod

        calls = []
        real = resident_mod.ResidentWeightFault.__post_init__

        def counting_post_init(self):
            calls.append(self)
            real(self)

        monkeypatch.setattr(resident_mod.ResidentWeightFault, "__post_init__",
                            counting_post_init)
        config = scenario("accumulated", seed=3, fault={"quantize": True},
                          accumulated={"counts": [0, 40, 300], "evaluations": 4})
        compiled = compile_scenario(load_scenario(config))
        fi = compiled.campaign.fi
        for point in compiled.points:
            resident = point.resident
            assert len(resident) == point.meta["k"]
            assert resident.fingerprint
            resident.apply(fi).restore()
        run_scenario(compiled)
        assert calls == []
        # The tuple is built on first access, once.
        faults = compiled.points[-1].resident.faults
        assert len(calls) == len(faults) == 300
        assert compiled.points[-1].resident.faults is faults

    @pytest.mark.parametrize("quantize", [True, False])
    def test_fault_tuple_round_trips(self, quantize):
        config = scenario("accumulated", seed=4, fault={"quantize": quantize},
                          select={"layers": [1, 17, 19], "channels": [0, 2, 7]},
                          accumulated={"counts": [500]})
        compiled = compile_scenario(load_scenario(config))
        fi = compiled.campaign.fi
        sampled = compiled.points[0].resident
        rebuilt = ResidentFaultSet(sampled.faults, quantization=sampled.quantization)
        assert len(rebuilt) == len(sampled) == 500
        assert rebuilt.fingerprint == sampled.fingerprint
        assert rebuilt.faults == sampled.faults
        before = weight_checksums(compiled.campaign)
        sampled.apply(fi)
        faulted = weight_checksums(compiled.campaign)
        sampled.restore()
        rebuilt.apply(fi)
        assert weight_checksums(compiled.campaign) == faulted != before
        rebuilt.restore()
        assert weight_checksums(compiled.campaign) == before


class TestAccumulatedSweep:
    def test_int8_artifact_deterministic_and_schema(self, tmp_path):
        cfg = scenario("accumulated", seed=13, fault={"quantize": True})
        first = run_scenario(compile_scenario(load_scenario(cfg)),
                             out_dir=tmp_path / "a")
        second = run_scenario(compile_scenario(load_scenario(cfg)),
                              workers=2, out_dir=tmp_path / "b")
        art1 = json.loads((tmp_path / "a" / "scenario_test-accumulated.json")
                          .read_text())
        art2 = json.loads((tmp_path / "b" / "scenario_test-accumulated.json")
                          .read_text())
        assert art1 == art2  # serial == workers=2, byte-for-byte content
        assert art1["schema"] == "repro.scenario.sweep/1"
        assert art1["quantize"] is True
        ks = [row["k"] for row in art1["points"]]
        assert ks == [0, 2, 4]
        for row in art1["points"]:
            assert set(row) >= {"k", "injections", "corruptions", "sdc_rate",
                                "ci_low", "ci_high", "resident_faults",
                                "resident_fingerprint"}
            assert row["resident_faults"] == row["k"]
            assert (row["resident_fingerprint"] is None) == (row["k"] == 0)
        assert first.artifact and second.artifact

    def test_weights_restored_between_points(self):
        compiled = compile_scenario(load_scenario(scenario(
            "accumulated", seed=13, fault={"quantize": True})))
        before = weight_checksums(compiled.campaign)
        run_scenario(compiled)
        assert weight_checksums(compiled.campaign) == before


class TestRateFamily:
    def test_realized_count_is_deterministic(self):
        cfg = scenario("rate", seed=17, rate={"ber": 1e-6, "exposures": 2})
        a = compile_scenario(load_scenario(cfg))
        b = compile_scenario(load_scenario(cfg))
        assert a.points[0].n_injections == b.points[0].n_injections
        assert a.points[0].meta["bit_cells"] == b.points[0].meta["bit_cells"]

    def test_zero_realization_yields_empty_point(self):
        cfg = scenario("rate", seed=17, rate={"ber": 0.0})
        compiled = compile_scenario(load_scenario(cfg))
        assert compiled.points[0].n_injections == 0
        result = run_scenario(compiled)
        assert result.points[0].injections == 0
        assert result.points[0].interval is None

    def test_max_injections_caps_the_draw(self):
        cfg = scenario("rate", seed=17,
                       rate={"ber": 0.5, "max_injections": 5})
        compiled = compile_scenario(load_scenario(cfg))
        assert compiled.points[0].n_injections == 5

    def test_selector_shrinks_the_cell_count(self):
        full = compile_scenario(load_scenario(scenario("rate", seed=17)))
        subset = compile_scenario(load_scenario(scenario(
            "rate", seed=17, select={"layers": [0]})))
        assert (subset.points[0].meta["bit_cells"]
                < full.points[0].meta["bit_cells"])


class TestWeightParams:
    def test_per_layer_scales_cover_weight_range(self):
        compiled = compile_scenario(load_scenario(scenario("persistent")))
        params = weight_params(compiled.campaign.fi)
        assert len(params) == compiled.campaign.fi.num_layers
        modules = [m for _, m in compiled.campaign.fi._iter_instrumentable(
            compiled.campaign.fi.model)]
        for module, p in zip(modules, params):
            peak = float(np.abs(module.weight.data).max())
            assert p.bits == 8
            if peak > 0:
                # max-abs maps the peak onto qmax exactly
                assert p.scale == pytest.approx(peak / 127)
