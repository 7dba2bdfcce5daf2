"""Resident stuck-at fault sets against a deliberately naive reference.

``naive_apply`` is the per-fault loop: one element at a time, quantize a
1-element array, force the bit, dequantize.  :meth:`ResidentFaultSet.apply`
works per layer with one gather and one scatter; the weights it leaves
must be bitwise equal to the loop's for random fault sets in both storage
domains.  The fingerprint and sampler literals below were computed with
the per-fault implementation, so journals written by it still resume.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import FaultInjection, QuantizationParams, bitflip
from repro.quant import weight_params
from repro.scenario import ResidentFaultSet, ResidentWeightFault, sample_resident_faults
from repro.scenario import resident as resident_mod


def naive_faulted_value(original, fault, quantization):
    quant = quantization[fault.layer] if quantization is not None else None
    if quant is not None:
        q = quant.quantize(np.asarray([original]))
        forced = bitflip.stuck_at_bits(q, fault.bit, fault.stuck)
        return quant.dequantize(forced).astype(np.asarray(original).dtype)[0]
    return bitflip.stuck_at_bits(np.asarray([original]), fault.bit, fault.stuck)[0]


def naive_apply(fault_set, weights):
    """Write each fault's stuck-at value into ``weights`` (a list of arrays)."""
    for fault in fault_set.faults:
        array = weights[fault.layer]
        array[fault.coords] = naive_faulted_value(array[fault.coords], fault,
                                                  fault_set.quantization)


def weight_arrays(fi):
    return [m.weight.data for _, m in fi._iter_instrumentable(fi.model)]


def snapshot(fi):
    return [w.copy() for w in weight_arrays(fi)]


def assert_bitwise_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.fixture
def fi(tiny_conv_net):
    return FaultInjection(tiny_conv_net, batch_size=1, input_shape=(3, 16, 16))


def random_faults(fi, rng, n, bits, stuck=None):
    """``n`` distinct sites over several layers, drawn independently of the
    sampler under test: a random layer, coordinate, bit and stuck value each."""
    shapes = [info.weight_shape for info in fi.layers]
    faults, seen = [], set()
    while len(faults) < n:
        layer = int(rng.integers(len(shapes)))
        coords = tuple(int(rng.integers(d)) for d in shapes[layer])
        if (layer, coords) in seen:
            continue
        seen.add((layer, coords))
        faults.append(ResidentWeightFault(
            layer, coords, int(rng.integers(bits)),
            int(rng.integers(2)) if stuck is None else stuck))
    return faults


class TestNaiveReference:
    @pytest.mark.parametrize("domain", ["float32", "int8"])
    @pytest.mark.parametrize("stuck", [0, 1, None])
    @pytest.mark.parametrize("seed", range(4))
    def test_apply_matches_per_fault_loop(self, fi, domain, stuck, seed):
        rng = np.random.default_rng((seed, stuck if stuck is not None else 2))
        quantization = weight_params(fi) if domain == "int8" else None
        bits = 8 if domain == "int8" else 32
        faults = random_faults(fi, rng, int(rng.integers(1, 300)), bits, stuck)
        assert len({f.layer for f in faults}) > 1
        assert len({f.bit for f in faults}) > 1
        fault_set = ResidentFaultSet(faults, quantization=quantization)
        clean = snapshot(fi)
        want = snapshot(fi)
        naive_apply(fault_set, want)

        fault_set.apply(fi)
        assert_bitwise_equal(weight_arrays(fi), want)
        fault_set.restore()
        assert_bitwise_equal(weight_arrays(fi), clean)

    def test_empty_set_is_a_no_op(self, fi):
        clean = snapshot(fi)
        fault_set = ResidentFaultSet([]).apply(fi)
        assert_bitwise_equal(weight_arrays(fi), clean)
        fault_set.restore()

    @pytest.mark.parametrize("bad_coords", [
        lambda shape: (shape[0],) + (0,) * (len(shape) - 1),
        lambda shape: (0,) * (len(shape) - 1) + (-1,),
        lambda shape: (0,) * (len(shape) + 1),
    ], ids=["past-end", "negative", "wrong-rank"])
    @pytest.mark.parametrize("seed", range(3))
    def test_bad_coordinate_anywhere_raises_before_any_write(self, fi, bad_coords,
                                                             seed):
        rng = np.random.default_rng(seed)
        faults = random_faults(fi, rng, 60, 32)
        layer = int(rng.integers(len(fi.layers)))
        bad = ResidentWeightFault(layer, bad_coords(fi.layer(layer).weight_shape),
                                  3, 1)
        faults.insert(int(rng.integers(len(faults) + 1)), bad)
        fault_set = ResidentFaultSet(faults)
        clean = snapshot(fi)
        with pytest.raises(ValueError,
                           match=rf"weight coords .* invalid for layer {layer} "):
            fault_set.apply(fi)
        assert_bitwise_equal(weight_arrays(fi), clean)
        with pytest.raises(RuntimeError, match="not applied"):
            fault_set.restore()

    def test_first_bad_fault_in_set_order_names_the_error(self, fi):
        faults = [ResidentWeightFault(1, (0, 0, 0, 0), 1, 1),
                  ResidentWeightFault(2, (99, 0, 0, 0), 1, 1),
                  ResidentWeightFault(0, (0, 0, 0, 99), 1, 1)]
        with pytest.raises(ValueError, match=r"\(99, 0, 0, 0\)"):
            ResidentFaultSet(faults).apply(fi)

    def test_layer_without_weights_raises_before_any_write(self, tiny_conv_net):
        fi = FaultInjection(tiny_conv_net, batch_size=1, input_shape=(3, 16, 16),
                            layer_types=(nn.Conv2d, nn.ReLU, nn.Linear))
        relu = next(info.index for info in fi.layers if info.weight_shape is None)
        clean = [m.weight.data.copy() for _, m in fi._iter_instrumentable(fi.model)
                 if getattr(m, "weight", None) is not None]
        faults = [ResidentWeightFault(0, (0, 0, 0, 0), 30, 1),
                  ResidentWeightFault(relu, (0, 0, 0), 1, 1)]
        with pytest.raises(ValueError, match="has no weights"):
            ResidentFaultSet(faults).apply(fi)
        after = [m.weight.data for _, m in fi._iter_instrumentable(fi.model)
                 if getattr(m, "weight", None) is not None]
        assert_bitwise_equal(after, clean)

    def test_bit_past_storage_width_raises_before_any_write(self, fi):
        faults = [ResidentWeightFault(0, (0, 0, 0, 0), 3, 1),
                  ResidentWeightFault(2, (1, 2, 0, 1), 8, 1)]
        clean = snapshot(fi)
        with pytest.raises(ValueError, match="bit index out of range"):
            ResidentFaultSet(faults, quantization=weight_params(fi)).apply(fi)
        assert_bitwise_equal(weight_arrays(fi), clean)

    @pytest.mark.parametrize("domain", ["float32", "int8"])
    def test_weight_tampered_between_apply_and_restore_fails_restore(self, fi,
                                                                     domain):
        rng = np.random.default_rng(11)
        quantization = weight_params(fi) if domain == "int8" else None
        faults = random_faults(fi, rng, 40, 8 if domain == "int8" else 32)
        fault_set = ResidentFaultSet(faults, quantization=quantization).apply(fi)
        faulted = {(f.layer, f.coords) for f in faults}
        layer = faults[-1].layer
        weight = weight_arrays(fi)[layer]
        spot = next(c for c in np.ndindex(weight.shape)
                    if (layer, c) not in faulted)
        weight[spot] += 1.0
        with pytest.raises(RuntimeError,
                           match=f"bitwise weight restoration failed for layer {layer}"):
            fault_set.restore()


FIXED_FAULTS = [ResidentWeightFault(layer=2, coords=(3, 0, 1, 2), bit=30, stuck=1),
                ResidentWeightFault(layer=0, coords=(1, 2, 0, 1), bit=7, stuck=0),
                ResidentWeightFault(layer=0, coords=(0, 0, 0, 0), bit=3, stuck=1)]
FIXED_QUANT = [QuantizationParams(0.05), QuantizationParams(0.125),
               QuantizationParams(0.25)]


class TestFingerprint:
    def test_pinned_digests(self):
        assert ResidentFaultSet(FIXED_FAULTS).fingerprint == (
            "fa7d100563c61254852d681042835e35d3cea4808d159ab58e25962449c8f472")
        assert ResidentFaultSet(FIXED_FAULTS, quantization=FIXED_QUANT).fingerprint == (
            "033c3bfc76008bb65628c1c93198ff2ab174d96465043d4f1eca72ffa9597648")

    def test_memoized_and_not_computed_at_construction(self, monkeypatch):
        calls = []
        real = resident_mod.hashlib.sha256

        def counting_sha256(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(resident_mod.hashlib, "sha256", counting_sha256)
        fault_set = ResidentFaultSet(FIXED_FAULTS)
        assert calls == []
        first = fault_set.fingerprint
        assert len(calls) == 1
        assert fault_set.fingerprint == first
        assert len(calls) == 1


class TestSamplingStream:
    """Sampled sets and the generator's end state match the per-site loop."""

    @pytest.mark.parametrize("kwargs, digest, next_draw", [
        ({}, "2fbd5b008bca5e0219303d8d12ec3e8fa211bda02b469c940a58dbf2ba893964",
         1060783042283745951),
        ({"bit": 5, "stuck": 0, "layers": [0, 2], "channels": [1, 3, 4]},
         "a2d81e5fa3be6eec49ecde0e696ce9869d4947383f558162e4c346646c5fcad7",
         1351963798456022964),
    ], ids=["random-bit", "fixed-bit-selector"])
    def test_pinned_sample(self, fi, kwargs, digest, next_draw):
        rng = np.random.default_rng(2024)
        fault_set = sample_resident_faults(fi, 200, rng, **kwargs)
        assert len(fault_set) == 200
        assert fault_set.fingerprint == digest
        assert int(rng.integers(0, 2**62)) == next_draw
