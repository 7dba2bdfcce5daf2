"""Resident (persistent) weight faults — stuck-at bit-cells that survive.

A transient campaign injection perturbs one value for one inference; a
*resident* fault models a broken storage cell: the affected weight bit
reads the same wrong value on every inference until the hardware is
replaced.  :class:`ResidentFaultSet` owns a set of such faults and knows
how to apply them to a :class:`~repro.core.FaultInjection` engine's model
and how to undo them with a *verified bitwise* restoration — the original
weight bytes are checksummed before mutation and the checksum is
re-verified after restore, so a scenario can never leak corrupted weights
into the next sweep point.

The set is applied directly to the work model's weight arrays rather than
through ``fi.instrument``: instrumentation is per-chunk (and per-chunk
``fi.reset()`` would silently heal the "broken" cells), whereas resident
faults must persist across every forward of a run — pool screening,
resume re-captures, forked parallel workers (which inherit the mutated
weights copy-on-write), and each planned injection.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..core import bitflip
from ..core.injectors import _restrict_channels, _restrict_pool, random_weight_locations


@dataclass(frozen=True)
class ResidentWeightFault:
    """One stuck-at bit-cell in one weight element.

    ``bit`` indexes into the storage representation: the weight's own
    IEEE-754 pattern, or the quantized integer domain when the owning
    :class:`ResidentFaultSet` carries per-layer quantization params.
    """

    layer: int
    coords: tuple
    bit: int
    stuck: int

    def __post_init__(self):
        if self.stuck not in (0, 1):
            raise ValueError(f"stuck must be 0 or 1, got {self.stuck!r}")
        if self.bit < 0:
            raise ValueError(f"bit must be >= 0, got {self.bit}")

    def describe(self):
        return {
            "layer": int(self.layer),
            "coords": [int(c) for c in self.coords],
            "bit": int(self.bit),
            "stuck": int(self.stuck),
        }


class ResidentFaultSet:
    """A set of stuck-at weight faults applied for the duration of a run.

    Parameters
    ----------
    faults:
        Iterable of :class:`ResidentWeightFault`.
    quantization:
        ``None`` for faults in the float32 bit pattern, or a per-layer
        sequence of :class:`~repro.core.QuantizationParams` describing the
        *weight* integer domain (see :func:`repro.quant.weight_params`):
        each faulted weight is quantized, its bit forced, and the result
        dequantized back — the stuck-at model on INT8 weight memories.

    Lifecycle: :meth:`apply` snapshots the originals and writes the
    faulted values; :meth:`restore` writes the originals back and verifies
    the affected arrays byte-for-byte against pre-apply checksums.  The
    set is reusable (apply/restore any number of times) but not
    re-entrant — a second ``apply`` without an intervening ``restore``
    raises.
    """

    def __init__(self, faults, quantization=None):
        self.faults = tuple(faults)
        if len({(f.layer, f.coords) for f in self.faults}) != len(self.faults):
            raise ValueError("resident fault set targets the same weight twice")
        self.quantization = list(quantization) if quantization is not None else None
        self._applied = None

    def __len__(self):
        return len(self.faults)

    def __repr__(self):
        domain = "int8" if self.quantization is not None else "float32"
        return f"ResidentFaultSet({len(self.faults)} faults, domain={domain})"

    @property
    def fingerprint(self):
        """Stable digest of the fault set (journal/cache identity)."""
        h = hashlib.sha256()
        for fault in sorted(self.faults, key=lambda f: (f.layer, f.coords)):
            h.update(repr((fault.layer, tuple(fault.coords), fault.bit,
                           fault.stuck)).encode())
        if self.quantization is not None:
            for params in self.quantization:
                h.update(repr((float(params.scale), int(params.bits))).encode())
        return h.hexdigest()

    def describe(self):
        return [fault.describe() for fault in self.faults]

    def _quant_for(self, layer):
        if self.quantization is None:
            return None
        return self.quantization[layer]

    def _faulted_value(self, original, fault):
        """The stuck-at value for one weight element (original's dtype)."""
        quant = self._quant_for(fault.layer)
        if quant is not None:
            q = quant.quantize(np.asarray([original]))
            forced = bitflip.stuck_at_bits(q, fault.bit, fault.stuck)
            return quant.dequantize(forced).astype(np.asarray(original).dtype)[0]
        values = np.asarray([original])
        return bitflip.stuck_at_bits(values, fault.bit, fault.stuck)[0]

    def apply(self, fi):
        """Write the stuck-at values into ``fi``'s model weights.

        Validates every site against the engine's profile first, then
        checksums each affected weight array before touching it.
        """
        if self._applied is not None:
            raise RuntimeError("resident fault set is already applied")
        modules = [m for _, m in fi._iter_instrumentable(fi.model)]
        checksums = {}
        snapshots = []
        for fault in self.faults:
            info = fi.layer(fault.layer)
            if info.weight_shape is None:
                raise ValueError(
                    f"layer {fault.layer} ({info.name}) has no weights")
            if len(fault.coords) != len(info.weight_shape) or any(
                    not 0 <= c < bound
                    for c, bound in zip(fault.coords, info.weight_shape)):
                raise ValueError(
                    f"weight coords {fault.coords} invalid for layer "
                    f"{fault.layer} ({info.name}, shape {info.weight_shape})")
        for fault in self.faults:
            weight = modules[fault.layer].weight
            if fault.layer not in checksums:
                checksums[fault.layer] = (
                    weight, hashlib.sha256(weight.data.tobytes()).hexdigest())
            coords = tuple(fault.coords)
            original = weight.data[coords]
            snapshots.append((weight, coords, original))
            weight.data[coords] = self._faulted_value(original, fault)
        self._applied = (snapshots, checksums)
        return self

    def restore(self):
        """Undo :meth:`apply`; verify affected arrays restored bitwise."""
        if self._applied is None:
            raise RuntimeError("resident fault set is not applied")
        snapshots, checksums = self._applied
        # Reverse order restores correctness even if a future caller
        # stacks two faults on one element.
        for weight, coords, original in reversed(snapshots):
            weight.data[coords] = original
        for layer, (weight, digest) in checksums.items():
            if hashlib.sha256(weight.data.tobytes()).hexdigest() != digest:
                raise RuntimeError(
                    f"bitwise weight restoration failed for layer {layer}: "
                    f"the restored array does not match its pre-fault bytes")
        self._applied = None
        return self


def sample_resident_faults(fi, k, rng, bit=None, stuck=1, layers=None,
                           channels=None, quantization=None, bits=None):
    """Sample ``k`` distinct stuck-at weight faults; returns a fault set.

    Sites are drawn with :func:`~repro.core.random_weight_locations`
    (proportional over all eligible weight elements, honouring the
    ``layers``/``channels`` selector subsets), de-duplicated, and re-drawn
    until ``k`` distinct sites exist.  ``bit=None`` draws a uniform bit
    index per fault over the storage width — ``bits`` (default: the
    quantization bit width, else 32 for float32 weights).  All randomness
    comes from ``rng``, so a seeded generator makes the set deterministic.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    if bits is None:
        bits = quantization[0].bits if quantization else 32
    if bit is not None and not 0 <= bit < bits:
        raise ValueError(f"bit {bit} out of range [0, {bits})")
    if k > 0:
        # Check capacity before any draw: past it, the re-draw loop below
        # stops only at its stagnation guard, minutes later on a big model.
        eligible = [info for info in fi.layers if info.weight_shape]
        _, sizes, shapes = _restrict_pool(
            [info.index for info in eligible], [info.weights for info in eligible],
            [info.weight_shape for info in eligible], layers)
        capacity = sum(_restrict_channels(sizes, shapes, channels)[0])
        if k > capacity:
            raise ValueError(
                f"cannot sample {k} distinct weight sites under the "
                f"selector (only {capacity} eligible); reduce the fault "
                f"count or widen the selection")
    sites = []
    seen = set()
    stagnant = 0
    while len(sites) < k:
        want = k - len(sites)
        layer_idx, coords = random_weight_locations(
            fi, want, rng=rng, layers=layers, channels=channels)
        before = len(sites)
        for layer, coord in zip(layer_idx, coords):
            site = (int(layer), tuple(coord))
            if site not in seen:
                seen.add(site)
                sites.append(site)
        # Re-draws replace collisions; many consecutive all-collision
        # rounds means k approaches (or exceeds) the number of distinct
        # eligible sites, which deserves an error rather than a hang.
        stagnant = stagnant + 1 if len(sites) == before else 0
        if stagnant >= 100:
            raise ValueError(
                f"cannot sample {k} distinct weight sites under the "
                f"selector (found {len(sites)}); reduce the fault count "
                f"or widen the selection")
    faults = []
    for layer, coord in sites:
        chosen = int(rng.integers(0, bits)) if bit is None else int(bit)
        faults.append(ResidentWeightFault(layer=layer, coords=coord,
                                          bit=chosen, stuck=stuck))
    return ResidentFaultSet(faults, quantization=quantization)
