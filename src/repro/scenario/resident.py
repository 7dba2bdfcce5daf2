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

import functools
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

    @functools.cached_property
    def fingerprint(self):
        """Stable digest of the fault set (journal/cache identity).

        Computed on first access, not at construction, and memoized: the
        faults are an immutable tuple, and the sorted ``repr`` pass costs
        tens of milliseconds at K in the tens of thousands, which scenario
        compilation should not pay and each run's cache-key check need
        not pay again.
        """
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

    def _by_layer(self, fi):
        """Group the faults by layer and validate them against ``fi``.

        Returns ``[(layer, index, bits, stuck), ...]`` in layer order:
        ``index`` is a tuple of per-axis coordinate arrays (one fancy index
        for all of the layer's faults), ``bits`` and ``stuck`` per-fault
        arrays in the same order.  Every coordinate is bounds-checked
        before anything is returned; of several bad faults, the first in
        set order names the :class:`ValueError`.
        """
        positions = {}
        for pos, fault in enumerate(self.faults):
            positions.setdefault(fault.layer, []).append(pos)
        groups, errors = [], []
        for layer in sorted(positions):
            faults = [self.faults[pos] for pos in positions[layer]]
            info = fi.layer(layer)
            if info.weight_shape is None:
                errors.append((positions[layer][0],
                               f"layer {layer} ({info.name}) has no weights"))
                continue
            rank = len(info.weight_shape)
            # A coordinate of the wrong rank becomes all -1: out of bounds.
            grid = np.array([f.coords if len(f.coords) == rank else (-1,) * rank
                             for f in faults], dtype=np.int64).reshape(-1, rank)
            valid = ((grid >= 0) & (grid < info.weight_shape)).all(axis=1)
            if not valid.all():
                bad = int(np.argmin(valid))
                errors.append((positions[layer][bad],
                               f"weight coords {faults[bad].coords} invalid for "
                               f"layer {layer} ({info.name}, shape "
                               f"{info.weight_shape})"))
                continue
            groups.append((layer, tuple(grid.T), np.array([f.bit for f in faults]),
                           np.array([f.stuck for f in faults], dtype=bool)))
        if errors:
            raise ValueError(min(errors)[1])
        return groups

    def _faulted_values(self, layer, originals, bits, stuck):
        """The stuck-at values of one layer's faulted elements, vectorised."""
        quant = self._quant_for(layer)
        values = quant.quantize(originals) if quant is not None else originals
        forced = np.where(stuck, bitflip.set_bits(values, bits),
                          bitflip.clear_bits(values, bits))
        if quant is not None:
            return quant.dequantize(forced).astype(originals.dtype)
        return forced

    def apply(self, fi):
        """Write the stuck-at values into ``fi``'s model weights.

        Works one layer at a time: every site is validated against the
        engine's profile and every faulted value computed before any
        weight is written; each affected weight array is checksummed, its
        originals gathered with one fancy index, and the faulted values
        scattered back with one indexed assignment.
        """
        if self._applied is not None:
            raise RuntimeError("resident fault set is already applied")
        modules = [m for _, m in fi._iter_instrumentable(fi.model)]
        applied, faulted = [], []
        for layer, index, bits, stuck in self._by_layer(fi):
            weight = modules[layer].weight
            originals = weight.data[index]
            faulted.append(self._faulted_values(layer, originals, bits, stuck))
            applied.append((layer, weight, index, originals, _digest(weight.data)))
        # Nothing is written until every layer's values exist, so a bit past
        # the storage width raises with the weights still clean.
        for (_, weight, index, _, _), values in zip(applied, faulted):
            weight.data[index] = values
        self._applied = applied
        return self

    def restore(self):
        """Undo :meth:`apply`; verify affected arrays restored bitwise."""
        if self._applied is None:
            raise RuntimeError("resident fault set is not applied")
        for _, weight, index, originals, _ in self._applied:
            weight.data[index] = originals
        for layer, weight, _, _, digest in self._applied:
            if _digest(weight.data) != digest:
                raise RuntimeError(
                    f"bitwise weight restoration failed for layer {layer}: "
                    f"the restored array does not match its pre-fault bytes")
        self._applied = None
        return self


def _digest(array):
    """sha256 of an array's bytes, hashed from its buffer without a copy."""
    return hashlib.sha256(np.ascontiguousarray(array)).hexdigest()


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
    # A dict is the ordered set of distinct sites: a re-drawn site keeps
    # its first position, new ones append in draw order.
    sites = {}
    stagnant = 0
    while len(sites) < k:
        want = k - len(sites)
        layer_idx, coords = random_weight_locations(
            fi, want, rng=rng, layers=layers, channels=channels)
        before = len(sites)
        sites.update(dict.fromkeys(zip(layer_idx.tolist(), coords)))
        # Re-draws replace collisions; many consecutive all-collision
        # rounds means k approaches (or exceeds) the number of distinct
        # eligible sites, which deserves an error rather than a hang.
        stagnant = stagnant + 1 if len(sites) == before else 0
        if stagnant >= 100:
            raise ValueError(
                f"cannot sample {k} distinct weight sites under the "
                f"selector (found {len(sites)}); reduce the fault count "
                f"or widen the selection")
    # One draw per site, in site order: the same stream as a scalar draw each.
    chosen = (rng.integers(0, bits, size=len(sites)).tolist() if bit is None
              else [int(bit)] * len(sites))
    faults = [ResidentWeightFault(layer, coord, b, stuck)
              for (layer, coord), b in zip(sites, chosen)]
    return ResidentFaultSet(faults, quantization=quantization)
