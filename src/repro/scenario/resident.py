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
from typing import NamedTuple

import numpy as np

from ..core import bitflip
from ..core.injectors import _batched_sites, _restrict_channels, _restrict_pool, _weight_pool


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


class _LayerFaults(NamedTuple):
    """One layer's faults as arrays, in set order.

    ``pos`` holds each fault's position in the set, ``coords`` its
    coordinates as one row per weight axis (shape ``(rank, n)``), ``bits``
    and ``stuck`` its bit index and stuck value.
    """

    layer: int
    pos: np.ndarray
    coords: np.ndarray
    bits: np.ndarray
    stuck: np.ndarray


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

    The set stores its faults as per-layer arrays (:class:`_LayerFaults`),
    which :meth:`apply`, :meth:`restore`, ``len()`` and :attr:`fingerprint`
    read directly; :attr:`faults` builds the fault objects only when asked.

    Lifecycle: :meth:`apply` snapshots the originals and writes the
    faulted values; :meth:`restore` writes the originals back and verifies
    the affected arrays byte-for-byte against pre-apply checksums.  The
    set is reusable (apply/restore any number of times) but not
    re-entrant — a second ``apply`` without an intervening ``restore``
    raises.
    """

    def __init__(self, faults, quantization=None):
        faults = tuple(faults)
        if len({(f.layer, f.coords) for f in faults}) != len(faults):
            raise ValueError("resident fault set targets the same weight twice")
        # One part per (layer, coordinate rank): a rank that does not match
        # the layer's weights is kept so that apply can name it.
        parts = {}
        for pos, fault in enumerate(faults):
            parts.setdefault((int(fault.layer), len(fault.coords)), []).append(pos)
        layers = []
        for (layer, rank), positions in sorted(parts.items()):
            chosen = [faults[pos] for pos in positions]
            coords = np.array([f.coords for f in chosen], dtype=np.int64)
            layers.append(_LayerFaults(
                layer, np.array(positions, dtype=np.int64),
                np.ascontiguousarray(coords.reshape(len(chosen), rank).T),
                np.array([f.bit for f in chosen], dtype=np.int64),
                np.array([f.stuck for f in chosen], dtype=np.int8)))
        self._layers = layers
        self.quantization = list(quantization) if quantization is not None else None
        self._applied = None

    @classmethod
    def _from_arrays(cls, layers, quantization):
        """A set over already distinct sites, given as :class:`_LayerFaults`
        in layer order; skips the duplicate check."""
        fault_set = cls((), quantization)
        fault_set._layers = layers
        return fault_set

    def __len__(self):
        return sum(len(part.pos) for part in self._layers)

    def __repr__(self):
        domain = "int8" if self.quantization is not None else "float32"
        return f"ResidentFaultSet({len(self)} faults, domain={domain})"

    @functools.cached_property
    def faults(self):
        """The faults as a tuple of :class:`ResidentWeightFault`, in set order.

        Built on first access and memoized; nothing in a run needs it.
        """
        faults = [None] * len(self)
        for part in self._layers:
            for pos, coords, bit, stuck in zip(part.pos.tolist(),
                                               part.coords.T.tolist(),
                                               part.bits.tolist(),
                                               part.stuck.tolist()):
                faults[pos] = ResidentWeightFault(part.layer, tuple(coords), bit, stuck)
        return tuple(faults)

    @functools.cached_property
    def fingerprint(self):
        """Stable digest of the fault set (journal/cache identity).

        Hashes ``repr((layer, coords, bit, stuck))`` of every fault in
        ``(layer, coords)`` order, then the quantization params.  Each
        layer's coordinates are sorted with one ``lexsort``, which orders
        them as tuples would be.  Computed on first access, not at
        construction, and memoized.
        """
        h = hashlib.sha256()
        # A layer whose faults mix coordinate ranks (which no engine can
        # apply) hashes its ranks in ascending order.
        for part in self._layers:
            rank, n = part.coords.shape
            order = np.lexsort(part.coords[::-1]) if rank else np.arange(n)
            row = ("(%d, (" + ", ".join(["%d"] * rank) + ("," if rank == 1 else "")
                   + "), %d, %d)")
            table = np.vstack([np.full(n, part.layer), part.coords[:, order],
                               part.bits[order], part.stuck[order]])
            h.update(((row * n) % tuple(table.T.ravel().tolist())).encode())
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

    def _validate(self, fi):
        """Bounds-check every fault against ``fi``'s weight shapes.

        Of several bad faults, the first in set order names the
        :class:`ValueError`.
        """
        errors = []
        for part in self._layers:
            info = fi.layer(part.layer)
            if info.weight_shape is None:
                errors.append((int(part.pos[0]),
                               f"layer {part.layer} ({info.name}) has no weights"))
                continue
            if len(part.coords) != len(info.weight_shape):
                bad = 0
            else:
                bound = np.array(info.weight_shape, dtype=np.int64)[:, None]
                valid = ((part.coords >= 0) & (part.coords < bound)).all(axis=0)
                if valid.all():
                    continue
                bad = int(np.argmin(valid))
            errors.append((int(part.pos[bad]),
                           f"weight coords {tuple(part.coords[:, bad].tolist())} "
                           f"invalid for layer {part.layer} ({info.name}, shape "
                           f"{info.weight_shape})"))
        if errors:
            raise ValueError(min(errors)[1])

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
        self._validate(fi)
        modules = [m for _, m in fi._iter_instrumentable(fi.model)]
        applied, faulted = [], []
        for part in self._layers:
            weight = modules[part.layer].weight
            index = tuple(part.coords)
            originals = weight.data[index]
            faulted.append(self._faulted_values(part.layer, originals, part.bits,
                                                part.stuck))
            applied.append((part.layer, weight, index, originals,
                            _digest(weight.data)))
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

    Sites are drawn like :func:`~repro.core.random_weight_locations`
    (proportional over all eligible weight elements, honouring the
    ``layers``/``channels`` selector subsets), de-duplicated, and re-drawn
    until ``k`` distinct sites exist.  ``bit=None`` draws a uniform bit
    index per fault over the storage width — ``bits`` (default: the
    quantization bit width, else 32 for float32 weights), which may not
    exceed that width.  All randomness comes from ``rng``, so a seeded
    generator makes the set deterministic.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if stuck not in (0, 1):
        raise ValueError(f"stuck must be 0 or 1, got {stuck!r}")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    width = quantization[0].bits if quantization else 32
    if bits is None:
        bits = width
    if bits > width:
        raise ValueError(f"bits {bits} exceeds the storage width of {width} bits")
    if bit is not None and not 0 <= bit < bits:
        raise ValueError(f"bit {bit} out of range [0, {bits})")
    pool, sizes, shapes = _weight_pool(fi)
    if k > 0:
        # Check capacity before any draw: past it, the re-draw loop below
        # stops only at its stagnation guard, minutes later on a big model.
        _, restricted, restricted_shapes = _restrict_pool(pool, sizes, shapes, layers)
        capacity = sum(_restrict_channels(restricted, restricted_shapes, channels)[0])
        if k > capacity:
            raise ValueError(
                f"cannot sample {k} distinct weight sites under the "
                f"selector (only {capacity} eligible); reduce the fault "
                f"count or widen the selection")
    # A site's key is its offset in the concatenated weight space.
    base = np.zeros(max(pool, default=0) + 1, dtype=np.int64)
    base[pool] = np.cumsum(sizes) - sizes
    site_layers, flat = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    seen = np.empty(0, dtype=np.int64)  # sorted keys of the sites so far
    stagnant = 0
    while len(flat) < k:
        drawn_layers, drawn_flat = _batched_sites(
            rng, pool, sizes, shapes, k - len(flat), None, "proportional",
            layers=layers, channels=channels)
        keys = base[drawn_layers] + drawn_flat
        # A re-drawn site keeps its first position; new ones append in
        # draw order.
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        fresh = np.ones(len(keys), dtype=bool)
        fresh[1:] = ordered[1:] != ordered[:-1]
        if len(seen):
            at = np.minimum(np.searchsorted(seen, ordered), len(seen) - 1)
            fresh &= seen[at] != ordered
        new = np.sort(order[fresh])
        site_layers = np.concatenate([site_layers, drawn_layers[new]])
        flat = np.concatenate([flat, drawn_flat[new]])
        seen = np.sort(np.concatenate([seen, ordered[fresh]]))
        # Re-draws replace collisions; many consecutive all-collision
        # rounds means k approaches (or exceeds) the number of distinct
        # eligible sites, which deserves an error rather than a hang.
        stagnant = 0 if len(new) else stagnant + 1
        if stagnant >= 100:
            raise ValueError(
                f"cannot sample {k} distinct weight sites under the "
                f"selector (found {len(flat)}); reduce the fault count "
                f"or widen the selection")
    # One draw per site, in site order: the same stream as a scalar draw each.
    chosen = (rng.integers(0, bits, size=len(flat)) if bit is None
              else np.full(len(flat), bit, dtype=np.int64))
    shape_of = dict(zip(pool, shapes))
    parts = []
    for layer in np.unique(site_layers).tolist():
        pos = np.nonzero(site_layers == layer)[0]
        coords = np.array(np.unravel_index(flat[pos], shape_of[layer]), dtype=np.int64)
        parts.append(_LayerFaults(layer, pos, coords, chosen[pos],
                                  np.full(len(pos), stuck, dtype=np.int8)))
    return ResidentFaultSet._from_arrays(parts, quantization=quantization)
