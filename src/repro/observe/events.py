"""Telemetry event schema for observed injection campaigns.

One :class:`ObservedInjection` records what a single injection did inside
the network: where it entered, how far the corruption spread layer by
layer (bitwise divergence against the clean activations), where it was
masked, and how the run ended.  Events serialise to flat JSON dicts — the
wire format of the JSONL sinks in :mod:`repro.observe.sinks` — tagged with
``type`` and schema version ``v`` so logs stay readable across releases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

EVENT_SCHEMA_VERSION = 1

OUTCOME_MASKED = "masked"
OUTCOME_MISCLASSIFIED = "misclassified"
OUTCOME_DETECTED = "detected_nan_inf"
OUTCOMES = (OUTCOME_MASKED, OUTCOME_MISCLASSIFIED, OUTCOME_DETECTED)


def _finite(value):
    """Sanitise a float for strict JSON: non-finite values become None."""
    value = float(value)
    return value if math.isfinite(value) else None


def divergence_rows(clean, perturbed):
    """Per-row divergence of a perturbed activation batch against the clean one.

    Returns ``(counts, l2, linf)`` arrays of length ``B`` (the batch
    dimension): the number of elements whose values differ numerically,
    and the L2/L∞ norms of the difference.  This runs once per layer per
    campaign chunk, so it is built on a single vectorised IEEE ``!=``
    pass: any changed bit pattern with a changed value compares unequal,
    so a single flipped mantissa bit registers.  Norms accumulate in
    float64; NaNs in the perturbed activations and overflowed injections
    legitimately yield non-finite norms, which callers sanitise for JSON
    via :func:`_finite`.
    """
    clean = np.asarray(clean)
    perturbed = np.asarray(perturbed)
    if clean.shape != perturbed.shape:
        raise ValueError(
            f"shape mismatch: clean {clean.shape} vs perturbed {perturbed.shape}"
        )
    flat_c = clean.reshape(len(clean), -1)
    flat_p = perturbed.reshape(len(perturbed), -1)
    with np.errstate(all="ignore"):
        # != writes a bool array (NaN != NaN is True, so NaN counts as
        # diverged), a quarter the memory traffic of a float subtraction.
        counts = np.count_nonzero(flat_p != flat_c, axis=1)
        l2 = np.zeros(len(counts))
        linf = np.zeros(len(counts))
        # Norms only for rows that diverged at all: past the masking point a
        # layer's counts are all zero and the float64 pass is skipped.
        hit = np.nonzero(counts)[0]
        if hit.size and flat_c.shape[1]:
            square = np.square(flat_p[hit] - flat_c[hit], dtype=np.float64)
            l2[hit] = np.sqrt(square.sum(axis=1))
            # max(d^2) == (max|d|)^2, saving an |diff| pass over the batch.
            linf[hit] = np.sqrt(square.max(axis=1))
    return counts, l2, linf


def classify_outcome(logits_row, clean_predicted):
    """masked / misclassified / detectable-NaN-Inf, from one perturbed row."""
    logits_row = np.asarray(logits_row)
    if not np.isfinite(logits_row).all():
        return OUTCOME_DETECTED
    if int(np.argmax(logits_row)) != int(clean_predicted):
        return OUTCOME_MISCLASSIFIED
    return OUTCOME_MASKED


@dataclass
class LayerDivergence:
    """Divergence summary of one instrumentable layer for one injection."""

    layer: int
    corrupted_elements: int
    l2: object  # float, or None when the norm overflowed
    linf: object

    def to_row(self):
        return [self.layer, self.corrupted_elements, self.l2, self.linf]

    @classmethod
    def from_row(cls, row):
        return cls(int(row[0]), int(row[1]), row[2], row[3])


@dataclass
class ObservedInjection:
    """Everything the tracer learned about one injection."""

    index: int  # plan position within the campaign
    layer: int  # target layer of the injection
    coords: tuple
    pool_index: int
    seed: int
    label: int
    clean_predicted: int
    predicted: int
    corrupted: bool  # the campaign criterion's verdict
    outcome: str  # one of OUTCOMES
    first_divergence_layer: object  # int, or None when nothing diverged
    last_divergence_layer: object
    masked_by_layer: object  # first layer at which divergence was gone for good
    divergence: list = field(default_factory=list)  # nonzero LayerDivergence rows
    resumed: bool = False
    latency_s: float = 0.0

    def to_dict(self):
        return {
            "type": "injection",
            "v": EVENT_SCHEMA_VERSION,
            "index": self.index,
            "layer": self.layer,
            "coords": list(self.coords),
            "pool_index": self.pool_index,
            "seed": self.seed,
            "label": self.label,
            "clean_predicted": self.clean_predicted,
            "predicted": self.predicted,
            "corrupted": self.corrupted,
            "outcome": self.outcome,
            "first_divergence_layer": self.first_divergence_layer,
            "last_divergence_layer": self.last_divergence_layer,
            "masked_by_layer": self.masked_by_layer,
            "divergence": [d.to_row() for d in self.divergence],
            "resumed": self.resumed,
            "latency_s": self.latency_s,
        }

    @classmethod
    def from_dict(cls, payload):
        if payload.get("type") != "injection":
            raise ValueError(f"not an injection event: {payload.get('type')!r}")
        return cls(
            index=int(payload["index"]),
            layer=int(payload["layer"]),
            coords=tuple(payload["coords"]),
            pool_index=int(payload["pool_index"]),
            seed=int(payload["seed"]),
            label=int(payload["label"]),
            clean_predicted=int(payload["clean_predicted"]),
            predicted=int(payload["predicted"]),
            corrupted=bool(payload["corrupted"]),
            outcome=payload["outcome"],
            first_divergence_layer=payload["first_divergence_layer"],
            last_divergence_layer=payload["last_divergence_layer"],
            masked_by_layer=payload["masked_by_layer"],
            divergence=[LayerDivergence.from_row(r) for r in payload["divergence"]],
            resumed=bool(payload["resumed"]),
            latency_s=float(payload["latency_s"]),
        )


def build_event(*, index, layer, coords, pool_index, seed, label, clean_predicted,
                logits_row, corrupted, divergence, num_layers, resumed, latency_s,
                predicted=None, outcome=None):
    """Assemble one :class:`ObservedInjection` from per-layer divergence rows.

    ``divergence`` holds only layers whose elements actually diverged.  A
    fault whose divergence dies out before the last instrumentable layer is
    *masked by* the first layer past its reach; an injection that never
    changed any value is masked by the target layer itself.  ``predicted``
    and ``outcome`` may be passed in when the caller already classified a
    whole batch vectorised (the tracer's hot path).
    """
    if divergence:
        first = min(d.layer for d in divergence)
        last = max(d.layer for d in divergence)
        masked_by = last + 1 if last < num_layers - 1 else None
    else:
        first = last = None
        masked_by = layer
    if predicted is None:
        predicted = np.argmax(np.nan_to_num(np.asarray(logits_row), nan=-np.inf))
    if outcome is None:
        outcome = classify_outcome(logits_row, clean_predicted)
    return ObservedInjection(
        index=int(index),
        layer=int(layer),
        coords=tuple(int(c) for c in coords),
        pool_index=int(pool_index),
        seed=int(seed),
        label=int(label),
        clean_predicted=int(clean_predicted),
        predicted=int(predicted),
        corrupted=bool(corrupted),
        outcome=outcome,
        first_divergence_layer=first,
        last_divergence_layer=last,
        masked_by_layer=masked_by,
        divergence=list(divergence),
        resumed=bool(resumed),
        latency_s=float(latency_s),
    )
