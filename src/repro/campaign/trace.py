"""Per-injection tracing for campaigns.

Large studies need more than aggregate rates: which layer, which coordinate,
which bit, what happened.  :class:`InjectionTrace` collects one record per
injection and exports to JSON (human) or ``.npz`` (bulk analysis), keeping
the campaign loop allocation-light.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class InjectionEvent:
    """What one injection did."""

    index: int
    layer: int
    coords: tuple
    batch_slot: int
    label: int
    predicted: int
    corrupted: bool
    margin_before: float  # logit margin of the true class, clean inference
    margin_after: float  # logit margin under injection


@dataclass
class InjectionTrace:
    """Accumulates :class:`InjectionEvent` records."""

    events: list = field(default_factory=list)

    def record(self, **kwargs):
        self.events.append(InjectionEvent(index=len(self.events), **kwargs))

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # ---------------------------------------------------------------- #
    # Analysis
    # ---------------------------------------------------------------- #

    def corruption_rate(self):
        if not self.events:
            return 0.0
        return sum(e.corrupted for e in self.events) / len(self.events)

    def per_layer_counts(self, num_layers):
        """(injections, corruptions) arrays indexed by layer."""
        injections = np.zeros(num_layers, dtype=np.int64)
        corruptions = np.zeros(num_layers, dtype=np.int64)
        for event in self.events:
            injections[event.layer] += 1
            if event.corrupted:
                corruptions[event.layer] += 1
        return injections, corruptions

    def margin_erosion(self):
        """Mean decrease of the true-class logit margin across injections."""
        if not self.events:
            return 0.0
        return float(np.mean([e.margin_before - e.margin_after for e in self.events]))

    # ---------------------------------------------------------------- #
    # Export
    # ---------------------------------------------------------------- #

    def to_json(self, path):
        """Write the full event list as JSON; returns the path."""
        path = Path(path)
        payload = [asdict(e) for e in self.events]
        for record in payload:
            record["coords"] = list(record["coords"])
        path.write_text(json.dumps(payload, indent=1))
        return path

    def to_npz(self, path):
        """Write columnar arrays (fast to reload for bulk analysis)."""
        path = Path(path)
        if not self.events:
            raise ValueError("cannot export an empty trace")
        max_rank = max(len(e.coords) for e in self.events)
        coords = np.full((len(self.events), max_rank), -1, dtype=np.int64)
        for i, event in enumerate(self.events):
            coords[i, : len(event.coords)] = event.coords
        np.savez_compressed(
            path,
            layer=np.array([e.layer for e in self.events], dtype=np.int64),
            coords=coords,
            batch_slot=np.array([e.batch_slot for e in self.events], dtype=np.int64),
            label=np.array([e.label for e in self.events], dtype=np.int64),
            predicted=np.array([e.predicted for e in self.events], dtype=np.int64),
            corrupted=np.array([e.corrupted for e in self.events], dtype=bool),
            margin_before=np.array([e.margin_before for e in self.events], dtype=np.float32),
            margin_after=np.array([e.margin_after for e in self.events], dtype=np.float32),
        )
        return path

    @classmethod
    def from_json(cls, path):
        payload = json.loads(Path(path).read_text())
        trace = cls()
        for record in payload:
            record.pop("index")
            record["coords"] = tuple(record["coords"])
            trace.record(**record)
        return trace


def margin(logits, labels):
    """True-class logit minus best rival logit, per row (the decision margin).

    A row whose logits overflowed gets an infinite or NaN margin (``inf -
    inf``); that is the defined result for an injection that broke the
    forward, so it raises no floating-point warning.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    rows = np.arange(len(labels))
    true = logits[rows, labels]
    masked = logits.copy()
    masked[rows, labels] = -np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        return true - masked.max(axis=1)
