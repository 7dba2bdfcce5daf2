"""Fault-propagation tracing for injection campaigns.

:class:`PropagationTracer` instruments a campaign's working model with one
lightweight forward hook per instrumentable layer and, for every
injection, compares the perturbed activations against the clean run to
measure where corruption entered, how far it spread, and where it was
masked.  Design constraints, in order:

* **Observation must not change the science.**  The collector hooks
  return ``None`` (so they never replace a module output), draw from no
  random generator, and read the resume cache only through non-counting
  ``peek`` lookups — an observed campaign produces bitwise-identical
  outcomes, RNG stream, and cache statistics to an unobserved one.
* **No second clean forward when resume is on.**  The clean reference
  activations an injection diverges against are exactly the rows the
  :class:`~repro.campaign.resume.CampaignResumeEngine` already cached to
  replay from; the tracer peeks them instead of recomputing.  When resume
  is off (or rows were evicted) it degrades gracefully to one clean
  capture forward per chunk — correct, just slower.
* **Injection hooks fire first.**  ``FaultInjection.instrument`` prepends
  its perturbation hooks, so the tracer's collectors — registered once at
  attach time — always see the *post-injection* output of the target
  layer, regardless of registration order.

Layers the replay never executes (the skipped prefix of a resumed
forward) are bit-identical to clean by the fault model, so their absent
observations are recorded as zero divergence.

Events travel on the campaign's telemetry bus: the run's bus here, a
forked worker's private bus there, whose rows the parent's fold
republishes verbatim.  :meth:`record_chunk` builds and publishes each
``("observe", "injection")`` event once (schema: :mod:`repro.observe.events`),
and :meth:`prepare_chunk` publishes ``("observe", "captures", 1)`` per
clean capture forward.  :meth:`consume`, the run's sink writer, is the
only place that adds to ``clean_captures``; it buffers events by plan
index and :meth:`finish` writes them in plan order, so a log's bytes do
not depend on which process ran a chunk.  An interrupted run's
:meth:`finish` (no result) writes the folded chunks' events and no
footer; a killed process loses the buffer, and the campaign journal is
the crash-durable record.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ..tensor import Tensor, no_grad
from .events import (
    EVENT_SCHEMA_VERSION,
    OUTCOME_DETECTED,
    OUTCOME_MASKED,
    OUTCOME_MISCLASSIFIED,
    _finite,
    divergence_rows,
)
from .sinks import JsonlEventSink, MemorySink


class PropagationTracer:
    """Observe a campaign: per-layer divergence tracing + telemetry events.

    Pass one to :meth:`InjectionCampaign.run(..., observe=tracer)
    <repro.campaign.InjectionCampaign.run>`; events flow into ``sink``
    (default: an in-process :class:`MemorySink`, exposed as ``.events``).
    One tracer can observe several campaigns in sequence — events append
    to the same sink, which is how per-figure telemetry logs accumulate.
    """

    def __init__(self, sink=None):
        self.sink = sink if sink is not None else MemorySink()
        self.clean_captures = 0  # graceful-degradation clean forwards
        self.observed_injections = 0
        self._campaign = None
        self._num_layers = 0
        self._handles = []
        self._armed = False
        self._acts = {}
        self._chunk_clean = None
        self._pool_stacks = {}
        self._buffer = {}  # plan index -> event, written at finish()

    @property
    def events(self):
        """The sink's event list (memory sinks only)."""
        if not isinstance(self.sink, MemorySink):
            raise AttributeError(f"{type(self.sink).__name__} does not buffer events")
        return self.sink.events

    # ------------------------------------------------------------------ #
    # Campaign lifecycle
    # ------------------------------------------------------------------ #

    def attach(self, campaign):
        """Register collector hooks on the campaign's working model."""
        if self._campaign is not None:
            raise RuntimeError("tracer is already attached to a campaign")
        if campaign.target != "neuron":
            raise ValueError(
                "propagation tracing requires a neuron campaign; weight campaigns "
                "perturb before the forward, so there is no injection site to trace from"
            )
        self._campaign = campaign
        fi = campaign.fi
        self._num_layers = fi.num_layers

        def make_collector(layer_idx):
            def collector(module, inputs, output):
                if self._armed:
                    self._acts[layer_idx] = output.data
            return collector

        self._handles = [
            module.register_forward_hook(make_collector(j))
            for j, (_, module) in enumerate(fi._iter_instrumentable(fi.model))
        ]

    def detach(self):
        """Remove the collector hooks; the sink stays open for reuse."""
        for handle in self._handles:
            handle.remove()
        self._handles = []
        self._campaign = None
        self._armed = False
        self._acts = {}
        self._chunk_clean = None
        self._pool_stacks = {}
        self._buffer = {}

    def close(self):
        self.sink.close()

    def begin(self, campaign, n_injections):
        """Reset the event buffer and emit the campaign header."""
        self._buffer = {}
        self.sink.emit({
            "type": "campaign_start",
            "v": EVENT_SCHEMA_VERSION,
            "network": campaign.network_name,
            "criterion": campaign.criterion_name,
            "target": campaign.target,
            "n_injections": int(n_injections),
            "num_layers": int(campaign.fi.num_layers),
            "batch_size": int(campaign.fi.batch_size),
            "resume": campaign._resume is not None,
        })

    def consume(self, envelope):
        """The sink writer's bus consumer: buffer events, add capture counts."""
        if envelope["source"] != "observe":
            return
        if envelope["kind"] == "injection":
            self._buffer[envelope["data"]["index"]] = envelope["data"]
        elif envelope["kind"] == "captures":
            self.clean_captures += envelope["data"]

    def finish(self, campaign, result=None):
        """Write the buffered injection events in plan order, then the
        campaign footer; an interrupted run (no ``result``) gets none."""
        for index in sorted(self._buffer):
            self.sink.emit(self._buffer[index])
        self.observed_injections += len(self._buffer)
        self._buffer = {}
        if result is None:
            return
        self.sink.emit(dict(
            type="campaign_end",
            v=EVENT_SCHEMA_VERSION,
            network=campaign.network_name,
            injections=int(result.injections),
            corruptions=int(result.corruptions),
            clean_captures=int(self.clean_captures),
            perf=campaign.perf.as_dict(),
        ))

    # ------------------------------------------------------------------ #
    # Per-chunk observation
    # ------------------------------------------------------------------ #

    @contextmanager
    def observing(self):
        """Arm the collectors for exactly one (perturbed) forward."""
        self._acts = {}
        self._armed = True
        try:
            yield
        finally:
            self._armed = False

    def prepare_chunk(self, layer_idx, pool_indices, images):
        """Assemble clean reference activations for one same-layer chunk.

        Layers ahead of the target cannot diverge, so references are only
        needed for ``layer_idx ..`` the last layer.  The resume cache is
        peeked first (no hit/miss counting, no recency update); any missing
        row falls back to one clean capture forward for the whole chunk,
        reported as ``("observe", "captures", 1)`` on the campaign's bus.
        Must run *before* the model is instrumented.

        When the cache holds the whole pool for a layer, its rows are
        stacked once per campaign and fancy-indexed per chunk — restacking
        the same rows every chunk costs more than the divergence math.
        """
        layers = range(layer_idx, self._num_layers)
        clean = None
        resume = self._campaign._resume
        if resume is not None:
            pool_size = len(self._campaign.pool_images)
            rows = {}
            for j in layers:
                stacked = self._pool_stacks.get(j)
                if stacked is None and j not in self._pool_stacks:
                    per_pool = [resume.peek_row(j, i) for i in range(pool_size)]
                    # A partially-cached layer stays None: per-chunk peeks
                    # below may still succeed for this chunk's rows.
                    stacked = np.stack(per_pool) if all(
                        row is not None for row in per_pool) else None
                    self._pool_stacks[j] = stacked
                if stacked is not None:
                    rows[j] = stacked[np.asarray(pool_indices)]
                    continue
                per_row = [resume.peek_row(j, int(i)) for i in pool_indices]
                if any(row is None for row in per_row):
                    rows = None
                    break
                rows[j] = np.stack(per_row)
            clean = rows
        if clean is None:
            with self.observing(), no_grad():
                self._campaign.fi.model(Tensor(np.asarray(images)))
            clean = {j: self._acts[j] for j in layers if j in self._acts}
            self._acts = {}
            self._campaign.telemetry.publish("observe", "captures", 1)
        self._chunk_clean = clean

    def record_chunk(self, *, rows, pool_indices, seeds, clean_predicted, logits,
                     resumed, latency_s):
        """Fold one executed chunk's activations into per-injection events.

        Consumes the activations collected under :meth:`observing` and the
        clean references from :meth:`prepare_chunk`.  ``rows`` are the
        chunk record's lane rows, ``[plan position, {layer, coords, label,
        corrupted, ...}]`` in batch-lane order; the other per-lane
        arguments follow the same order.  Each event is built once, as the
        ``injection`` dict :mod:`repro.observe.events` describes, and
        published on the campaign's bus.
        """
        perturbed = self._acts
        clean = self._chunk_clean or {}
        per_layer = []  # ascending by layer, so divergence rows are too
        for j in sorted(clean):
            if j in perturbed:
                acts = perturbed[j]
                if len(acts) < len(clean[j]):
                    # Rows that left the resume replay early were bitwise
                    # clean from there on: their activations are the clean ones.
                    acts = clean[j].copy()
                    acts[self._campaign._resume.rows_through(j)] = perturbed[j]
                counts, l2, linf = divergence_rows(clean[j], acts)
                # Python lists: events index these per injection, and plain
                # floats beat numpy scalar extraction in that loop.
                per_layer.append((j, counts.tolist(), l2.tolist(), linf.tolist()))
        latency = latency_s / len(rows) if rows else 0.0
        # Classify the whole chunk vectorised; the per-event loop just indexes.
        # The rows' ``predicted`` is a plain argmax; an event's treats NaN as
        # the lowest logit.
        logits = np.asarray(logits)
        finite = np.isfinite(logits).all(axis=1).tolist()
        predicted = np.nan_to_num(logits, nan=-np.inf).argmax(axis=1).tolist()
        clean_predicted = np.asarray(clean_predicted).tolist()
        last_layer = self._num_layers - 1
        bus = self._campaign.telemetry
        for b, (p, row) in enumerate(rows):
            divergence = [[j, counts[b], _finite(l2[b]), _finite(linf[b])]
                          for j, counts, l2, linf in per_layer if counts[b] > 0]
            if divergence:
                first, last = divergence[0][0], divergence[-1][0]
                masked_by = last + 1 if last < last_layer else None
            else:
                first = last = None
                masked_by = row["layer"]
            if not finite[b]:
                outcome = OUTCOME_DETECTED
            elif predicted[b] != clean_predicted[b]:
                outcome = OUTCOME_MISCLASSIFIED
            else:
                outcome = OUTCOME_MASKED
            bus.publish("observe", "injection", {
                "type": "injection",
                "v": EVENT_SCHEMA_VERSION,
                "index": p,
                "layer": row["layer"],
                "coords": list(row["coords"]),
                "pool_index": pool_indices[b],
                "seed": seeds[b],
                "label": row["label"],
                "clean_predicted": clean_predicted[b],
                "predicted": predicted[b],
                "corrupted": row["corrupted"],
                "outcome": outcome,
                "first_divergence_layer": first,
                "last_divergence_layer": last,
                "masked_by_layer": masked_by,
                "divergence": divergence,
                "resumed": resumed,
                "latency_s": latency,
            })
        self._acts = {}
        self._chunk_clean = None


def coerce_tracer(observe):
    """Normalise ``InjectionCampaign.run``'s ``observe=`` argument.

    ``None`` → no tracer; a string or path → a new tracer appending to
    that JSONL log; a tracer passes through unchanged.
    """
    if observe is None or isinstance(observe, PropagationTracer):
        return observe
    if isinstance(observe, (str, Path)):
        return PropagationTracer(JsonlEventSink(observe))
    raise TypeError(
        "observe must be None, a JSONL log path, or a PropagationTracer; "
        f"got {type(observe).__name__}"
    )
