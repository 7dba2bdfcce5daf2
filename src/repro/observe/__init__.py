"""Fault-propagation tracing and campaign telemetry (the observability layer).

Campaigns report end-to-end outcomes; this package answers *what the fault
did inside the network*.  A :class:`PropagationTracer` hooks every
instrumentable layer of a campaign's model and records, per injection,
the clean-vs-perturbed divergence at each layer (corrupted-element count,
L2/L∞ norms), where corruption entered, where it was masked, and the
final outcome (masked / misclassified / detectable-NaN-Inf) — reusing the
resume engine's cached clean activations so tracing adds no second clean
forward.  Events stream into sinks (append-only JSONL or in-memory) and
aggregate into per-layer vulnerability profiles via :func:`aggregate`,
rendered by the ``repro report`` CLI subcommand.

Usage::

    from repro.campaign import InjectionCampaign
    from repro.observe import PropagationTracer, aggregate

    campaign = InjectionCampaign(model, dataset)
    result = campaign.run(1000, observe="campaign.jsonl")   # JSONL telemetry
    # or keep events in memory:
    tracer = PropagationTracer()
    result = campaign.run(1000, observe=tracer)
    profile = aggregate(tracer.events)
"""

from .events import (
    EVENT_SCHEMA_VERSION,
    OUTCOME_DETECTED,
    OUTCOME_MASKED,
    OUTCOME_MISCLASSIFIED,
    OUTCOMES,
    LayerDivergence,
    ObservedInjection,
    build_event,
    classify_outcome,
    divergence_rows,
)
from .report import REPORT_SCHEMA_VERSION, aggregate, render_json, render_markdown, timing_summary
from .sinks import JsonlEventSink, MemorySink, load_events
from .tracer import PropagationTracer, coerce_tracer

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "JsonlEventSink",
    "LayerDivergence",
    "MemorySink",
    "OUTCOMES",
    "OUTCOME_DETECTED",
    "OUTCOME_MASKED",
    "OUTCOME_MISCLASSIFIED",
    "ObservedInjection",
    "PropagationTracer",
    "REPORT_SCHEMA_VERSION",
    "aggregate",
    "build_event",
    "classify_outcome",
    "coerce_tracer",
    "divergence_rows",
    "load_events",
    "render_json",
    "render_markdown",
    "timing_summary",
]
