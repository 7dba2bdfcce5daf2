"""Span-based runtime profiling (per-layer timing, memory, traces).

The observability counterpart to :mod:`repro.observe`: where the observer
answers *what the fault did*, the profiler answers *where the time and
memory went*.  A :class:`Profiler` records a hierarchical span tree
(``profiler.span("name")`` context manager / decorator) with per-span
self-time, tensor-allocation bytes, and explicit profiler-overhead
accounting, recorded from outside the program: :func:`instrument` turns
every ``nn.Module`` forward into a span, and :func:`campaign_spans` the
campaign phases, forked workers' chunks included.  Exporters render
Chrome trace-event JSON (Perfetto / ``chrome://tracing``), a hierarchical
text table, and a JSON summary — all wired into ``repro profile``.

Profiling is opt-in and bitwise invisible: a profiled run produces
identical outputs, RNG stream, and cache statistics to an unprofiled one,
and an unprofiled run executes no profiling code.

Usage::

    from repro.profile import Profiler, campaign_spans, profile_forward, write_artifacts

    out, prof = profile_forward(model, x)
    write_artifacts(prof, "results/profile", stem="resnet18")

    # or profile a campaign:
    prof = Profiler()
    with campaign_spans(prof):
        campaign = InjectionCampaign(model, dataset)
        campaign.run(1000, progress=True)   # heartbeat on stderr
"""

from .export import (
    SUMMARY_SCHEMA_VERSION,
    chrome_trace_events,
    span_records,
    summary,
    text_table,
    write_artifacts,
    write_chrome_trace,
)
from .heartbeat import CampaignHeartbeat, ProgressMeter, coerce_progress
from .instrument import campaign_spans, instrument, profile_forward, profile_model
from .profiler import Profiler, Span

__all__ = [
    "CampaignHeartbeat",
    "Profiler",
    "ProgressMeter",
    "SUMMARY_SCHEMA_VERSION",
    "Span",
    "campaign_spans",
    "chrome_trace_events",
    "coerce_progress",
    "instrument",
    "profile_forward",
    "profile_model",
    "span_records",
    "summary",
    "text_table",
    "write_artifacts",
    "write_chrome_trace",
]
