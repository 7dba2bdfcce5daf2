"""Span-based runtime profiling (per-layer timing, memory, traces).

The observability counterpart to :mod:`repro.observe`: where the observer
answers *what the fault did*, the profiler answers *where the time and
memory went*.  A :class:`Profiler` records a hierarchical span tree
(``profiler.span("name")`` context manager / decorator) with per-span
self-time, tensor-allocation bytes, and explicit profiler-overhead
accounting; :func:`instrument` turns every ``nn.Module`` forward into a
span; campaigns open spans around their phases when constructed with
``profiler=``.  Exporters render Chrome trace-event JSON (Perfetto /
``chrome://tracing``), a hierarchical text table, and a JSON summary —
all wired into the ``repro profile`` CLI subcommand.

Profiling is opt-in and bitwise invisible: a profiled run produces
identical outputs, RNG stream, and cache statistics to an unprofiled one,
and the disabled path (the shared :data:`NULL_PROFILER`) costs one method
call per coarse phase.

Usage::

    from repro.profile import Profiler, profile_forward, write_artifacts

    out, prof = profile_forward(model, x)
    write_artifacts(prof, "results/profile", stem="resnet18")

    # or profile a campaign:
    prof = Profiler()
    campaign = InjectionCampaign(model, dataset, profiler=prof)
    campaign.run(1000, progress=True)       # heartbeat on stderr
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
from .instrument import instrument, profile_forward, profile_model
from .profiler import NULL_PROFILER, NullProfiler, Profiler, Span, coerce_profiler

__all__ = [
    "CampaignHeartbeat",
    "NULL_PROFILER",
    "NullProfiler",
    "Profiler",
    "ProgressMeter",
    "SUMMARY_SCHEMA_VERSION",
    "Span",
    "chrome_trace_events",
    "coerce_profiler",
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
