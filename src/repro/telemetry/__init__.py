"""repro.telemetry — unified live telemetry: bus, stream server, flight recorder.

One campaign run, one :class:`TelemetryBus`, one envelope schema
(:data:`ENVELOPE_SCHEMA`).  Producers across the codebase (campaign
fold, parallel executor, recovery journal, observe tracer, scenario
engine, sampler) publish; readers consume synchronously (the
:class:`FlightRecorder`, the progress reporter, the observe sink, a
:func:`repro.profile.campaign_spans` profiler) or subscribe through bounded queues
(:class:`TelemetryServer`, :class:`TelemetrySampler`, and through the
server ``repro top``).  Publishing never blocks on a subscriber and
never perturbs the science — see ``bus.py`` for the invariants.
"""

from .bus import (
    DEFAULT_QUEUE_LEN,
    ENVELOPE_SCHEMA,
    SOURCES,
    Subscription,
    TelemetryBus,
    coerce_bus,
    make_envelope,
)
from .recorder import DEFAULT_CAPACITY, FLIGHT_SCHEMA, FlightRecorder, load_flight_dump
from .server import (
    DEFAULT_MAX_CLIENT_BUFFER,
    TelemetrySampler,
    TelemetryServer,
    parse_address,
    read_rss_kb,
)
from .top import NdjsonDecoder, TopAggregator, render, run_top

__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_MAX_CLIENT_BUFFER",
    "DEFAULT_QUEUE_LEN",
    "ENVELOPE_SCHEMA",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "NdjsonDecoder",
    "SOURCES",
    "Subscription",
    "TelemetryBus",
    "TelemetrySampler",
    "TelemetryServer",
    "TopAggregator",
    "coerce_bus",
    "load_flight_dump",
    "make_envelope",
    "parse_address",
    "read_rss_kb",
    "render",
    "run_top",
]
