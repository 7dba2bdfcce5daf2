"""The unified live-telemetry bus: one correlated envelope stream.

Everything a campaign already reports post-hoc — observe injection
events, profiler metric snapshots, heartbeat progress, recovery/journal
lifecycle, worker liveness — publishes *live* through one
:class:`TelemetryBus` as schema-versioned envelopes (campaign run ID,
monotonic sequence number, source, wall + monotonic clocks).  Consumers
(the NDJSON streaming server, the periodic sampler, the flight recorder,
``repro top``) subscribe; the hot path never blocks on any of them.

Design constraints, in order:

* **Publishing must not change the science.**  ``publish`` draws from no
  random generator, reads nothing it mutates, and never raises into the
  campaign — a streamed campaign produces bitwise-identical outcomes,
  RNG stream, and cache statistics to an unstreamed one.
* **The hot path is never blocked.**  Every subscriber owns a *bounded*
  queue.  When a consumer falls behind, the bus drops that subscriber's
  *oldest* event (live viewers want the newest state) and counts the
  drop honestly — ``Subscription.dropped`` per consumer,
  ``bus.events_dropped`` fleet-wide — instead of stalling the campaign
  or growing without bound.
* **One envelope format.**  Every event is a flat dict tagged with
  ``schema`` (:data:`ENVELOPE_SCHEMA`), the bus's ``run`` ID, a
  monotonically increasing ``seq``, its ``source`` stream, a ``kind``
  within that source, both clocks, and an optional ``worker`` id — so a
  single NDJSON stream from a 4-worker campaign still totally orders and
  attributes every event.

Inside forked campaign workers the *parent's* bus is unreachable (a
copy-on-write clone of its queues goes nowhere), so workers publish into
a :class:`WorkerTelemetryRelay` with the same ``publish`` signature; the
buffered rows ride home as the envelope list of each chunk's completion
message, over the worker's private pipe, and the parent republishes them
with its own sequence numbers.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque

ENVELOPE_SCHEMA = "repro.telemetry/1"

#: Every stream a campaign can publish on.  ``repro top`` and the CI
#: smoke assert against these names, so they are part of the schema.
SOURCES = ("campaign", "observe", "heartbeat", "recovery", "worker",
           "sampler", "scenario", "profile")

DEFAULT_QUEUE_LEN = 1024


def make_envelope(run, seq, source, kind, data, worker=None):
    """Assemble one schema-versioned telemetry envelope dict."""
    return {
        "schema": ENVELOPE_SCHEMA,
        "run": run,
        "seq": int(seq),
        "source": source,
        "kind": kind,
        "t_wall": time.time(),
        "t_mono": time.monotonic(),
        "worker": worker,
        "data": data,
    }


class Subscription:
    """One consumer's bounded view of the bus.

    ``drain()`` pops everything currently queued (oldest first).  The
    queue holds at most ``maxlen`` envelopes; a publish into a full queue
    evicts the oldest entry and increments :attr:`dropped` — the consumer
    can always see *that* it missed events, and the campaign never waits.
    """

    def __init__(self, bus, maxlen=DEFAULT_QUEUE_LEN):
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self.maxlen = int(maxlen)
        self.dropped = 0
        self._bus = bus
        self._queue = deque()
        self._lock = threading.Lock()

    def _offer(self, envelope):
        with self._lock:
            if len(self._queue) >= self.maxlen:
                self._queue.popleft()
                self.dropped += 1
                self._bus._note_drop()
            self._queue.append(envelope)

    def drain(self, limit=None):
        """Pop up to ``limit`` queued envelopes (all of them by default)."""
        out = []
        with self._lock:
            while self._queue and (limit is None or len(out) < limit):
                out.append(self._queue.popleft())
        return out

    def __len__(self):
        with self._lock:
            return len(self._queue)

    def close(self):
        self._bus.unsubscribe(self)


class TelemetryBus:
    """Multi-consumer fan-out of campaign telemetry envelopes.

    ``run_id`` defaults to a fresh UUID4 hex (drawn from ``os.urandom``,
    never from any numpy generator — the science RNG streams stay
    untouched).  An optional :class:`~repro.telemetry.FlightRecorder`
    rides along as a special always-on consumer whose ring buffer
    overwrites instead of dropping; it is the post-mortem black box.
    """

    def __init__(self, run_id=None, recorder=None):
        self.run_id = run_id if run_id is not None else uuid.uuid4().hex[:12]
        self.recorder = recorder
        if recorder is not None:
            recorder.run_id = self.run_id
        self.events_published = 0
        self.events_dropped = 0
        self._seq = 0
        self._subs = []
        self._lock = threading.Lock()

    def publish(self, source, kind, data, worker=None):
        """Fan one event out to every subscriber; never blocks, never raises.

        Returns the envelope (handy in tests).  ``worker`` tags events
        republished on behalf of a forked worker.
        """
        with self._lock:
            seq = self._seq
            self._seq += 1
            subs = list(self._subs)
        envelope = make_envelope(self.run_id, seq, source, kind, data,
                                 worker=worker)
        self.events_published += 1
        if self.recorder is not None:
            self.recorder.record(envelope)
        for sub in subs:
            sub._offer(envelope)
        return envelope

    def subscribe(self, maxlen=DEFAULT_QUEUE_LEN):
        sub = Subscription(self, maxlen=maxlen)
        with self._lock:
            self._subs.append(sub)
        return sub

    def unsubscribe(self, sub):
        with self._lock:
            try:
                self._subs.remove(sub)
            except ValueError:
                pass

    @property
    def subscribers(self):
        with self._lock:
            return len(self._subs)

    def _note_drop(self):
        self.events_dropped += 1

    def stats(self):
        """The honest accounting the ``--json`` telemetry block reports."""
        return {
            "run": self.run_id,
            "events_published": int(self.events_published),
            "events_dropped": int(self.events_dropped),
            "subscribers": self.subscribers,
        }

    def dump_flight(self, reason, out_dir=None):
        """Dump the attached flight recorder (no-op without one)."""
        if self.recorder is None:
            return None
        return self.recorder.dump(reason, out_dir=out_dir)

    def close(self):
        with self._lock:
            self._subs = []

    def __repr__(self):
        return (f"TelemetryBus(run={self.run_id!r}, "
                f"published={self.events_published}, "
                f"dropped={self.events_dropped})")


class WorkerTelemetryRelay:
    """Bus façade inside a forked campaign worker.

    Every worker has one, whether or not the parent has a bus.  Publishes
    buffer locally as ``(source, kind, data, worker)`` rows; after each
    chunk the worker drains them (:meth:`take`) into the chunk's one
    completion message.  Besides bus rows, the list carries what the
    parent folds instead of republishing: full observe events (the parent
    derives their bus summary), clean-capture counts, and profiler spans
    and metrics.  The parent replays the rows in order, so worker events
    get real sequence numbers and reach every subscriber, and a retried
    chunk's duplicate rows are discarded with its duplicate message.
    """

    def __init__(self, worker):
        self.worker = int(worker)
        self.events_published = 0
        self._buffer = []

    def publish(self, source, kind, data, worker=None):
        self.events_published += 1
        self._buffer.append(
            (source, kind, data, worker if worker is not None else self.worker))
        return None

    def take(self):
        """Drain the buffered rows (one chunk's envelope list)."""
        rows, self._buffer = self._buffer, []
        return rows


def coerce_bus(telemetry):
    """Normalise ``campaign.run``'s ``telemetry=`` argument.

    ``None``/``False`` → no bus; ``True`` → a fresh bus with a default
    flight recorder attached; a :class:`TelemetryBus` (or worker relay)
    passes through unchanged.
    """
    if telemetry is None or telemetry is False:
        return None
    if telemetry is True:
        from .recorder import FlightRecorder

        return TelemetryBus(recorder=FlightRecorder())
    if isinstance(telemetry, (TelemetryBus, WorkerTelemetryRelay)):
        return telemetry
    raise TypeError(
        f"telemetry must be a TelemetryBus, a bool, or None; "
        f"got {type(telemetry).__name__}")
