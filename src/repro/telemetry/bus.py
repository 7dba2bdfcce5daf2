"""The telemetry bus: the one path from a run's producers to its readers.

Every campaign run publishes into a :class:`TelemetryBus` — the
caller's, or a bare one made for the run.  Producers (the campaign fold,
the parallel executor, the recovery journal, the observe tracer, the
scenario engine, the sampler) publish schema-versioned envelopes
(campaign run ID, monotonic sequence number, source, wall + monotonic
clocks).  Readers take them one of two ways:

* **Synchronous consumers** (:meth:`TelemetryBus.add_consumer`) are
  called with every envelope inside ``publish``, losslessly and in
  publish order.  An attached flight recorder is always the first; a
  run adds its progress reporter and its observe tracer for the
  duration of the run, and :func:`repro.profile.campaign_spans` adds
  its profiler's span collector.  A consumer's exception propagates out of
  ``publish`` exactly as a direct call would — that is how an observe
  sink error surfaces.  The sampler publishes from its own thread, so a
  consumer can run on that thread: each one filters by ``source`` and
  ``kind`` and ignores the rest.
* **Subscriptions** (:meth:`TelemetryBus.subscribe`) are bounded queues
  drained on other threads (the NDJSON server, the sampler).  When a
  subscriber falls behind, the bus drops its *oldest* envelope (live
  viewers want the newest state) and counts the drop honestly —
  ``Subscription.dropped`` per subscriber, ``bus.events_dropped``
  bus-wide — instead of stalling the campaign or growing without bound.

Publishing never changes the science: ``publish`` draws from no random
generator and consumers only read, so a streamed campaign produces
bitwise-identical outcomes, RNG stream, and cache statistics.  Publishing
never blocks on a subscriber; it raises only what a consumer raises.

Every envelope is a flat dict tagged with ``schema``
(:data:`ENVELOPE_SCHEMA`), the bus's ``run`` ID, a monotonically
increasing ``seq``, its ``source`` stream, a ``kind`` within that
source, both clocks, and an optional ``worker`` id — so a single NDJSON
stream from a 4-worker campaign still totally orders and attributes
every event.

Inside a forked campaign worker the *parent's* bus is unreachable (a
copy-on-write clone of it goes nowhere), so each worker publishes into
a private bus whose one consumer collects ``(source, kind, data,
worker)`` rows; they ride home in each chunk's completion message, over
the worker's private pipe, and the parent's fold republishes them
verbatim with its own sequence numbers.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque

ENVELOPE_SCHEMA = "repro.telemetry/1"

#: Every stream a campaign can publish on.  ``repro top`` and the tests
#: assert against these names, so they are part of the schema.
SOURCES = ("campaign", "observe", "recovery", "worker", "sampler",
           "scenario", "profile")

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
    """Fan-out of one run's telemetry envelopes to consumers and subscribers.

    ``run_id`` defaults to a fresh UUID4 hex (drawn from ``os.urandom``,
    never from any numpy generator — the science RNG streams stay
    untouched).  An optional :class:`~repro.telemetry.FlightRecorder`
    is the first synchronous consumer; its ring buffer overwrites
    instead of dropping, and it is the post-mortem black box.
    """

    def __init__(self, run_id=None, recorder=None):
        self.run_id = run_id if run_id is not None else uuid.uuid4().hex[:12]
        self.recorder = recorder
        if recorder is not None:
            recorder.run_id = self.run_id
        self.events_published = 0
        self.events_dropped = 0
        self._seq = 0
        self._consumers = [recorder.record] if recorder is not None else []
        self._subs = []
        self._lock = threading.Lock()

    def publish(self, source, kind, data, worker=None):
        """Hand one event to every consumer, then queue it for every subscriber.

        Never blocks; raises only what a consumer raises.  Returns the
        envelope (handy in tests).  ``worker`` tags events republished on
        behalf of a forked worker.
        """
        with self._lock:
            seq = self._seq
            self._seq += 1
            consumers = list(self._consumers)
            subs = list(self._subs)
        envelope = make_envelope(self.run_id, seq, source, kind, data,
                                 worker=worker)
        self.events_published += 1
        for consume in consumers:
            consume(envelope)
        for sub in subs:
            sub._offer(envelope)
        return envelope

    def add_consumer(self, consume):
        """Call ``consume(envelope)`` synchronously for every later publish."""
        with self._lock:
            self._consumers.append(consume)

    def remove_consumer(self, consume):
        with self._lock:
            self._consumers.remove(consume)

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

    def __repr__(self):
        return (f"TelemetryBus(run={self.run_id!r}, "
                f"published={self.events_published}, "
                f"dropped={self.events_dropped})")


def coerce_bus(telemetry):
    """Normalise ``campaign.run``'s ``telemetry=`` argument.

    ``None``/``False`` → no bus; ``True`` → a fresh bus with a default
    flight recorder attached; a :class:`TelemetryBus` passes through
    unchanged.
    """
    if telemetry is None or telemetry is False:
        return None
    if telemetry is True:
        from .recorder import FlightRecorder

        return TelemetryBus(recorder=FlightRecorder())
    if isinstance(telemetry, TelemetryBus):
        return telemetry
    raise TypeError(
        f"telemetry must be a TelemetryBus, a bool, or None; "
        f"got {type(telemetry).__name__}")
