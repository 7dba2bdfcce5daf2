"""Campaign progress: the one meter and the stderr renderer.

The fold of :meth:`InjectionCampaign.run
<repro.campaign.InjectionCampaign.run>` publishes one
``("campaign", "chunk")`` envelope per folded chunk, carrying the run's
``done``/``total`` and what :class:`ProgressMeter` computes there:
injections/sec, a finite non-negative ETA, and the cache-hit rate.  The
stderr heartbeat, ``progress(done, total)`` callables, the telemetry
sampler and ``repro top`` all read those envelopes, so they agree.
Readers only read: no RNG draws, no campaign state touched.
"""

from __future__ import annotations

import sys
import time


class ProgressMeter:
    """Injections/sec and ETA of one run, fed the fold's running count.

    The rate is measured from the first *executed* chunk: its fold
    anchors the clock, and later chunks measure marginal throughput.
    Chunks replayed from a journal do not count as executed, so a
    resumed run's rate is what this process achieves.
    """

    def __init__(self, total, clock=time.perf_counter):
        self.total = int(total)
        self.clock = clock
        self._anchor = None  # (time, done) at the first executed chunk

    def update(self, done, executed):
        """``(rate, eta_s)`` after a chunk folds; ``eta_s`` is None at rate 0."""
        now = self.clock()
        if executed and self._anchor is None:
            self._anchor = (now, done)
        rate = 0.0
        if self._anchor is not None and now > self._anchor[0]:
            rate = (done - self._anchor[1]) / (now - self._anchor[0])
        # done advances by whole injections over a real clock interval, so
        # a positive rate is never small enough to overflow the ETA.
        eta = max(0.0, (self.total - done) / rate) if rate > 0 else None
        return rate, eta


class CampaignHeartbeat:
    """Rate-limited stderr renderer of a run's ``campaign/chunk`` envelopes.

    One line per envelope at most every ``interval_s`` (a million-injection
    campaign does not drown its own log), and the terminal line exactly
    once, on ``campaign/run_end`` — which every normal completion
    publishes, a run that quarantined chunks and ends short included.
    """

    def __init__(self, interval_s=1.0, stream=None, clock=time.perf_counter):
        self.interval_s = float(interval_s)
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock
        self.ticks = 0
        self._last_emit = None
        self._latest = None

    def __call__(self, envelope):
        if envelope["source"] != "campaign":
            return
        kind, data = envelope["kind"], envelope["data"]
        if kind == "run_start":
            self._latest = {"done": 0, "total": data["n_injections"]}
            self._last_emit = None
        elif kind == "chunk":
            self._latest = data
            now = self.clock()
            if self._last_emit is None or now - self._last_emit >= self.interval_s:
                self._last_emit = now
                self._emit(data, final=False)
        elif kind == "run_end" and self._latest is not None:
            self._emit(self._latest, final=True)

    def _emit(self, data, final):
        parts = [f"[campaign] {data['done']}/{data['total']} injections"]
        rate = data.get("rate") or 0.0
        if rate > 0:
            parts.append(f"{rate:.1f} inj/s")
            if not final and data.get("eta_s") is not None:
                parts.append(f"eta {data['eta_s']:.1f}s")
        if data.get("cache_hit_rate") is not None:
            parts.append(f"cache hit {data['cache_hit_rate']:.0%}")
        if final:
            parts.append("done")
        print(" | ".join(parts), file=self.stream, flush=True)
        self.ticks += 1


def coerce_progress(progress):
    """Normalise ``InjectionCampaign.run``'s ``progress=`` into a bus consumer.

    ``None``/``False`` → no reporting; ``True`` → a default
    :class:`CampaignHeartbeat`; a heartbeat passes through; any other
    callable is called as ``progress(done, total)`` once per folded chunk.
    """
    if progress is None or progress is False:
        return None
    if progress is True:
        return CampaignHeartbeat()
    if isinstance(progress, CampaignHeartbeat):
        return progress
    if callable(progress):
        def consume(envelope):
            if envelope["source"] == "campaign" and envelope["kind"] == "chunk":
                progress(envelope["data"]["done"], envelope["data"]["total"])
        return consume
    raise TypeError(
        f"progress must be a callable, a bool, or None; got {type(progress).__name__}"
    )
