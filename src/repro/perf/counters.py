"""Campaign performance counters.

The checkpoint-and-resume engine (``repro.campaign.resume``) makes
campaign throughput a first-class, measurable quantity.  A campaign owns
one :class:`CampaignPerfCounters` instance, accumulates into it across
``run()`` calls, and exposes it as ``campaign.perf`` so benchmarks and
dashboards can track injections/sec, cache behaviour, and how much of the
network's layer-forward work the resume path actually skipped.  It is the
only store of these numbers: every chunk record's ``perf`` delta folds into
it wherever the chunk ran, and the CLI's JSON records, the observe footer,
the profile summary and ``--metrics-out`` all read it.
"""

from __future__ import annotations

from dataclasses import dataclass

# The Prometheus type of every metric ``prometheus_text`` renders: lifetime
# tallies are counters, derived rates and configuration are gauges.
_PROMETHEUS_TYPES = {
    **dict.fromkeys(("injections", "elapsed_seconds", "forwards", "forwards_saved",
                     "resumed_forwards", "capture_forwards", "layer_forwards_executed",
                     "layer_forwards_skipped", "cache_hits", "cache_misses",
                     "cache_evictions", "chunk_retries", "chunks_requeued",
                     "chunks_quarantined", "worker_failures", "worker_respawns"),
                    "counter"),
    **dict.fromkeys(("injections_per_sec", "mean_lane_occupancy", "cache_hit_rate",
                     "fraction_layer_forwards_skipped", "cache_bytes", "resume_enabled"),
                    "gauge"),
}


@dataclass
class CampaignPerfCounters:
    """Lifetime execution counters for one :class:`InjectionCampaign`."""

    injections: int = 0
    elapsed_seconds: float = 0.0
    forwards: int = 0  # perturbed forwards executed (chunks)
    forwards_saved: int = 0  # forwards avoided by packing sites into lanes
    resumed_forwards: int = 0  # perturbed forwards that used a checkpoint
    capture_forwards: int = 0  # clean forwards run to (re)fill the cache
    layer_forwards_executed: int = 0
    layer_forwards_skipped: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_bytes: int = 0
    resume_enabled: bool = False
    # Recovery tallies (repro.campaign.recovery): failed chunk-execution
    # attempts, requeue events, chunks poisoned after exhausting retries,
    # and the worker deaths/replacements behind them.  All zero on an
    # undisturbed run, so clean parallel == serial tallies still hold.
    chunk_retries: int = 0
    chunks_requeued: int = 0
    chunks_quarantined: int = 0
    worker_failures: int = 0
    worker_respawns: int = 0

    @property
    def injections_per_sec(self):
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.injections / self.elapsed_seconds

    @property
    def mean_lane_occupancy(self):
        """Average injections realised per executed forward (1.0 = unpacked)."""
        if self.forwards == 0:
            return 0.0
        return (self.forwards + self.forwards_saved) / self.forwards

    @property
    def cache_hit_rate(self):
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total

    @property
    def fraction_layer_forwards_skipped(self):
        total = self.layer_forwards_executed + self.layer_forwards_skipped
        if total == 0:
            return 0.0
        return self.layer_forwards_skipped / total

    def reset(self):
        """Zero every counter so one instance can be reused across campaigns.

        ``resume_enabled`` is configuration, not a tally, and is preserved;
        telemetry consumers serialising ``as_dict()`` between campaigns rely
        on reset to keep events from accumulating stale state.
        """
        resume_enabled = self.resume_enabled
        self.__init__()
        self.resume_enabled = resume_enabled
        return self

    def add(self, delta):
        """Add a ``{counter: amount}`` delta, e.g. one chunk record's ``perf``."""
        for key, amount in delta.items():
            setattr(self, key, getattr(self, key) + amount)
        return self

    def prometheus_text(self):
        """Render the counters in the Prometheus text exposition format.

        Each counter becomes a ``campaign_<name>`` sample — lifetime
        tallies typed ``counter``, derived rates and configuration
        ``gauge`` — with one ``# TYPE`` line each, sorted by name: what
        ``repro profile --metrics-out`` writes.
        """
        lines = []
        for name, kind in sorted(_PROMETHEUS_TYPES.items()):
            value = float(getattr(self, name))
            text = (str(int(value)) if value == int(value) and abs(value) < 1e15
                    else repr(value))
            lines += [f"# TYPE campaign_{name} {kind}", f"campaign_{name} {text}"]
        return "\n".join(lines) + "\n"

    def as_dict(self):
        """A flat JSON-serialisable snapshot (for benchmark records)."""
        return {
            "injections": self.injections,
            "elapsed_seconds": self.elapsed_seconds,
            "injections_per_sec": self.injections_per_sec,
            "forwards": self.forwards,
            "forwards_saved": self.forwards_saved,
            "mean_lane_occupancy": self.mean_lane_occupancy,
            "resumed_forwards": self.resumed_forwards,
            "capture_forwards": self.capture_forwards,
            "layer_forwards_executed": self.layer_forwards_executed,
            "layer_forwards_skipped": self.layer_forwards_skipped,
            "fraction_layer_forwards_skipped": self.fraction_layer_forwards_skipped,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_hit_rate": self.cache_hit_rate,
            "cache_bytes": self.cache_bytes,
            "resume_enabled": self.resume_enabled,
            "chunk_retries": self.chunk_retries,
            "chunks_requeued": self.chunks_requeued,
            "chunks_quarantined": self.chunks_quarantined,
            "worker_failures": self.worker_failures,
            "worker_respawns": self.worker_respawns,
        }

    def __str__(self):
        return (
            f"CampaignPerfCounters({self.injections} injections in "
            f"{self.elapsed_seconds:.3f}s = {self.injections_per_sec:.1f}/s, "
            f"lane occupancy {self.mean_lane_occupancy:.1f} "
            f"({self.forwards_saved} forwards saved), "
            f"resumed {self.resumed_forwards}/{self.forwards} forwards, "
            f"skipped {self.fraction_layer_forwards_skipped:.0%} of layer "
            f"forwards, cache hit rate {self.cache_hit_rate:.0%})"
        )
