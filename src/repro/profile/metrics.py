"""A small process-local metrics registry (counters, gauges, histograms).

Prometheus-shaped but dependency-free: a :class:`MetricsRegistry` owns
named metric instances, ``snapshot()`` renders the whole registry as one
stable JSON-serialisable dict, and ``to_prometheus_text()`` renders the
same numbers in the Prometheus text exposition format.

:class:`~repro.perf.CampaignPerfCounters` publishes into a registry via
``publish()``; the profiler owns one (``Profiler.metrics``) so traces and
metrics travel together.
"""

from __future__ import annotations

SNAPSHOT_SCHEMA_VERSION = 1

# Bucket upper bounds (seconds) tuned for per-chunk campaign latencies:
# sub-millisecond stubs up to multi-second full forwards.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)


class Counter:
    """Monotonically non-decreasing tally."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount
        return self.value

    def set_floor(self, value):
        """Raise the counter to ``value`` if it is below (idempotent publish).

        Lifetime tallies like :class:`CampaignPerfCounters` republish their
        absolute totals after every run; treating the publish as a floor
        keeps the counter monotonic without the publisher tracking deltas.
        """
        if value > self.value:
            self.value = value
        return self.value


class Gauge:
    """A value that can move in either direction."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value):
        self.value = value
        return self.value

    def inc(self, amount=1):
        self.value += amount
        return self.value

    def dec(self, amount=1):
        self.value -= amount
        return self.value


class Histogram:
    """Cumulative-bucket histogram with count/sum/min/max."""

    __slots__ = ("name", "help", "buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, name, help="", buckets=DEFAULT_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        self.name = name
        self.help = help
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last bucket is +Inf
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value):
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0


def _prometheus_name(name):
    """Sanitise a metric name for the Prometheus exposition format.

    Registry names use dots (``campaign.chunk_seconds``); Prometheus
    names are ``[a-zA-Z_:][a-zA-Z0-9_:]*``, so every other character
    becomes an underscore and a leading digit gets one prepended.
    """
    sanitised = "".join(
        ch if (ch.isascii() and ch.isalnum()) or ch in "_:" else "_"
        for ch in name)
    if sanitised and sanitised[0].isdigit():
        sanitised = "_" + sanitised
    return sanitised


def _prometheus_value(value):
    """Format one sample value: integers bare, floats via repr, None → NaN."""
    if value is None:
        return "NaN"
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """Named metrics with get-or-create accessors and exact snapshotting."""

    def __init__(self):
        self._metrics = {}

    def _get_or_create(self, cls, name, help, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help=help, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}, "
                f"not {cls.__name__}"
            )
        return metric

    def counter(self, name, help=""):
        return self._get_or_create(Counter, name, help)

    def gauge(self, name, help=""):
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name, help="", buckets=DEFAULT_BUCKETS):
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def __len__(self):
        return len(self._metrics)

    def __contains__(self, name):
        return name in self._metrics

    def __getitem__(self, name):
        return self._metrics[name]

    def names(self):
        return sorted(self._metrics)

    def snapshot(self):
        """A stable, JSON-serialisable dict of the whole registry.

        Keys are sorted so equal registries snapshot to equal dicts; the
        result survives ``json.dumps``/``loads`` unchanged (tuples are
        rendered as lists up front).
        """
        counters, gauges, histograms = {}, {}, {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = {"help": metric.help, "value": metric.value}
            elif isinstance(metric, Gauge):
                gauges[name] = {"help": metric.help, "value": metric.value}
            else:
                histograms[name] = {
                    "help": metric.help,
                    "buckets": list(metric.buckets),
                    "counts": list(metric.counts),
                    "count": metric.count,
                    "sum": metric.sum,
                    "min": metric.min,
                    "max": metric.max,
                }
        return {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_prometheus_text(self):
        """Render the registry in the Prometheus text exposition format.

        One ``# HELP`` / ``# TYPE`` pair per metric; histograms expose the
        conventional ``_bucket`` (with *cumulative* counts and a closing
        ``le="+Inf"``), ``_sum``, and ``_count`` series.  The numbers are
        exactly the ones ``snapshot()`` reports — only the rendering (and
        the per-bucket → cumulative conversion) differs, so the exporter
        round-trips against the snapshot.
        """
        lines = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            pname = _prometheus_name(name)
            help_text = " ".join((metric.help or "").split())
            if help_text:
                lines.append(f"# HELP {pname} {help_text}")
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {pname} counter")
                lines.append(f"{pname} {_prometheus_value(metric.value)}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {pname} gauge")
                lines.append(f"{pname} {_prometheus_value(metric.value)}")
            else:
                lines.append(f"# TYPE {pname} histogram")
                cumulative = 0
                for bound, count in zip(metric.buckets, metric.counts):
                    cumulative += count
                    lines.append(
                        f'{pname}_bucket{{le="{_prometheus_value(bound)}"}} '
                        f"{cumulative}")
                cumulative += metric.counts[-1]
                lines.append(f'{pname}_bucket{{le="+Inf"}} {cumulative}')
                lines.append(f"{pname}_sum {_prometheus_value(metric.sum)}")
                lines.append(f"{pname}_count {metric.count}")
        return "\n".join(lines) + "\n" if lines else ""

    def __repr__(self):
        return f"MetricsRegistry({len(self._metrics)} metrics)"
