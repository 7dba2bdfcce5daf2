"""Hierarchical span tracer on ``time.perf_counter``.

A :class:`Profiler` records a tree of :class:`Span` objects.  Spans open
via the ``profiler.span("name")`` context manager (also usable as a
decorator) and nest naturally with the call stack; each span records wall
clock, tensor-allocation bytes (via the :mod:`repro.tensor` allocation
hook), and arbitrary key/value annotations.  Three properties the rest of
the repo relies on:

* **Opt-in and bitwise invisible.**  The tracer draws from no random
  generator and never touches model state, so anything profiled produces
  bit-identical outputs.  Program code opens no spans itself: spans come
  from hooks (:func:`~repro.profile.instrument`) or from call sites
  wrapped while :func:`~repro.profile.campaign_spans` is open, so an
  unprofiled run executes no profiling code at all.
* **Self-time, not just totals.**  ``Span.self_seconds`` subtracts child
  spans, so a hierarchical report sums to ≤ the enclosing wall clock.
* **Honest overhead accounting.**  The bookkeeping the profiler performs
  on span entry/exit happens *outside* the recorded ``[start, end]``
  window and is tallied separately (``Span.overhead_s``,
  ``Profiler.overhead_s``), so the tool reports its own cost instead of
  smearing it into the measurement.
"""

from __future__ import annotations

import functools
import time

from ..tensor.tensor import set_alloc_hook as _set_alloc_hook


class Span:
    """One timed region: a node in the profiler's span tree."""

    __slots__ = ("name", "cat", "args", "start", "end", "parent", "children",
                 "alloc_bytes", "overhead_s")

    def __init__(self, name, cat="", args=None):
        self.name = name
        self.cat = cat
        self.args = dict(args) if args else {}
        self.start = 0.0
        self.end = 0.0
        self.parent = None
        self.children = []
        self.alloc_bytes = 0
        self.overhead_s = 0.0

    @property
    def duration_s(self):
        return self.end - self.start

    @property
    def self_seconds(self):
        """Time spent in this span minus time attributed to child spans.

        Child bookkeeping overhead happens inside this span's window but
        outside every child's, so it is subtracted too — self-time answers
        "where did the measured program spend its time", not "where did
        the profiler".
        """
        inner = sum(c.duration_s + c.overhead_s for c in self.children)
        return self.duration_s - inner

    def annotate(self, **kwargs):
        """Attach key/value metadata (exported into trace/event ``args``)."""
        self.args.update(kwargs)
        return self

    def __repr__(self):
        return (f"Span({self.name!r}, {self.duration_s * 1e3:.3f}ms, "
                f"self {self.self_seconds * 1e3:.3f}ms, "
                f"{len(self.children)} children)")


class _SpanContext:
    """Context manager / decorator binding one span to one profiler.

    ``with profiler.span("x") as span:`` yields the live :class:`Span`
    so the body can ``span.annotate(...)``.  As a decorator each call
    opens a fresh span.
    """

    __slots__ = ("profiler", "name", "cat", "args", "_span")

    def __init__(self, profiler, name, cat, args):
        self.profiler = profiler
        self.name = name
        self.cat = cat
        self.args = args
        self._span = None

    def __enter__(self):
        prof = self.profiler
        t0 = prof.clock()
        span = Span(self.name, self.cat, self.args)
        span.parent = prof._stack[-1] if prof._stack else None
        if span.parent is not None:
            span.parent.children.append(span)
        else:
            prof.roots.append(span)
        prof.spans.append(span)
        prof._stack.append(span)
        if prof.track_allocations and len(prof._stack) == 1:
            _set_alloc_hook(prof._on_alloc)
        self._span = span
        span.start = prof.clock()
        entry_cost = span.start - t0
        span.overhead_s += entry_cost
        prof.overhead_s += entry_cost
        return span

    def __exit__(self, *exc_info):
        span = self._span
        prof = self.profiler
        span.end = prof.clock()
        prof._stack.pop()
        if prof.track_allocations and not prof._stack:
            _set_alloc_hook(None)
        self._span = None
        exit_cost = prof.clock() - span.end
        span.overhead_s += exit_cost
        prof.overhead_s += exit_cost
        return False

    def __call__(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with _SpanContext(self.profiler, self.name, self.cat, self.args):
                return fn(*args, **kwargs)
        return wrapper


class Profiler:
    """Collects a span tree for one profiled run.

    Parameters
    ----------
    clock:
        Monotonic time source (seconds); ``time.perf_counter`` by default.
        Tests inject deterministic clocks.
    track_allocations:
        When True (default), :class:`~repro.tensor.Tensor` constructions
        occurring while a span is open are charged to the innermost open
        span as ``alloc_bytes``.  Only one allocation-tracking profiler
        can be live at a time (the hook is a module-level slot).
    """

    def __init__(self, clock=time.perf_counter, track_allocations=True):
        self.clock = clock
        self.track_allocations = track_allocations
        self.roots = []
        self.spans = []  # every span, in start order
        self.foreign_spans = []  # worker span records, see consume()
        self.overhead_s = 0.0
        self._stack = []

    def span(self, name, cat="", **args):
        """Open a span: ``with profiler.span("phase", key=value) as s:``."""
        return _SpanContext(self, name, cat, args)

    @property
    def current(self):
        """The innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    @property
    def total_seconds(self):
        """Wall clock covered by root spans (what summaries normalise by)."""
        return sum(root.duration_s for root in self.roots)

    def _on_alloc(self, nbytes):
        if self._stack:
            self._stack[-1].alloc_bytes += nbytes

    def consume(self, envelope):
        """The profiler's campaign-bus consumer.

        A worker's ``profile/spans`` row (:func:`~repro.profile.export.span_records`
        with absolute ``perf_counter`` times, a timeline forked workers
        share) joins :attr:`foreign_spans` as that worker's pid lane.  Each
        record's ``parent`` index, relative to its row, is rebased onto
        :attr:`foreign_spans`.
        """
        if (envelope["source"], envelope["kind"]) == ("profile", "spans"):
            data = envelope["data"]
            name = f"repro.worker[{envelope['worker']}]"
            base = len(self.foreign_spans)
            self.foreign_spans.extend(
                dict(record, pid=int(data["pid"]), process_name=name,
                     parent=None if record["parent"] is None
                     else base + record["parent"])
                for record in data["spans"])

    def reset(self):
        """Drop all recorded spans (the clock choice stays)."""
        if self._stack:
            raise RuntimeError("cannot reset a profiler with open spans")
        self.roots = []
        self.spans = []
        self.foreign_spans = []
        self.overhead_s = 0.0
        return self

    def __repr__(self):
        return (f"Profiler({len(self.spans)} spans, "
                f"{self.total_seconds * 1e3:.3f}ms recorded, "
                f"overhead {self.overhead_s * 1e3:.3f}ms)")
