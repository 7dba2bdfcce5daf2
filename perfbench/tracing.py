"""Span tracing around calls into the program's layers, from outside it.

The tracer patches public functions and methods of the ``repro`` modules
with thin wrappers that record one span per call: name, start, end,
parent span and thread.  Spans stay in memory and are written out when
the benchmark ends.  Nothing in ``src/`` knows the tracer exists; removing
the patches restores the original callables.

A span's *self time* is its duration minus the time its child spans cover.
Spans nest per thread, so the telemetry sampler's background publishes
form their own roots and never count against the main thread's spans.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _targets():
    """``(owner, attribute, span name)`` for every traced call site."""
    from repro import models
    from repro import scenario as scenario_pkg
    from repro.campaign import resume, runner
    from repro.core import fault_injection
    from repro.nn import functional, segment
    from repro.scenario import compile as scenario_compile
    from repro.scenario import resident
    from repro.telemetry import bus

    fi = fault_injection.FaultInjection
    return [
        (models, "get_model", "models.build"),
        (functional, "conv2d", "nn.conv2d"),
        (functional, "conv2d_lanes", "nn.conv2d_lanes"),
        (functional, "linear", "nn.linear"),
        (functional, "linear_lanes", "nn.linear_lanes"),
        (functional, "batch_norm", "nn.batch_norm"),
        (fi, "_profile", "core.profile"),
        (fi, "segmented", "core.segment_trace"),
        (fi, "instrument", "core.instrument"),
        (fi, "reset", "core.reset"),
        (runner.InjectionCampaign, "_build_pool", "campaign.pool"),
        (runner.InjectionCampaign, "_plan", "campaign.plan"),
        (runner.InjectionCampaign, "run", "campaign.run"),
        (resume.CampaignResumeEngine, "capture", "resume.capture"),
        (resume.CampaignResumeEngine, "store_rows", "resume.store_rows"),
        (resume.CampaignResumeEngine, "plan_chunk", "resume.plan_chunk"),
        (segment.SegmentedForward, "run_from", "resume.run_from"),
        (scenario_pkg, "compile_scenario", "scenario.compile"),
        (scenario_pkg, "run_scenario", "scenario.run"),
        (scenario_compile, "sample_resident_faults", "scenario.resident_sample"),
        (resident.ResidentFaultSet, "apply", "scenario.resident_apply"),
        (resident.ResidentFaultSet, "restore", "scenario.resident_restore"),
        (bus.TelemetryBus, "publish", "telemetry.publish"),
    ]


# Hook factories whose returned closures run once per instrumented layer
# call; their spans give the per-forward hook cost.
_HOOK_FACTORIES = ("_make_neuron_hook", "_make_weight_lane_hook")


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent record or None, thread id]
        self.conv_flop = 0
        self.conv_im2col_bytes = 0
        self.publish_sources = Counter()
        self._local = threading.local()
        self._saved = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter
        ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = stack_of()
            record = [name, 0.0, 0.0, stack[-1] if stack else None, ident()]
            spans.append(record)
            stack.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        """Record one span around a block."""
        stack = self._stack()
        record = [name, 0.0, 0.0, stack[-1] if stack else None,
                  threading.get_ident()]
        self.spans.append(record)
        stack.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def _conv_wrapper(self, fn):
        traced = self.wrap("nn.conv2d", fn)
        tracer = self

        def conv2d(x, weight, bias=None, stride=1, padding=0, dilation=1, groups=1):
            n, c, h, w = x.shape
            oc, cg, kh, kw = weight.shape
            sh, sw = (stride, stride) if isinstance(stride, int) else stride
            ph, pw = (padding, padding) if isinstance(padding, int) else padding
            oh = (h + 2 * ph - kh) // sh + 1
            ow = (w + 2 * pw - kw) // sw + 1
            tracer.conv_flop += 2 * n * oc * oh * ow * cg * kh * kw
            if (kh, kw) != (1, 1) or ph or pw:
                # The im2col copy: one (N, G, OH*OW, Cg*KH*KW) matrix.
                tracer.conv_im2col_bytes += (n * oh * ow * c * kh * kw
                                             * x.data.itemsize)
            return traced(x, weight, bias, stride, padding, dilation, groups)

        return conv2d

    def _publish_wrapper(self, fn):
        traced = self.wrap("telemetry.publish", fn)
        sources = self.publish_sources

        def publish(bus, source, kind, data, worker=None):
            sources[source] += 1
            return traced(bus, source, kind, data, worker)

        return publish

    def _hook_factory_wrapper(self, fn):
        tracer = self

        def factory(*args, **kwargs):
            return tracer.wrap("core.hook", fn(*args, **kwargs))

        return factory

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #

    def install(self):
        from repro.core.fault_injection import FaultInjection

        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            if name == "nn.conv2d":
                patched = self._conv_wrapper(original)
            elif name == "telemetry.publish":
                patched = self._publish_wrapper(original)
            else:
                patched = self.wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, patched)
        for attr in _HOOK_FACTORIES:
            original = FaultInjection.__dict__[attr]
            self._saved.append((FaultInjection, attr, original))
            setattr(FaultInjection, attr, self._hook_factory_wrapper(original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------------ #
    # Reduction
    # ------------------------------------------------------------------ #

    def self_times(self, thread=None):
        """``{name: (calls, total_s, self_s)}`` over spans of ``thread``
        (all threads when None)."""
        child_time = defaultdict(float)
        for name, start, end, parent, tid in self.spans:
            if parent is not None:
                child_time[id(parent)] += end - start
        out = {}
        for record in self.spans:
            name, start, end, _, tid = record
            if thread is not None and tid != thread:
                continue
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            duration = end - start
            out[name] = (calls + 1, total + duration,
                         self_s + duration - child_time[id(record)])
        return out

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def chunk_durations(self):
        """Campaign chunk times: each ``core.instrument`` start inside a
        ``campaign.run`` span to the end of the ``core.reset`` that follows."""
        out = []
        opened = None
        for name, start, end, parent, _ in self.spans:
            if name == "core.instrument" and self._inside(parent, "campaign.run"):
                opened = start
            elif name == "core.reset" and opened is not None:
                out.append(end - opened)
                opened = None
        return out

    @staticmethod
    def _inside(record, name):
        while record is not None:
            if record[0] == name:
                return True
            record = record[3]
        return False

    def export(self):
        """JSON-ready span list with parent indices."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        return [
            {"name": name, "start_s": start, "end_s": end,
             "parent": index.get(id(parent)) if parent is not None else None,
             "thread": tid}
            for name, start, end, parent, tid in self.spans
        ]
