"""Automatic profiling from outside the program: layer hooks, campaign call sites.

:func:`instrument` attaches one forward pre-hook / forward hook pair to
every module of a model; each forward of a module opens a span named
after its dotted path, tagged with the layer type, and annotated on close
with the output shape and dtype.  Because containers call their children
inside their own forward, the spans nest into the module tree exactly —
a ``Sequential`` span encloses its convolutions' spans — which is what
makes the Chrome-trace view a layer flame graph.

The hooks return ``None`` always (they never replace inputs or outputs),
draw from no random generator, and only read the output's ``shape`` /
``dtype``, so an instrumented forward is bit-identical to a plain one.

:func:`campaign_spans` does the same for campaign phases, from outside
campaign code: it wraps a fixed table of call sites on their classes
while open, and the wrappers only read.
"""

from __future__ import annotations

import functools
import inspect
import os
from contextlib import contextmanager

from .. import tensor as T
from ..telemetry import TelemetryBus, coerce_bus
from ..tensor import Tensor, no_grad
from .export import span_records
from .profiler import Profiler


def _shape_of(output):
    if isinstance(output, Tensor):
        return tuple(int(s) for s in output.shape), str(output.dtype)
    if isinstance(output, (tuple, list)) and output:
        return _shape_of(output[0])
    return None, None


@contextmanager
def instrument(model, profiler, prefix=""):
    """Profile every module forward of ``model`` while the context is open.

    One span per module call, named by the module's dotted path (the root
    module uses its class name), category ``"layer"``, tagged with
    ``type`` and — after the forward — ``shape`` and ``dtype``.  Handles
    are removed on exit even if the forward raises; an exception mid-
    forward also unwinds any spans left open by never-fired post-hooks.
    """
    opened = []  # stack of span contexts, pushed by pre-hooks
    handles = []

    def make_pre(name, module_type):
        def pre_hook(module, inputs):
            ctx = profiler.span(name, cat="layer", type=module_type)
            ctx.__enter__()
            opened.append(ctx)
        return pre_hook

    def post_hook(module, inputs, output):
        if not opened:
            return None
        ctx = opened.pop()
        shape, dtype = _shape_of(output)
        if shape is not None:
            ctx._span.annotate(shape=list(shape), dtype=dtype)
        ctx.__exit__(None, None, None)
        return None

    for name, module in model.named_modules(prefix=prefix):
        module_type = type(module).__name__
        label = f"{name} ({module_type})" if name else module_type
        handles.append(module.register_forward_pre_hook(make_pre(label, module_type)))
        handles.append(module.register_forward_hook(post_hook))
    try:
        yield model
    finally:
        for handle in handles:
            handle.remove()
        while opened:  # forward raised: close abandoned spans innermost-first
            opened.pop().__exit__(None, None, None)


def _chunk_args(args, result):
    perf = result[0]["perf"]  # the returned chunk record's
    out = {"layer": result[0]["layer"], "injections": result[0]["injections"],
           "resumed": bool(perf["resumed_forwards"])}
    if args["self"]._resume is not None:
        out.update((key, perf[key]) for key in
                   ("cache_hits", "cache_misses", "cache_evictions"))
    return out


def _campaign_sites():
    """``(owner, attribute, span name, annotate)`` per campaign call site;
    ``annotate(arguments, result)`` maps the bound call arguments and return
    value to the span's annotations.  A span's category is its name's
    prefix."""
    from ..campaign.parallel import ParallelCampaignExecutor as fleet
    from ..campaign.resume import CampaignResumeEngine as engine
    from ..campaign.runner import InjectionCampaign as campaign
    from ..observe.tracer import PropagationTracer as tracer

    return [
        (campaign, "_build_pool", "campaign.pool",
         lambda a, out: {"pool_size": a["pool_size"]}),
        (campaign, "_plan", "campaign.plan", lambda a, out: {"injections": a["n"]}),
        (campaign, "_run_chunk", "campaign.chunk", _chunk_args),
        (campaign, "_replay", "campaign.replay",
         lambda a, out: {"mode": "chain" if a["resume_plan"][0] is not None
                         else "stub", "skipped": a["resume_plan"][3]}),
        (campaign, "_forward", "campaign.forward", lambda a, out: {}),
        (engine, "capture", "resume.capture",
         lambda a, out: {"batch": int(a["x"].shape[0])}),
        (engine, "plan_chunk", "resume.plan",
         lambda a, out: {"layer": int(a["layer_idx"]), "chunk": len(a["pool_indices"])}),
        (tracer, "prepare_chunk", "campaign.observe",
         lambda a, out: {"phase": "prepare", "layer": int(a["layer_idx"])}),
        (tracer, "record_chunk", "campaign.observe", lambda a, out: {"phase": "record"}),
        (fleet, "execute", "campaign.parallel",
         lambda a, out: {"workers": len(a["self"].handles),
                         "pids": [int(h.proc.pid) for h in a["self"].handles.values()]}),
        (fleet, "finish", "campaign.merge",
         lambda a, out: {"workers": len(a["self"].handles)}),
    ]


class _CampaignRecorder:
    """The spans of an open :func:`campaign_spans`, in this process."""

    def __init__(self, profiler):
        self.profiler = profiler
        self.pid = os.getpid()
        self.forked = False

    def here(self):
        """This process's profiler: a forked worker starts a fresh one (the
        parent's, forked along, holds the parent's spans)."""
        if os.getpid() != self.pid:
            self.pid, self.profiler, self.forked = os.getpid(), Profiler(), True
        return self.profiler

    def wrap(self, fn, name, annotate):
        signature = inspect.signature(fn)
        cat = name.split(".")[0]
        ships = name == "campaign.chunk"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                with self.here().span(name, cat=cat) as span:
                    result = fn(*args, **kwargs)
                span.annotate(**annotate(signature.bind(*args, **kwargs).arguments,
                                         result))
                if ships and self.forked:  # home on the worker's private bus
                    args[0].telemetry.publish("profile", "spans", {
                        "pid": self.pid, "spans": span_records(self.profiler)})
                return result
            finally:
                if ships and self.forked:  # a failed attempt's spans go with it
                    self.profiler.reset()

        return traced

    def wrap_run(self, fn):
        """Attach :meth:`Profiler.consume` to the run's bus for one run."""
        @functools.wraps(fn)
        def run(campaign, *args, telemetry=None, **kwargs):
            bus = coerce_bus(telemetry) or TelemetryBus()
            consume = self.here().consume
            bus.add_consumer(consume)
            try:
                return fn(campaign, *args, telemetry=bus, **kwargs)
            finally:
                bus.remove_consumer(consume)

        return run


_recording = False  # a campaign_spans() context is open


@contextmanager
def campaign_spans(profiler):
    """Record campaign phases as spans into ``profiler`` while open.

    Wraps each call site of :func:`_campaign_sites` on its class, and
    ``InjectionCampaign.run`` to attach :meth:`Profiler.consume` to the
    run's bus, where each chunk a forked worker ran arrives as one
    ``("profile", "spans")`` row for that worker's pid lane.  Restores
    every original on exit, also by an exception.  Only one may be open.
    """
    global _recording
    from ..campaign.runner import InjectionCampaign

    if _recording:
        raise RuntimeError("campaign_spans is already open")
    _recording = True
    recorder = _CampaignRecorder(profiler)
    saved = []
    try:
        for owner, attr, name, annotate in _campaign_sites():
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, recorder.wrap(saved[-1][2], name, annotate))
        saved.append((InjectionCampaign, "run", InjectionCampaign.__dict__["run"]))
        InjectionCampaign.run = recorder.wrap_run(saved[-1][2])
        yield profiler
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        _recording = False


def profile_forward(model, x, profiler=None, warmup=0, label="forward"):
    """Profile ``model(x)`` per layer; returns ``(output, profiler)``.

    ``warmup`` extra unprofiled forwards run first (JIT-free numpy has no
    compile step, but allocator warm-up still shifts first-call timings).
    The profiled forward runs under one root span named ``label`` so the
    per-layer spans always have a wall-clock parent to sum against.
    """
    profiler = profiler if profiler is not None else Profiler()
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            for _ in range(warmup):
                model(x)
            with instrument(model, profiler):
                with profiler.span(label, cat="phase", batch=int(x.shape[0])):
                    output = model(x)
    finally:
        model.train(was_training)
    return output, profiler


def profile_model(name, dataset="cifar10", scale="small", seed=0, batch_size=1,
                  profiler=None, warmup=0):
    """Build a zoo model and profile one forward (the CLI entry point).

    Returns ``(output, profiler, fi_summaryish)`` where the last element
    is a dict describing what was profiled (model/dataset/shape), merged
    into the JSON summary artifact.
    """
    from .. import models

    T.manual_seed(seed)
    net = models.get_model(name, dataset, scale=scale, rng=T.spawn(seed))
    _, size = models.dataset_preset(dataset)
    x = T.randn(batch_size, 3, size, size, rng=seed + 1)
    output, profiler = profile_forward(net, x, profiler=profiler, warmup=warmup)
    meta = {
        "model": name,
        "dataset": dataset,
        "scale": scale,
        "seed": seed,
        "batch_size": batch_size,
        "input_shape": [3, size, size],
    }
    return output, profiler, meta
