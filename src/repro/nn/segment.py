"""Segmented forward execution for layer-truncated re-execution.

An injection at instrumentable layer *k* leaves everything the network
computes *before* layer ``k`` bit-identical to the clean run, so a campaign
that caches clean intermediate activations can resume each perturbed forward
from the deepest checkpoint instead of re-running the whole prefix (the
validation-efficiency lever of the Intel PyTorchFI extension,
arXiv:2310.19449).

:class:`SegmentedForward` discovers, by *tracing tensor identities* through
one forward pass, whether a model factors into a linear chain of module
calls::

    model(x) == seg[n-1](... seg[1](seg[0](x)))

Discovery is recursive: a container whose direct children link input to
output by exact tensor identity is split into those children, and each child
is refined further.  Modules whose internals do not chain (e.g. a residual
block, whose ``+`` happens outside any module) stay atomic segments.  Models
that do not chain at all collapse to a single segment — callers treat that
as "resume unavailable" and fall back to full forwards, so the abstraction
is always safe, never wrong.

The chain found by tracing is verified by re-running the composition and
comparing against the direct forward bit-for-bit before it is trusted.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..tensor import Tensor, no_grad
from .module import Module


class _Frame:
    """One traced module call: which tensor went in, which came out."""

    __slots__ = ("module", "input_id", "output_id", "children")

    def __init__(self, module, input_id):
        self.module = module
        self.input_id = input_id
        self.output_id = None
        self.children = []


def _chainify(frame):
    """Refine one traced call into the finest chain of sub-calls.

    Returns a list of frames whose composition reproduces ``frame``'s
    computation, or ``[frame]`` when its children do not link input to
    output by tensor identity (the atomic case).
    """
    if frame.input_id is None or frame.output_id is None:
        return [frame]
    remaining = list(frame.children)
    chain = []
    cur = frame.input_id
    while cur != frame.output_id:
        nxt = None
        for i, child in enumerate(remaining):
            if child.input_id == cur and child.output_id is not None:
                nxt = remaining.pop(i)
                break
        if nxt is None:
            return [frame]
        chain.append(nxt)
        cur = nxt.output_id
    return [sub for child in chain for sub in _chainify(child)]


class SegmentedForward:
    """A model factored into a verified linear chain of module segments.

    Build one with :meth:`trace`.  When :attr:`is_chain` is true,
    ``run_from(s, x)`` replays the model from the input of segment ``s``
    and :meth:`capture` returns every segment-boundary activation of a
    clean forward alongside its output.
    """

    def __init__(self, model, segments, execution_order):
        self.model = model
        self.segments = segments if segments else None
        self.execution_order = execution_order
        self._segment_of = {}
        if self.segments:
            for index, segment in enumerate(self.segments):
                for _, module in segment.named_modules():
                    if id(module) in self._segment_of:
                        # A module reachable from two segments (shared
                        # weights/submodule): mapping is ambiguous, so the
                        # chain cannot anchor injections. Treat as no chain.
                        self.segments = None
                        self._segment_of = {}
                        return
                    self._segment_of[id(module)] = index

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def trace(cls, model, example_input, track=()):
        """Trace one forward of ``model`` and factor it into segments.

        ``track`` is an optional list of modules whose execution order
        should be recorded (the fault injector passes its instrumentable
        layers so callers can check trace order against profile order).
        Tracing never raises on un-chainable models; the result simply has
        ``is_chain == False``.
        """
        frames_stack = []
        roots = []
        keepalive = []  # hold tensor refs so id() stays unique for the trace
        order = []
        tracked_ids = {id(m) for m in track}
        handles = []

        def pre_hook(module, inputs):
            input_id = None
            if len(inputs) == 1 and isinstance(inputs[0], Tensor):
                input_id = id(inputs[0])
                keepalive.append(inputs[0])
            frame = _Frame(module, input_id)
            if frames_stack:
                frames_stack[-1].children.append(frame)
            else:
                roots.append(frame)
            frames_stack.append(frame)

        def post_hook(module, inputs, output):
            frame = frames_stack.pop()
            if isinstance(output, Tensor):
                frame.output_id = id(output)
                keepalive.append(output)
            if id(module) in tracked_ids:
                order.append(module)

        seen = set()
        for _, module in model.named_modules():
            if id(module) in seen:
                continue
            seen.add(id(module))
            handles.append(module.register_forward_pre_hook(pre_hook))
            handles.append(module.register_forward_hook(post_hook))
        was_training = model.training
        model.eval()
        try:
            try:
                with no_grad():
                    reference = model(example_input)
            finally:
                for handle in handles:
                    handle.remove()
            segments = None
            if len(roots) == 1:
                chain = _chainify(roots[0])
                if chain != [roots[0]] and chain:
                    segments = [frame.module for frame in chain]
            built = cls(model, segments, order)
            if built.segments and not built._verify(example_input, reference):
                built.segments = None
                built._segment_of = {}
        finally:
            model.train(was_training)
        return built

    def _verify(self, example_input, reference):
        """Check the composed chain reproduces the direct forward bitwise."""
        try:
            with no_grad():
                out = self.run_from(0, example_input)
        except Exception:
            return False
        return (
            isinstance(out, Tensor)
            and out.data.shape == reference.data.shape
            and np.array_equal(out.data, reference.data)
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def is_chain(self):
        return bool(self.segments)

    @property
    def num_segments(self):
        return len(self.segments) if self.segments else 0

    def segment_of(self, module):
        """The segment index whose subtree contains ``module`` (or None)."""
        return self._segment_of.get(id(module))

    def __repr__(self):
        if not self.is_chain:
            return "SegmentedForward(no chain)"
        names = [type(s).__name__ for s in self.segments]
        return f"SegmentedForward({len(names)} segments: {', '.join(names)})"

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run_from(self, index, x, stop=None):
        """Replay the model from the *input* of segment ``index``, up to
        the input of segment ``stop`` (default: to the output)."""
        if not self.segments:
            raise RuntimeError("model did not factor into a segment chain")
        if not 0 <= index <= len(self.segments):
            raise IndexError(f"segment index {index} out of range")
        for segment in self.segments[index:stop]:
            x = segment(x)
        return x

    def capture(self, x):
        """Full forward returning ``(output, boundaries)``.

        ``boundaries[s]`` is the tensor fed into segment ``s`` —
        ``boundaries[0]`` is the model input itself, and resuming later via
        ``run_from(s, boundaries[s])`` reproduces the forward bit-for-bit.
        """
        if not self.segments:
            raise RuntimeError("model did not factor into a segment chain")
        boundaries = []
        for segment in self.segments:
            boundaries.append(x)
            x = segment(x)
        return x, boundaries

    @contextmanager
    def stub_outputs(self, pairs):
        """Temporarily replace ``module.forward`` with cached outputs.

        ``pairs`` is an iterable of ``(module, tensor)``; inside the context
        each module returns its tensor without computing, while its forward
        hooks (i.e. injections) still fire on the substituted output.
        """
        stubbed = []
        try:
            for module, tensor in pairs:
                module.forward = _make_stub(tensor)
                stubbed.append(module)
            yield
        finally:
            for module in stubbed:
                del module.forward


def _make_stub(tensor):
    def stub(*inputs, **kwargs):
        return tensor

    return stub


def segment_model(model, example_input, track=()):
    """Convenience wrapper over :meth:`SegmentedForward.trace`."""
    if not isinstance(model, Module):
        raise TypeError(f"expected a Module, got {type(model).__name__}")
    return SegmentedForward.trace(model, example_input, track=track)
