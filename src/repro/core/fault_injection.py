"""The runtime perturbation engine (the paper's primary contribution).

Usage mirrors the three steps of paper §III-B::

    from repro import core, models, tensor

    net = models.resnet18(num_classes=10)                 # (1) a model
    fi = core.FaultInjection(net, batch_size=4,
                             input_shape=(3, 32, 32))     # (2) init + profile
    corrupt = fi.declare_neuron_fault_injection(          # (3) perturb
        layer_num=[2], batch=[-1], dim1=[0], dim2=[1], dim3=[1],
        function=core.RandomValue(-1, 1))
    output = corrupt(tensor.randn(4, 3, 32, 32))

Design notes (paper §III-A):

* **Neuron** perturbations install a *forward hook* on each targeted layer;
  the hook replaces the layer output with a copy whose selected positions
  hold the error-model's values.  Nothing in the model or the engine is
  patched, and layers without injections pay only one dict lookup — the
  source of the near-zero overhead shown in Fig. 3.
* **Weight** perturbations are *offline* by default: the weight tensor is
  rewritten before inference (and restorable afterwards), so they cost
  nothing at runtime.  A :class:`WeightSite` with ``batch >= 0`` instead
  confines the fault to one batch lane at runtime (a forward hook re-runs
  that row through the layer with the perturbed weight), which lets a
  batched forward carry many independent weight faults.
* At construction the engine runs a single dummy inference to profile every
  instrumentable layer's output geometry, which is used to validate
  user-supplied locations and to sample random ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .. import nn
from ..tensor import Tensor, no_grad
from ..tensor import rng as _rng
from .error_models import InjectionContext, as_error_model

DEFAULT_LAYER_TYPES = (nn.Conv2d,)


@dataclass(frozen=True)
class LayerInfo:
    """Profile record for one instrumentable layer (from the dummy inference)."""

    index: int
    name: str
    module_type: str
    output_shape: tuple  # includes the batch dimension
    weight_shape: Optional[tuple]
    dtype: str

    @property
    def neuron_shape(self):
        """Per-example output geometry (output shape without the batch dim)."""
        return self.output_shape[1:]

    @property
    def neurons_per_example(self):
        return math.prod(self.neuron_shape)

    @property
    def weights(self):
        return math.prod(self.weight_shape) if self.weight_shape else 0


@dataclass
class NeuronSite:
    """One declared neuron injection site.

    ``rng`` optionally pins this site's error-model draws to its own
    generator; campaigns use that to make each injection's randomness
    independent of the order sites are executed in.
    """

    layer: int
    batch: int  # -1 means every element of the batch
    coords: tuple  # indices into the per-example output geometry
    error_model: object
    quantization: object = None
    rng: object = None


@dataclass
class WeightSite:
    """One declared weight injection site.

    ``batch = -1`` (the default) rewrites the shared weight offline, so
    the fault affects every element of the batch.  ``batch >= 0`` selects
    the lane-packed runtime path instead: the fault is confined to that
    one batch row, realised by re-running the row alone through the
    layer's kernel with the perturbed weight (bitwise-restored after) —
    which is what lets many independent weight faults share one batched
    forward.
    """

    layer: int
    coords: tuple  # full index into the weight tensor
    error_model: object
    quantization: object = None
    rng: object = None
    batch: int = -1


@dataclass
class InjectionRecord:
    """What a convenience injector actually did (for campaign logging)."""

    kind: str  # "neuron" or "weight"
    sites: list = field(default_factory=list)

    def __iter__(self):
        return iter(self.sites)

    def __len__(self):
        return len(self.sites)


class FaultInjection:
    """Profile a model once, then declare runtime perturbations on it.

    Parameters
    ----------
    model:
        The network to perturb.  It is never modified: every ``declare_*``
        call returns an independent instrumented clone (pass
        ``clone=False`` to instrument in place instead).
    batch_size:
        Batch size the perturbed model will be run with; injection batch
        indices are validated against it.
    input_shape:
        Per-example input shape, e.g. ``(3, 224, 224)``.
    layer_types:
        Module classes eligible for injection.  Defaults to convolutions
        only, matching the paper; pass ``(nn.Conv2d, nn.Linear)`` to cover
        fully-connected layers too.
    rng:
        Seed / generator for every random choice made by this engine.
    """

    def __init__(self, model, batch_size, input_shape=(3, 32, 32), layer_types=None,
                 rng=None, dtype=None):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.model = model
        self.batch_size = int(batch_size)
        self.input_shape = tuple(int(s) for s in input_shape)
        self.layer_types = tuple(layer_types) if layer_types else DEFAULT_LAYER_TYPES
        self.rng = _rng.coerce_generator(rng)
        self.dtype = dtype
        self.layers = self._profile()
        self._corrupted = []  # (model, handles, weight_snapshots)

    # ------------------------------------------------------------------ #
    # Profiling (paper §III-B step 2)
    # ------------------------------------------------------------------ #

    def _iter_instrumentable(self, model):
        for name, module in model.named_modules():
            if isinstance(module, self.layer_types):
                yield name, module

    def _profile(self):
        records = []
        handles = []

        def make_recorder(name):
            def recorder(module, inputs, output):
                weight = getattr(module, "weight", None)
                records.append(
                    LayerInfo(
                        index=len(records),
                        name=name,
                        module_type=type(module).__name__,
                        output_shape=tuple(output.shape),
                        weight_shape=tuple(weight.shape) if weight is not None else None,
                        dtype=str(output.dtype),
                    )
                )

            return recorder

        for name, module in self._iter_instrumentable(self.model):
            handles.append(module.register_forward_hook(make_recorder(name)))
        was_training = self.model.training
        self.model.eval()
        try:
            dummy = Tensor(np.zeros((self.batch_size, *self.input_shape), dtype=np.float32))
            if self.dtype is not None:
                dummy = dummy.astype(self.dtype)
            with no_grad():
                self.model(dummy)
        finally:
            for handle in handles:
                handle.remove()
            self.model.train(was_training)
        if not records:
            raise ValueError(
                f"model contains no layers of types {[t.__name__ for t in self.layer_types]}"
            )
        return records

    # ------------------------------------------------------------------ #
    # Introspection API
    # ------------------------------------------------------------------ #

    @property
    def num_layers(self):
        return len(self.layers)

    def layer(self, index):
        """The :class:`LayerInfo` for instrumentable layer ``index``."""
        if not 0 <= index < len(self.layers):
            raise IndexError(f"layer index {index} out of range [0, {len(self.layers)})")
        return self.layers[index]

    def output_size(self, layer_num):
        """Output shape (with batch dim) of layer ``layer_num``."""
        return self.layer(layer_num).output_shape

    def weight_size(self, layer_num):
        return self.layer(layer_num).weight_shape

    def total_neurons(self):
        """Neurons per example summed over all instrumentable layers."""
        return sum(info.neurons_per_example for info in self.layers)

    def total_weights(self):
        return sum(info.weights for info in self.layers)

    def summary(self):
        """A printable per-layer profile table."""
        lines = [f"{'idx':>4} {'type':<12} {'output shape':<22} {'weights':<20} name"]
        for info in self.layers:
            lines.append(
                f"{info.index:>4} {info.module_type:<12} {str(info.output_shape):<22} "
                f"{str(info.weight_shape):<20} {info.name}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def _validate_neuron_site(self, site):
        info = self.layer(site.layer)
        if site.batch != -1 and not 0 <= site.batch < self.batch_size:
            raise ValueError(
                f"batch index {site.batch} out of range for batch_size {self.batch_size} "
                f"(use -1 for all elements)"
            )
        shape = info.neuron_shape
        if len(site.coords) != len(shape):
            raise ValueError(
                f"layer {site.layer} ({info.name}) has per-example rank {len(shape)} "
                f"{shape}, got coords {site.coords}"
            )
        for axis, (coord, bound) in enumerate(zip(site.coords, shape)):
            if not 0 <= coord < bound:
                raise ValueError(
                    f"coordinate {coord} out of range [0, {bound}) on axis {axis} of "
                    f"layer {site.layer} ({info.name}, shape {shape})"
                )

    def _validate_weight_site(self, site):
        info = self.layer(site.layer)
        if info.weight_shape is None:
            raise ValueError(f"layer {site.layer} ({info.name}) has no weights")
        if len(site.coords) != len(info.weight_shape):
            raise ValueError(
                f"weight of layer {site.layer} has rank {len(info.weight_shape)} "
                f"{info.weight_shape}, got coords {site.coords}"
            )
        for axis, (coord, bound) in enumerate(zip(site.coords, info.weight_shape)):
            if not 0 <= coord < bound:
                raise ValueError(
                    f"weight coordinate {coord} out of range [0, {bound}) on axis {axis} "
                    f"of layer {site.layer} ({info.name})"
                )

    # ------------------------------------------------------------------ #
    # Declaration API (paper §III-B step 3)
    # ------------------------------------------------------------------ #

    @staticmethod
    def _broadcast_args(**kwargs):
        """Turn scalar-or-list keyword args into parallel per-site lists."""
        lengths = {len(v) for v in kwargs.values() if isinstance(v, (list, tuple))}
        if len(lengths) > 1:
            raise ValueError(f"injection argument lists have mismatched lengths: {lengths}")
        n = lengths.pop() if lengths else 1
        out = {}
        for key, value in kwargs.items():
            if isinstance(value, (list, tuple)):
                out[key] = list(value)
            else:
                out[key] = [value] * n
        return n, out

    def declare_neuron_fault_injection(self, layer_num, dim1, dim2=None, dim3=None,
                                       batch=-1, function=None, value=None,
                                       quantization=None, clone=True):
        """Install neuron perturbations; returns the instrumented model.

        All location arguments accept a scalar (one site) or parallel lists
        (many sites).  Either ``function`` (an error model per §III-B) or
        ``value`` (a constant) must be given.  ``dim2``/``dim3`` are omitted
        for layers whose per-example output is not 3-D (e.g. ``Linear``).
        """
        sites = self.make_neuron_sites(
            layer_num, dim1, dim2, dim3, batch=batch, function=function,
            value=value, quantization=quantization,
        )
        return self.instrument(neuron_sites=sites, clone=clone)

    def make_neuron_sites(self, layer_num, dim1, dim2=None, dim3=None, batch=-1,
                          function=None, value=None, quantization=None):
        """Build validated :class:`NeuronSite` records without instrumenting."""
        model_fn = self._resolve_model(function, value)
        n, args = self._broadcast_args(
            layer_num=layer_num, dim1=dim1, dim2=dim2, dim3=dim3, batch=batch,
            function=model_fn, quantization=quantization,
        )
        sites = []
        for i in range(n):
            dims = [args["dim1"][i], args["dim2"][i], args["dim3"][i]]
            coords = tuple(int(d) for d in dims if d is not None)
            site = NeuronSite(
                layer=int(args["layer_num"][i]),
                batch=int(args["batch"][i]),
                coords=coords,
                error_model=as_error_model(args["function"][i]),
                quantization=args["quantization"][i],
            )
            self._validate_neuron_site(site)
            sites.append(site)
        return sites

    def declare_weight_fault_injection(self, layer_num, coords=None, k=None, dim1=None,
                                       dim2=None, dim3=None, function=None, value=None,
                                       quantization=None, clone=True):
        """Perturb weights *offline* (paper §III-B); returns the model.

        ``coords`` is a full index tuple into the weight tensor (or a list
        of them); alternatively pass the pytorchfi-style ``k``/``dim1``/
        ``dim2``/``dim3`` split arguments for 4-D conv weights.
        """
        sites = self.make_weight_sites(
            layer_num, coords=coords, k=k, dim1=dim1, dim2=dim2, dim3=dim3,
            function=function, value=value, quantization=quantization,
        )
        return self.instrument(weight_sites=sites, clone=clone)

    def make_weight_sites(self, layer_num, coords=None, k=None, dim1=None, dim2=None,
                          dim3=None, function=None, value=None, quantization=None):
        """Build validated :class:`WeightSite` records without instrumenting."""
        model_fn = self._resolve_model(function, value)
        if coords is None:
            n, args = self._broadcast_args(
                layer_num=layer_num, k=k, dim1=dim1, dim2=dim2, dim3=dim3,
                function=model_fn, quantization=quantization,
            )
            coord_lists = [
                tuple(int(d) for d in (args["k"][i], args["dim1"][i], args["dim2"][i], args["dim3"][i]) if d is not None)
                for i in range(n)
            ]
        else:
            if isinstance(coords, tuple):
                coords = [coords]
            n, args = self._broadcast_args(
                layer_num=layer_num, coords=list(coords), function=model_fn,
                quantization=quantization,
            )
            coord_lists = [tuple(int(c) for c in args["coords"][i]) for i in range(n)]
        sites = []
        for i in range(n):
            site = WeightSite(
                layer=int(args["layer_num"][i]),
                coords=coord_lists[i],
                error_model=as_error_model(args["function"][i]),
                quantization=args["quantization"][i],
            )
            self._validate_weight_site(site)
            sites.append(site)
        return sites

    @staticmethod
    def _resolve_model(function, value):
        if function is None and value is None:
            raise ValueError("provide an error model via function= or a constant via value=")
        if function is not None and value is not None:
            raise ValueError("function= and value= are mutually exclusive")
        if function is not None:
            return function
        if isinstance(value, (list, tuple)):
            return [float(v) for v in value]
        return float(value)

    # ------------------------------------------------------------------ #
    # Instrumentation
    # ------------------------------------------------------------------ #

    def instrument(self, neuron_sites=(), weight_sites=(), clone=True):
        """Attach the given sites to a (cloned) model and return it.

        Neuron sites become forward hooks; weight sites rewrite the weight
        tensors immediately (offline).  Use :meth:`reset` to tear down
        every instrumented model this engine produced.
        """
        target = self.model.clone() if clone else self.model
        modules = [m for _, m in self._iter_instrumentable(target)]
        if len(modules) != len(self.layers):
            raise RuntimeError(
                "instrumentable layer count changed since profiling; re-create FaultInjection"
            )

        by_layer = {}
        for site in neuron_sites:
            by_layer.setdefault(site.layer, []).append(site)
        lanes_by_layer = {}
        offline_sites = []
        for site in weight_sites:
            if getattr(site, "batch", -1) >= 0:
                if site.batch >= self.batch_size:
                    raise ValueError(
                        f"weight-lane batch index {site.batch} out of range for "
                        f"batch_size {self.batch_size} (use -1 for a whole-batch "
                        f"offline rewrite)"
                    )
                lanes_by_layer.setdefault(site.layer, []).append(site)
            else:
                offline_sites.append(site)

        handles = []
        for layer_idx, layer_sites in by_layer.items():
            module = modules[layer_idx]
            hook = self._make_neuron_hook(layer_sites, self.layer(layer_idx))
            # Prepended so observer hooks (repro.observe) registered at any
            # time still see the post-injection output of the target layer.
            handles.append(module.register_forward_hook(hook, prepend=True))
        for layer_idx, layer_sites in lanes_by_layer.items():
            module = modules[layer_idx]
            hook = self._make_weight_lane_hook(layer_sites, self.layer(layer_idx))
            handles.append(module.register_forward_hook(hook, prepend=True))

        snapshots = []
        for site in offline_sites:
            module = modules[site.layer]
            weight = module.weight
            original = weight.data[site.coords]
            snapshots.append((weight, site.coords, original))
            ctx = InjectionContext(
                rng=site.rng if site.rng is not None else self.rng,
                layer=self.layer(site.layer), module=module,
                quantization=site.quantization,
            )
            new_value = site.error_model(np.asarray([original], dtype=weight.dtype), ctx)[0]
            weight.data[site.coords] = new_value

        self._corrupted.append((target, handles, snapshots))
        return target

    def _make_weight_lane_hook(self, sites, layer_info):
        """Realise per-lane (``batch >= 0``) weight faults on one layer.

        When the hook fires, the module's batched output was computed with
        the clean shared weight.  For each site the perturbed value is
        computed exactly as the offline path computes it (same error-model
        call, same RNG consumption); the site's batch row alone is then
        re-run through the module's own kernel via ``forward_lanes`` —
        never ``module(...)``, which would recursively re-fire this hook
        and any observer hooks — with the weight perturbed and bitwise-
        restored, and the resulting rows are spliced into the output.
        Convolution rows are batch-size-invariant (each row is an
        independent fixed-shape matmul over that row's data alone), so a
        spliced row is bitwise the row a whole-batch forward under the
        rewritten weight would have produced.  A site whose perturbed
        value equals the original bitwise (e.g. an identity error model
        evaluating resident faults) skips its re-run: the clean row
        already is the answer.
        """
        engine_rng = self.rng

        def hook(module, inputs, output):
            weight = module.weight
            lanes = []
            for site in sites:
                original = weight.data[site.coords]
                ctx = InjectionContext(
                    rng=site.rng if site.rng is not None else engine_rng,
                    layer=layer_info, module=module,
                    quantization=site.quantization,
                )
                new_value = site.error_model(
                    np.asarray([original], dtype=weight.dtype), ctx)[0]
                if (np.asarray(new_value, dtype=weight.dtype).tobytes()
                        == np.asarray(original, dtype=weight.dtype).tobytes()):
                    continue
                lanes.append((site.batch, site.coords, new_value))
            if not lanes:
                return None
            rows = module.forward_lanes(inputs[0], lanes)
            index = (np.asarray([row for row, _, _ in lanes]),)
            return output.inject_values(index, rows)

        return hook

    def _make_neuron_hook(self, sites, layer_info):
        """Build the forward hook that realises ``sites`` on one layer.

        The hook cost when sites exist is one gather + one error-model call
        + one copy-on-write scatter; a model with no declared injections has
        no hooks at all (paper: "If there are no perturbations defined, then
        there is no overhead").
        """
        engine_rng = self.rng

        def hook(module, inputs, output):
            batch_axis = []
            coord_axes = [[] for _ in range(len(output.shape) - 1)]
            models = []
            quants = []
            rngs = []
            for site in sites:
                batches = range(output.shape[0]) if site.batch == -1 else [site.batch]
                for b in batches:
                    batch_axis.append(b)
                    for axis, coord in enumerate(site.coords):
                        coord_axes[axis].append(coord)
                    models.append(site.error_model)
                    quants.append(site.quantization)
                    rngs.append(site.rng)
            index = (np.asarray(batch_axis),) + tuple(np.asarray(a) for a in coord_axes)
            original = output.data[index]
            new_values = np.empty_like(original)
            # Group consecutive sites sharing the same model + quantization +
            # generator so vectorised models see one call per group.
            start = 0
            for i in range(1, len(models) + 1):
                if (
                    i < len(models)
                    and models[i] is models[start]
                    and quants[i] is quants[start]
                    and rngs[i] is rngs[start]
                ):
                    continue
                ctx = InjectionContext(
                    rng=rngs[start] if rngs[start] is not None else engine_rng,
                    layer=layer_info, module=module,
                    quantization=quants[start],
                )
                new_values[start:i] = models[start](original[start:i], ctx)
                start = i
            return output.inject_values(index, new_values)

        return hook

    # ------------------------------------------------------------------ #
    # Segmented execution (checkpoint-and-resume support)
    # ------------------------------------------------------------------ #

    def segmented(self, model=None):
        """Trace ``model`` (default: the profiled model) into a
        :class:`~repro.nn.SegmentedForward` whose tracked execution order
        is this engine's instrumentable layers.

        Returns ``None`` only when the trace cannot anchor this engine's
        layer indices — the traced execution order of the instrumentable
        layers disagrees with the profile order.  A model that traces but
        is not a simple chain comes back with ``is_chain == False``;
        resume engines can still prefix-stub its layers, they just cannot
        skip the inter-layer glue.
        """
        target = model if model is not None else self.model
        modules = [m for _, m in self._iter_instrumentable(target)]
        if len(modules) != len(self.layers):
            return None
        dummy = Tensor(np.zeros((self.batch_size, *self.input_shape), dtype=np.float32))
        if self.dtype is not None:
            dummy = dummy.astype(self.dtype)
        seg = nn.SegmentedForward.trace(target, dummy, track=modules)
        # Profile records are appended in hook-firing order; the trace must
        # see the same order or ``layers[i]`` would not name ``modules[i]``.
        if len(seg.execution_order) != len(modules) or any(
            a is not b for a, b in zip(seg.execution_order, modules)
        ):
            return None
        if seg.is_chain and any(seg.segment_of(m) is None for m in modules):
            seg.segments = None
            seg._segment_of = {}
        return seg

    # ------------------------------------------------------------------ #
    # Teardown
    # ------------------------------------------------------------------ #

    def reset(self):
        """Remove hooks and restore weights on every instrumented model."""
        for _, handles, snapshots in self._corrupted:
            for handle in handles:
                handle.remove()
            for weight, coords, original in reversed(snapshots):
                weight.data[coords] = original
        self._corrupted.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.reset()
        return False

    def __repr__(self):
        return (
            f"FaultInjection(layers={self.num_layers}, batch_size={self.batch_size}, "
            f"input_shape={self.input_shape}, total_neurons={self.total_neurons()})"
        )
