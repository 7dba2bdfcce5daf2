"""Convenience injectors: random locations + one-call corrupted models.

These wrap :class:`~repro.core.fault_injection.FaultInjection` the way the
pytorchfi ``neuron_error_models``/``weight_error_models`` helpers wrap its
core, and they implement the sampling policies the paper's campaigns use:

* ``random_neuron_location`` — one neuron anywhere in the network, sampled
  either proportionally to layer size (a uniform choice over *all* neurons,
  used by the Fig. 4 campaign: "a randomly selected neuron in the DNN") or
  uniformly over layers.
* ``random_multi_neuron_injection`` — one neuron *per layer* (the Fig. 5
  object-detection error model).
* batched variants giving each batch element its own perturbation.
"""

from __future__ import annotations

import numpy as np

from ..tensor import rng as _rng
from .error_models import RandomValue
from .fault_injection import InjectionRecord, NeuronSite, WeightSite


def _quant_for_layer(quantization, layer_idx):
    """Resolve a quantization spec that may be per-layer (sequence) or shared."""
    if isinstance(quantization, (list, tuple)):
        return quantization[layer_idx]
    return quantization


def _restrict_pool(layer_pool, sizes, shapes, layers):
    """Filter a sampler pool down to the ``layers`` subset (scenario selectors).

    ``layers=None`` is the identity — the unrestricted pool object comes
    back untouched, so legacy callers draw the exact same generator stream
    they always did.  A subset covering every layer is likewise
    stream-identical, because the pool order is preserved.
    """
    if layers is None:
        return layer_pool, sizes, shapes
    allowed = set(int(i) for i in layers)
    unknown = allowed - set(layer_pool)
    if unknown:
        raise ValueError(
            f"layers {sorted(unknown)} are not eligible for sampling "
            f"(eligible: {list(layer_pool)})")
    keep = [i for i, idx in enumerate(layer_pool) if idx in allowed]
    if not keep:
        raise ValueError("layer selector excludes every eligible layer")
    return ([layer_pool[i] for i in keep],
            [sizes[i] for i in keep],
            [shapes[i] for i in keep])


def _restrict_channels(sizes, shapes, channels):
    """Restrict each pool entry's geometry to the ``channels`` subset of dim 0.

    Returns ``(sizes, shapes, remap)`` where ``remap`` maps a sampled
    dim-0 index back to the real channel index (identity when
    ``channels=None``).  Sampling then stays a uniform draw over the
    restricted element space, still through the same vectorised calls.
    """
    if channels is None:
        return sizes, shapes, None
    channels = [int(c) for c in channels]
    if not channels:
        raise ValueError("channel selector is empty")
    if len(set(channels)) != len(channels):
        raise ValueError(f"channel selector has duplicates: {channels}")
    new_sizes, new_shapes = [], []
    for shape in shapes:
        if not shape:
            raise ValueError("channel selector needs layers with >= 1 output axis")
        bad = [c for c in channels if not 0 <= c < shape[0]]
        if bad:
            raise ValueError(
                f"channels {bad} out of range [0, {shape[0]}) for shape {shape}")
        new_shape = (len(channels),) + tuple(shape[1:])
        new_shapes.append(new_shape)
        new_sizes.append(int(np.prod(new_shape)))
    return new_sizes, new_shapes, channels


def _batched_sites(gen, layer_pool, sizes, shapes, n, layer, strategy,
                   layers=None, channels=None):
    """Shared batched sampler over a pool of layers, in array form.

    ``layer_pool`` lists the eligible layer indices, ``sizes[i]`` the number
    of sampleable elements in pool entry ``i`` and ``shapes[i]`` its
    geometry.  Draws every random number through a handful of vectorised
    generator calls instead of a Python loop per site.  Returns
    ``(layers, flat)``: int64 arrays of each site's layer index and its
    C-order flat index into that layer's ``shapes`` entry.

    ``layers`` optionally restricts sampling to a subset of the pool and
    ``channels`` to a subset of each layer's dim-0 (the scenario engine's
    layer/channel selectors); both default to the unrestricted legacy
    behaviour with an identical generator stream.
    """
    layer_pool, sizes, shapes = _restrict_pool(layer_pool, sizes, shapes, layers)
    sizes, _, channel_map = _restrict_channels(sizes, shapes, channels)
    sizes = np.asarray(sizes, dtype=np.int64)
    if layer is not None:
        pos = {idx: i for i, idx in enumerate(layer_pool)}
        if layer not in pos:
            raise ValueError(f"layer {layer} is not eligible for sampling")
        picks = np.full(n, pos[layer], dtype=np.int64)
    elif strategy == "proportional":
        # Uniform over all elements: draw flat offsets into the concatenated
        # element space and locate the owning layer with one searchsorted.
        cumulative = np.cumsum(sizes)
        flat = gen.integers(0, int(cumulative[-1]), size=n)
        picks = np.searchsorted(cumulative, flat, side="right")
    elif strategy == "uniform_layer":
        picks = gen.integers(0, len(layer_pool), size=n)
    else:
        raise ValueError(f"unknown sampling strategy {strategy!r}")

    flat = np.empty(n, dtype=np.int64)
    for p in np.unique(picks).tolist():
        slots = np.nonzero(picks == p)[0]
        drawn = gen.integers(0, int(sizes[p]), size=len(slots))
        if channel_map is not None:
            # Map the restricted dim-0 index back to its real channel.
            inner = int(sizes[p]) // len(channel_map)
            drawn = np.asarray(channel_map)[drawn // inner] * inner + drawn % inner
        flat[slots] = drawn
    return np.asarray(layer_pool, dtype=np.int64)[picks], flat


def _batched_locations(gen, layer_pool, sizes, shapes, n, layer, strategy,
                       layers=None, channels=None):
    """:func:`_batched_sites` with each site as a coordinate tuple.

    Returns ``(layers, coords)``: the int64 layer array and a list of
    per-site coordinate tuples of Python ints.
    """
    site_layers, flat = _batched_sites(gen, layer_pool, sizes, shapes, n, layer,
                                       strategy, layers=layers, channels=channels)
    shape_of = dict(zip(layer_pool, shapes))
    coords = [None] * n
    for idx in np.unique(site_layers).tolist():
        slots = np.nonzero(site_layers == idx)[0]
        unravelled = np.unravel_index(flat[slots], shape_of[idx])
        for slot, coord in zip(slots.tolist(),
                               zip(*(axis.tolist() for axis in unravelled))):
            coords[slot] = coord
    return site_layers, coords


def _weight_pool(fi):
    """``(layer_pool, sizes, shapes)`` of ``fi``'s layers that have weights."""
    candidates = [info for info in fi.layers if info.weight_shape]
    return ([info.index for info in candidates],
            [info.weights for info in candidates],
            [info.weight_shape for info in candidates])


def random_neuron_locations(fi, n, layer=None, rng=None, strategy="proportional",
                            layers=None, channels=None):
    """Sample ``n`` neuron sites at once; returns ``(layers, coords)``.

    ``layers`` is an int64 array of layer indices and ``coords`` a list of
    per-site coordinate tuples.  All randomness is drawn through batched
    generator calls (one for the layer choice, one per distinct layer for
    the coordinates), which is what makes large campaign plans cheap.

    ``layers=`` restricts sampling to a subset of instrumentable layer
    indices and ``channels=`` to a subset of each layer's channel (dim-0)
    axis — the hierarchical selectors of :mod:`repro.scenario`.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gen = _rng.coerce_generator(rng if rng is not None else fi.rng)
    return _batched_locations(
        gen,
        layer_pool=[info.index for info in fi.layers],
        sizes=[info.neurons_per_example for info in fi.layers],
        shapes=[info.neuron_shape for info in fi.layers],
        n=int(n), layer=layer, strategy=strategy,
        layers=layers, channels=channels,
    )


def random_neuron_location(fi, layer=None, rng=None, strategy="proportional"):
    """Sample ``(layer, coords)`` for one neuron.

    ``strategy="proportional"`` draws uniformly over all neurons in the
    network; ``"uniform_layer"`` first picks a layer uniformly, then a
    neuron within it.
    """
    layers, coords = random_neuron_locations(fi, 1, layer=layer, rng=rng, strategy=strategy)
    return int(layers[0]), coords[0]


def random_weight_locations(fi, n, layer=None, rng=None, strategy="proportional",
                            layers=None, channels=None):
    """Sample ``n`` weight sites at once; returns ``(layers, coords)``.

    Accepts the same ``layers=``/``channels=`` selector subsets as
    :func:`random_neuron_locations` (for weights, "channel" is the output-
    filter axis, dim 0 of the weight tensor).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gen = _rng.coerce_generator(rng if rng is not None else fi.rng)
    layer_pool, sizes, shapes = _weight_pool(fi)
    if not layer_pool:
        raise ValueError("no instrumentable layer has weights")
    return _batched_locations(gen, layer_pool, sizes, shapes, n=int(n), layer=layer,
                              strategy=strategy, layers=layers, channels=channels)


def random_weight_location(fi, layer=None, rng=None, strategy="proportional"):
    """Sample ``(layer, coords)`` for one weight element."""
    layers, coords = random_weight_locations(fi, 1, layer=layer, rng=rng, strategy=strategy)
    return int(layers[0]), coords[0]


def random_neuron_injection(fi, error_model=None, batch=-1, layer=None, rng=None,
                            strategy="proportional", quantization=None, clone=True):
    """Corrupt one random neuron (same location for the whole batch).

    Returns ``(corrupted_model, record)``.  This is the paper's Fig. 3 /
    Fig. 4 single-injection primitive.
    """
    error_model = error_model if error_model is not None else RandomValue(-1.0, 1.0)
    layer_idx, coords = random_neuron_location(fi, layer=layer, rng=rng, strategy=strategy)
    site = NeuronSite(layer=layer_idx, batch=batch, coords=coords,
                      error_model=error_model,
                      quantization=_quant_for_layer(quantization, layer_idx))
    fi._validate_neuron_site(site)
    model = fi.instrument(neuron_sites=[site], clone=clone)
    return model, InjectionRecord(kind="neuron", sites=[site])


def random_neuron_injection_batched(fi, error_model=None, rng=None,
                                    strategy="proportional", quantization=None, clone=True):
    """A different random neuron for every batch element (paper §III-B)."""
    error_model = error_model if error_model is not None else RandomValue(-1.0, 1.0)
    sites = []
    for b in range(fi.batch_size):
        layer_idx, coords = random_neuron_location(fi, rng=rng, strategy=strategy)
        site = NeuronSite(layer=layer_idx, batch=b, coords=coords,
                          error_model=error_model,
                          quantization=_quant_for_layer(quantization, layer_idx))
        fi._validate_neuron_site(site)
        sites.append(site)
    model = fi.instrument(neuron_sites=sites, clone=clone)
    return model, InjectionRecord(kind="neuron", sites=sites)


def random_multi_neuron_injection(fi, error_model=None, per_layer=1, batch=-1, rng=None,
                                  quantization=None, clone=True):
    """One (or ``per_layer``) random neurons in *every* layer.

    This is the Fig. 5 object-detection error model: "one neuron
    perturbation per layer, each with a uniformly chosen random value".
    """
    error_model = error_model if error_model is not None else RandomValue(-1.0, 1.0)
    gen = _rng.coerce_generator(rng if rng is not None else fi.rng)
    sites = []
    for info in fi.layers:
        for _ in range(per_layer):
            coords = tuple(int(gen.integers(0, bound)) for bound in info.neuron_shape)
            site = NeuronSite(layer=info.index, batch=batch, coords=coords,
                              error_model=error_model,
                              quantization=_quant_for_layer(quantization, info.index))
            fi._validate_neuron_site(site)
            sites.append(site)
    model = fi.instrument(neuron_sites=sites, clone=clone)
    return model, InjectionRecord(kind="neuron", sites=sites)


def random_weight_injection(fi, error_model=None, layer=None, rng=None,
                            strategy="proportional", quantization=None, clone=True):
    """Corrupt one random weight offline; returns ``(model, record)``."""
    error_model = error_model if error_model is not None else RandomValue(-1.0, 1.0)
    layer_idx, coords = random_weight_location(fi, layer=layer, rng=rng, strategy=strategy)
    site = WeightSite(layer=layer_idx, coords=coords, error_model=error_model,
                      quantization=quantization)
    fi._validate_weight_site(site)
    model = fi.instrument(weight_sites=[site], clone=clone)
    return model, InjectionRecord(kind="weight", sites=[site])
