"""Procedural classification datasets standing in for CIFAR/ImageNet.

The paper's campaigns need *trained* classifiers and inputs the models
classify correctly; they do not depend on natural-image statistics (the
measured quantity is perturbation-induced misclassification of correctly
classified inputs).  Each class here owns a deterministic prototype — a
mixture of oriented sinusoidal gratings and Gaussian blobs drawn from a
class-seeded RNG — and a sample is the prototype under random gain, a small
circular shift, and additive Gaussian noise.  The result is a dataset a
small CNN learns to high accuracy in a few epochs, deterministically given
a seed.
"""

from __future__ import annotations

import numpy as np

from ..tensor import rng as _rng


def _make_prototype(rng, channels, size, n_gratings=3, n_blobs=2):
    """One class prototype: gratings + blobs, standardised per channel."""
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    proto = np.zeros((channels, size, size), dtype=np.float32)
    for c in range(channels):
        img = np.zeros((size, size), dtype=np.float64)
        for _ in range(n_gratings):
            fx, fy = rng.uniform(0.5, 3.0, size=2) / size
            phase = rng.uniform(0, 2 * np.pi)
            amplitude = rng.uniform(0.5, 1.0)
            img += amplitude * np.sin(2 * np.pi * (fx * xx + fy * yy) + phase)
        for _ in range(n_blobs):
            cx, cy = rng.uniform(0.2 * size, 0.8 * size, size=2)
            sigma = rng.uniform(0.08, 0.2) * size
            sign = rng.choice((-1.0, 1.0))
            img += sign * 1.5 * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma**2))
        img -= img.mean()
        img /= img.std() + 1e-8
        proto[c] = img.astype(np.float32)
    return proto


class SyntheticClassification:
    """A deterministic, class-structured image dataset.

    Parameters
    ----------
    num_classes, image_size, channels:
        Geometry of the dataset.
    noise:
        Std-dev of per-sample additive Gaussian noise (relative to the
        unit-variance prototypes).  Higher noise => harder dataset.
    max_shift:
        Maximum circular translation (pixels) applied per sample.
    seed:
        Controls both the prototypes and the sampling stream.
    """

    def __init__(self, num_classes, image_size, channels=3, noise=0.35, max_shift=2,
                 class_similarity=0.0, seed=0, name="synthetic"):
        if not 0 <= class_similarity < 1:
            raise ValueError(f"class_similarity must be in [0, 1), got {class_similarity}")
        self.num_classes = int(num_classes)
        self.image_size = int(image_size)
        self.channels = int(channels)
        self.noise = float(noise)
        self.max_shift = int(max_shift)
        self.class_similarity = float(class_similarity)
        self.seed = int(seed)
        self.name = name
        proto_rng = np.random.default_rng(seed)
        unique = np.stack(
            [
                _make_prototype(np.random.default_rng(proto_rng.integers(0, 2**63)),
                                channels, image_size)
                for _ in range(num_classes)
            ]
        )
        if class_similarity > 0:
            # Blend a shared pattern into every prototype: higher similarity
            # means smaller between-class differences, hence tighter decision
            # margins — the knob that controls how fragile trained models are
            # under perturbation (used to emulate ImageNet-like margins).
            common = _make_prototype(
                np.random.default_rng(proto_rng.integers(0, 2**63)), channels, image_size
            )
            blended = class_similarity * common + (1 - class_similarity) * unique
            std = blended.std(axis=(2, 3), keepdims=True) + 1e-8
            unique = (blended - blended.mean(axis=(2, 3), keepdims=True)) / std
        self.prototypes = unique.astype(np.float32)

    @property
    def input_shape(self):
        return (self.channels, self.image_size, self.image_size)

    def sample(self, n, rng=None, labels=None):
        """Draw ``n`` samples; returns ``(images[n,C,H,W], labels[n])``."""
        gen = _rng.coerce_generator(rng)
        if labels is None:
            labels = gen.integers(0, self.num_classes, size=n)
        else:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (n,):
                raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
        images = self.prototypes[labels].copy()
        gains = gen.uniform(0.8, 1.2, size=(n, 1, 1, 1)).astype(np.float32)
        images *= gains
        if self.max_shift:
            shifts = gen.integers(-self.max_shift, self.max_shift + 1, size=(n, 2))
            for i, (dy, dx) in enumerate(shifts):
                if dy or dx:
                    images[i] = np.roll(images[i], (int(dy), int(dx)), axis=(1, 2))
        if self.noise:
            images += gen.normal(0, self.noise, size=images.shape).astype(np.float32)
        return images.astype(np.float32), labels.astype(np.int64)

    def balanced_split(self, per_class, rng=None):
        """A split with exactly ``per_class`` samples of every class."""
        labels = np.repeat(np.arange(self.num_classes), per_class)
        gen = _rng.coerce_generator(rng)
        gen.shuffle(labels)
        return self.sample(len(labels), rng=gen, labels=labels)

    def __repr__(self):
        return (
            f"SyntheticClassification(name={self.name!r}, classes={self.num_classes}, "
            f"size={self.image_size}, noise={self.noise})"
        )


class SelfLabelledDataset:
    """Synthetic inputs labelled with a model's own clean predictions.

    Campaigns need an input pool the clean model classifies correctly;
    self-labelling makes that 100% of samples by construction, which is
    what lets untrained zoo models (the CLI and scenario-engine default)
    be campaigned without a training phase.  Wraps any dataset exposing
    ``sample``/``input_shape``.

    ``sample`` runs no forward: it returns ``None`` labels, and
    :class:`~repro.campaign.InjectionCampaign` labels the pool with the
    argmax of the clean screening forward it runs anyway.  ``model`` is
    the model those labels come from.
    """

    def __init__(self, model, base):
        self.model = model
        self.base = base

    @property
    def input_shape(self):
        return self.base.input_shape

    def sample(self, n, rng=None):
        images, _ = self.base.sample(n, rng=rng)
        return images, None


def make_dataset(dataset, seed=0, noise=None, class_similarity=None):
    """Build the synthetic stand-in for one of the paper's datasets.

    The "imagenet" preset is a 20-class, 64x64 dataset with high class
    similarity: few enough classes to train the Fig. 4 networks in minutes
    on a laptop, similar enough that trained models have ImageNet-like
    tight decision margins (which is what makes a fraction of a percent of
    single bit flips cross a decision boundary in Fig. 4).  See DESIGN.md.
    """
    presets = {
        "cifar10": dict(num_classes=10, image_size=32, class_similarity=0.6, noise=0.5),
        "cifar100": dict(num_classes=100, image_size=32, class_similarity=0.5, noise=0.4),
        "imagenet": dict(num_classes=20, image_size=64, class_similarity=0.85, noise=0.5),
    }
    try:
        preset = dict(presets[dataset])
    except KeyError:
        raise ValueError(f"unknown dataset {dataset!r}; have {sorted(presets)}") from None
    if class_similarity is not None:
        preset["class_similarity"] = class_similarity
    if noise is not None:
        preset["noise"] = noise
    return SyntheticClassification(seed=seed, name=dataset, **preset)
