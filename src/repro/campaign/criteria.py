"""Output-corruption criteria (paper §IV-A).

A criterion decides, per example, whether a perturbed inference counts as an
output corruption.  The paper's primary metric is Top-1 misclassification;
it also suggests "Top-1 not in Top-5" and confidence-change criteria as
study variants, all provided here.

Criteria are callables::

    criterion(perturbed_logits, labels, baseline_logits) -> bool[n]

where ``labels`` are the ground-truth classes of inputs the *unperturbed*
model classifies correctly (the campaign guarantees this precondition) and
``baseline_logits`` are the unperturbed logits for criteria that need them.

Every criterion flags a row with any non-finite perturbed logit (NaN or
±inf) as corrupted: such a row is no usable answer, whatever its argmax
happens to be (DESIGN.md §6).
"""

from __future__ import annotations

import numpy as np


def _softmax(logits):
    # A row holding +inf shifts to inf - inf = NaN; its value is unused,
    # since the row is flagged by _non_finite.
    with np.errstate(invalid="ignore"):
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)


def _non_finite(logits):
    """Rows with any NaN or infinite logit."""
    return ~np.isfinite(logits).all(axis=1)


class Top1Misclassification:
    """Corrupted iff the perturbed Top-1 class differs from the label."""

    name = "top1_misclassification"

    def __call__(self, perturbed_logits, labels, baseline_logits=None):
        return ((perturbed_logits.argmax(axis=1) != np.asarray(labels))
                | _non_finite(perturbed_logits))


class Top1NotInTopK:
    """Corrupted iff the label leaves the perturbed Top-K set (K=5 default)."""

    name = "top1_not_in_top5"

    def __init__(self, k=5):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = int(k)

    def __call__(self, perturbed_logits, labels, baseline_logits=None):
        labels = np.asarray(labels)
        k = min(self.k, perturbed_logits.shape[1])
        topk = np.argpartition(-perturbed_logits, k - 1, axis=1)[:, :k]
        return ~(topk == labels[:, None]).any(axis=1) | _non_finite(perturbed_logits)


class ConfidenceDrop:
    """Corrupted iff the label's softmax confidence drops by > ``threshold``.

    Needs ``baseline_logits``; catches perturbations that do not flip the
    Top-1 class but significantly erode the decision margin.
    """

    name = "confidence_drop"

    def __init__(self, threshold=0.25):
        if not 0 < threshold < 1:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        self.threshold = float(threshold)

    def __call__(self, perturbed_logits, labels, baseline_logits=None):
        if baseline_logits is None:
            raise ValueError("ConfidenceDrop requires baseline_logits")
        labels = np.asarray(labels)
        rows = np.arange(len(labels))
        base_conf = _softmax(baseline_logits)[rows, labels]
        pert_conf = _softmax(perturbed_logits)[rows, labels]
        return ((base_conf - pert_conf) > self.threshold) | _non_finite(perturbed_logits)


CRITERIA = {
    "top1": Top1Misclassification,
    "top1_top5": Top1NotInTopK,
    "confidence": ConfidenceDrop,
}


def as_criterion(spec):
    """Coerce a name or callable to a criterion callable."""
    if callable(spec):
        return spec
    try:
        return CRITERIA[spec]()
    except KeyError:
        raise ValueError(f"unknown criterion {spec!r}; have {sorted(CRITERIA)}") from None
