"""The event schema of observed injection campaigns, and its divergence math.

This docstring is the schema's one written home.  An observed campaign
writes flat JSON objects tagged with ``type`` and schema version ``v``
(:data:`EVENT_SCHEMA_VERSION`); :class:`~repro.observe.PropagationTracer`
builds them and :func:`~repro.observe.aggregate` reads them.

``campaign_start`` (one per campaign, before its injections)
    ``network``, ``criterion``, ``target``, ``n_injections``,
    ``num_layers``, ``batch_size``, and ``resume`` (whether the campaign
    replays from cached clean activations).

``injection`` (one per injection, in plan order)
    ``index`` (plan position), ``layer`` (target layer), ``coords``,
    ``pool_index``, ``seed`` (error-model seed), ``label``,
    ``clean_predicted``, ``predicted`` (faulty argmax, NaN ranked lowest),
    ``corrupted`` (the criterion's verdict), ``resumed``, ``latency_s``
    (the chunk's wall time over its injections), and:

    * ``divergence``: ``[layer, corrupted_elements, l2, linf]`` per layer
      whose activations differ from clean (:func:`divergence_rows`),
      ascending by layer; a non-finite norm is ``null``.
    * ``first_divergence_layer`` / ``last_divergence_layer``: the first
      and last row's layer, ``null`` when nothing diverged.
    * ``masked_by_layer``: the target layer itself when nothing diverged;
      ``last + 1`` when divergence died out before the last
      instrumentable layer; ``null`` when it reached the last layer.
    * ``outcome``: :data:`OUTCOME_DETECTED` if any logit is NaN or
      infinite, else :data:`OUTCOME_MISCLASSIFIED` if ``predicted !=
      clean_predicted``, else :data:`OUTCOME_MASKED`.

``campaign_end`` (one per completed campaign; an interrupted one has none)
    ``network``, ``injections``, ``corruptions``, ``clean_captures`` (the
    tracer's clean capture forwards so far) and ``perf``
    (``campaign.perf.as_dict()``).
"""

from __future__ import annotations

import math

import numpy as np

EVENT_SCHEMA_VERSION = 1

OUTCOME_MASKED = "masked"
OUTCOME_MISCLASSIFIED = "misclassified"
OUTCOME_DETECTED = "detected_nan_inf"
OUTCOMES = (OUTCOME_MASKED, OUTCOME_MISCLASSIFIED, OUTCOME_DETECTED)


def _finite(value):
    """Sanitise a float for strict JSON: non-finite values become None."""
    value = float(value)
    return value if math.isfinite(value) else None


def divergence_rows(clean, perturbed):
    """Per-row divergence of a perturbed activation batch against the clean one.

    Returns ``(counts, l2, linf)`` arrays of length ``B`` (the batch
    dimension): the number of elements whose values differ numerically,
    and the L2/L∞ norms of the difference.  This runs once per layer per
    campaign chunk, so it is built on a single vectorised IEEE ``!=``
    pass: any changed bit pattern with a changed value compares unequal,
    so a single flipped mantissa bit registers.  Norms accumulate in
    float64; NaNs in the perturbed activations and overflowed injections
    legitimately yield non-finite norms, which callers sanitise for JSON
    via :func:`_finite`.
    """
    clean = np.asarray(clean)
    perturbed = np.asarray(perturbed)
    if clean.shape != perturbed.shape:
        raise ValueError(
            f"shape mismatch: clean {clean.shape} vs perturbed {perturbed.shape}"
        )
    flat_c = clean.reshape(len(clean), -1)
    flat_p = perturbed.reshape(len(perturbed), -1)
    with np.errstate(all="ignore"):
        # != writes a bool array (NaN != NaN is True, so NaN counts as
        # diverged), a quarter the memory traffic of a float subtraction.
        counts = np.count_nonzero(flat_p != flat_c, axis=1)
        l2 = np.zeros(len(counts))
        linf = np.zeros(len(counts))
        # Norms only for rows that diverged at all: past the masking point a
        # layer's counts are all zero and the float64 pass is skipped.
        hit = np.nonzero(counts)[0]
        if hit.size and flat_c.shape[1]:
            square = np.square(flat_p[hit] - flat_c[hit], dtype=np.float64)
            l2[hit] = np.sqrt(square.sum(axis=1))
            # max(d^2) == (max|d|)^2, saving an |diff| pass over the batch.
            linf[hit] = np.sqrt(square.max(axis=1))
    return counts, l2, linf
