"""Checkpoint-and-resume execution for injection campaigns.

An injection at instrumentable layer *k* leaves every activation the model
computes *before* layer *k* bit-identical to the clean run, so a campaign
can cache clean intermediate activations once per pool input and replay
each perturbed forward from the deepest usable checkpoint instead of
re-running the whole prefix (the validation-efficiency lever of the Intel
extension to PyTorchFI, arXiv:2310.19449).

Two pieces live here:

:class:`ActivationCheckpointCache`
    A byte-budgeted LRU mapping ``(kind, layer/segment, pool_index)`` to
    one per-example activation row.  Rows are cached *per pool element*
    (not per batch) because every operator ahead of the classifier head —
    convolution, batch norm, elementwise, pooling — is row-stable: a row's
    value does not depend on which other rows share its batch.  That lets
    any batch composition be reassembled from cached rows bit-exactly.

:class:`CampaignResumeEngine`
    Binds a :class:`~repro.core.FaultInjection` engine, its
    :class:`~repro.nn.SegmentedForward` trace, and the cache.  For a batch
    of same-layer injection sites it stubs every already-computed
    instrumentable layer with its cached clean output (the target layer
    included — its injection hook fires on the substituted output) and
    replays the rest.  Two replay modes, both bit-identical to a full
    forward:

    * **chain** — the model traced to a verified segment chain, so the
      replay starts at the target's segment boundary and skips the whole
      prefix, glue operators included.
    * **stub** — the trace is not a simple chain (branchy models: concats,
      functional pooling in ``forward``).  The model's own forward re-runs
      from the input, but every instrumentable layer up to the target
      returns its cached output without computing.  Glue recomputes; all
      convolution work up to and including the target is still skipped.

    Stubbing layer ``j <= k`` with its clean output is sound because the
    traced execution order is validated against the profile order: ``j``
    completed before ``k`` ran, so ``j``'s inputs cannot depend on the
    injected value.

    A chain replay also skips each row's clean *suffix* (early exit).  At
    every segment boundary past the chunk's deepest site segment (lane
    hooks address rows by batch slot, so rows may only move once every hook
    has fired), a row that equals its cached clean boundary row *bitwise*
    has a clean state from there on (rows are row-stable), so it leaves the
    batch.  Bits, not float ``==``: -0.0 and NaN payloads count as
    different.  The classifier head always runs on the whole chunk batch,
    each exited row fed its cached clean head input: row stability is only
    guaranteed ahead of the head, and under resident faults the pool's
    logits are not the resident model's.  Rows whose clean rows were
    evicted stay in the batch.  Boundaries past the last instrumentable
    layer are not checked: only glue is left there.  An observer's layer
    collectors see only the rows still in the batch; the tracer fills in
    the others from its clean references (see ``rows_through``).

Lane-packed weight campaigns replay the same way: the lane hooks keep the
weight tensors clean through the forward (per-row faulted outputs splice in
at hook time), so every cached prefix activation stays valid and the
chunk's shallowest site is the truncation point.  Only unpacked weight
campaigns — which rewrite the weight tensor for the whole forward — and
models whose trace cannot anchor the profiled layer order fall back to
full forwards.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..tensor import Tensor, no_grad

DEFAULT_BUDGET_BYTES = 256 * 1024 * 1024


class ActivationCheckpointCache:
    """LRU cache of per-example activation rows under an explicit byte budget.

    Keys are arbitrary hashables (the engine uses ``("seg", s, pool_idx)``
    for segment-boundary inputs and ``("act", layer, pool_idx)`` for
    instrumentable-layer outputs); values are numpy arrays.  ``get`` counts
    hits/misses and refreshes recency; ``peek`` does neither.
    """

    def __init__(self, budget_bytes=DEFAULT_BUDGET_BYTES):
        if budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        self.budget_bytes = int(budget_bytes)
        self.bytes_used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries = OrderedDict()

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def get(self, key):
        """Counting lookup: refresh recency on hit, return None on miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry

    def peek(self, key):
        """Non-counting lookup (no recency update)."""
        return self._entries.get(key)

    def put(self, key, array):
        """Insert/replace ``key``; evict least-recently-used rows over budget.

        Arrays larger than the whole budget are refused (storing one would
        flush everything else for a row that can never have neighbours).
        """
        array = np.ascontiguousarray(array)
        if array.nbytes > self.budget_bytes:
            return False
        old = self._entries.pop(key, None)
        if old is not None:
            self.bytes_used -= old.nbytes
        self._entries[key] = array
        self.bytes_used += array.nbytes
        while self.bytes_used > self.budget_bytes:
            _, evicted = self._entries.popitem(last=False)
            self.bytes_used -= evicted.nbytes
            self.evictions += 1
        return True

    def clear(self):
        self._entries.clear()
        self.bytes_used = 0

    def __repr__(self):
        return (
            f"ActivationCheckpointCache({len(self._entries)} rows, "
            f"{self.bytes_used / 1e6:.1f}/{self.budget_bytes / 1e6:.1f} MB, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )


class CampaignResumeEngine:
    """Replay perturbed forwards from cached checkpoints for one campaign.

    Construction traces the engine's model; :attr:`available` is False when
    the model does not factor into a verified segment chain (callers then
    run full forwards — the engine is never wrong, only unavailable).
    """

    def __init__(self, fi, budget_bytes=DEFAULT_BUDGET_BYTES):
        self.fi = fi
        self.cache = ActivationCheckpointCache(budget_bytes)
        self.capture_forwards = 0
        # Row x segment forwards the early exit avoided (see ``replay``),
        # and per row of the last replayed chunk the boundary it left at.
        self.segment_rows_skipped = 0
        self._row_exits = None
        self.segmented = fi.segmented()
        self._modules = [m for _, m in fi._iter_instrumentable(fi.model)]
        self.chain = self.segmented is not None and self.segmented.is_chain
        if self.chain:
            seg = self.segmented
            self._segment_of_layer = [seg.segment_of(m) for m in self._modules]
            # Layers to stub when resuming for target layer k: every
            # instrumentable layer j <= k living in k's segment.  (Layers in
            # earlier segments are skipped wholesale by starting at the
            # boundary; traced order == profile order, so j <= k is enough.)
            self._stub_layers = []
            for k, s in enumerate(self._segment_of_layer):
                self._stub_layers.append(
                    [j for j in range(k + 1) if self._segment_of_layer[j] == s]
                )
            # The last boundary at which a row may leave the batch (see
            # ``replay``): past the last segment short of the head that holds
            # an instrumentable layer, only glue is left to skip.
            head = seg.num_segments - 1
            self._last_exit = max(
                [s for s in self._segment_of_layer if s < head], default=-1)
        else:
            # Stub mode: replay runs the whole forward, so every layer up
            # to and including the target gets stubbed.
            self._segment_of_layer = []
            self._stub_layers = [list(range(k + 1)) for k in range(len(self._modules))]

    @property
    def available(self):
        return self.segmented is not None

    # ------------------------------------------------------------------ #
    # Cache filling
    # ------------------------------------------------------------------ #

    def capture(self, x):
        """One clean forward returning ``(output, boundaries, acts)``.

        ``boundaries[s]`` is the batch fed into segment ``s`` (empty in
        stub mode) and ``acts[layer]`` the batch output of instrumentable
        layer ``layer``, both as numpy arrays.  Rows are row-stable, so
        callers may store any subset of rows under any pool indices.
        """
        if not self.available:
            raise RuntimeError("resume engine unavailable: trace could not anchor layers")
        acts = {}
        handles = []

        def make_collector(layer_idx):
            def collector(module, inputs, output):
                acts[layer_idx] = output.data
            return collector

        for layer_idx, module in enumerate(self._modules):
            handles.append(module.register_forward_hook(make_collector(layer_idx)))
        try:
            with no_grad():
                if self.chain:
                    out, bounds = self.segmented.capture(x)
                    boundaries = [b.data for b in bounds]
                else:
                    out = self.fi.model(x)
                    boundaries = []
        finally:
            for handle in handles:
                handle.remove()
        self.capture_forwards += 1
        return out, boundaries, acts

    def store_rows(self, pool_indices, rows, boundaries, acts):
        """Cache activation rows for selected batch rows.

        ``pool_indices[i]`` is the pool index to file batch row ``rows[i]``
        under.  Segment-0 boundaries are never stored: that boundary is the
        model input, which the campaign already holds as its input pool.
        """
        for pool_idx, row in zip(pool_indices, rows):
            for s in range(1, len(boundaries)):
                self.cache.put(("seg", s, pool_idx), boundaries[s][row])
            for layer_idx, act in acts.items():
                self.cache.put(("act", layer_idx, pool_idx), act[row])

    def peek_row(self, layer_idx, pool_index):
        """Non-counting lookup of one cached clean activation row.

        Used by :mod:`repro.observe` to reuse the clean activations this
        engine already holds as divergence references, without disturbing
        the cache's hit/miss statistics or LRU recency — observation must
        leave campaign behaviour bit-identical.
        """
        return self.cache.peek(("act", int(layer_idx), int(pool_index)))

    def warm(self, images, pool_indices):
        """Capture-and-store a batch of pool inputs; returns clean logits."""
        out, boundaries, acts = self.capture(Tensor(images))
        self.store_rows(pool_indices, range(len(pool_indices)), boundaries, acts)
        return out.data

    # ------------------------------------------------------------------ #
    # Resumed execution
    # ------------------------------------------------------------------ #

    def plan_chunk(self, layer_idx, pool_indices, images):
        """Assemble the resume state for one same-layer chunk.

        Returns ``(segment_index, boundary_tensor, stub_pairs, skipped)``.
        In stub mode ``segment_index`` and ``boundary_tensor`` are both
        ``None``: the caller re-runs the model's own forward under the stub
        context instead of ``run_from``.  Missing cache rows are
        transparently recomputed (one extra clean capture for the affected
        pool elements) before assembly, so the result is always usable.
        Call *before* instrumenting the model — recomputation must run
        clean.
        """
        if not self.available:
            raise RuntimeError("resume engine unavailable: trace could not anchor layers")
        s = self._segment_of_layer[layer_idx] if self.chain else None
        stub_layers = self._stub_layers[layer_idx]
        def keys_of(i):
            keys = [("seg", s, i)] if self.chain and s > 0 else []
            keys.extend(("act", j, i) for j in stub_layers)
            return keys

        unique = list(dict.fromkeys(pool_indices))
        fetched = {}
        missing = []
        for i in unique:
            rows = {key: self.cache.get(key) for key in keys_of(i)}
            if any(v is None for v in rows.values()):
                missing.append(i)
            else:
                fetched.update(rows)
        if missing:
            self.warm(images[np.asarray(missing)], missing)
            for i in missing:
                for key in keys_of(i):
                    row = self.cache.peek(key)
                    if row is None:
                        # Budget too small to hold even this chunk's rows.
                        return None
                    fetched[key] = row

        if not self.chain:
            boundary = None
        elif s > 0:
            boundary = Tensor(np.stack([fetched[("seg", s, i)] for i in pool_indices]))
        else:
            boundary = Tensor(np.asarray(images[np.asarray(pool_indices)]))
        stub_pairs = [
            (
                self._modules[j],
                Tensor(np.stack([fetched[("act", j, i)] for i in pool_indices])),
            )
            for j in stub_layers
        ]
        skipped = layer_idx + 1  # every instrumentable layer <= target is skipped
        return s, boundary, stub_pairs, skipped

    def replay(self, seg_index, boundary, pool_indices, site_layers):
        """Run a chain chunk from segment ``seg_index`` to its logits.

        ``boundary`` is the chunk batch fed into segment ``seg_index``; row
        ``r`` is pool element ``pool_indices[r]`` and carries a site at
        layer ``site_layers[r]``.  At each boundary past the deepest site's
        segment (lane hooks address rows by batch slot, so the batch keeps
        its layout until every hook has fired) that still has an
        instrumentable layer ahead of the head, a row bitwise equal to its
        cached clean boundary row leaves the batch.  The head runs on the
        whole chunk batch, exited rows fed their cached clean head input,
        so the logits are bitwise those of ``segmented.run_from``.  Cache
        lookups are ``peek``: hit/miss tallies and recency do not move.
        """
        segmented = self.segmented
        head = segmented.num_segments - 1
        first = max(self._segment_of_layer[j] for j in site_layers) + 1
        if first > self._last_exit:
            return segmented.run_from(seg_index, boundary)
        pool_indices = [int(i) for i in pool_indices]
        head_rows = [self.cache.peek(("seg", head, i)) for i in pool_indices]
        live = np.arange(len(pool_indices))  # chunk rows still in the batch
        self._row_exits = np.full(len(pool_indices), head)
        x = boundary
        for t in range(seg_index, head):
            if first <= t <= self._last_exit:
                clean = self._clean_rows(x.data, t, [
                    pool_indices[r] if head_rows[r] is not None else None
                    for r in live])
                if clean.any():
                    self.segment_rows_skipped += int(clean.sum()) * (head - t)
                    self._row_exits[live[clean]] = t
                    live = live[~clean]
                    if not len(live):
                        break
                    x = Tensor(x.data[~clean])
            x = segmented.run_from(t, x, stop=t + 1)
        if len(live) < len(pool_indices):
            rows = list(head_rows)
            for r, row in zip(live, x.data):
                rows[r] = row
            x = Tensor(np.stack(rows))
        return segmented.run_from(head, x)

    def rows_through(self, layer):
        """Mask of the last replayed chunk's rows that ran instrumentable
        layer ``layer``; the others had left the batch, clean, before it.
        Only meaningful after a replay in which some row left."""
        return self._row_exits > self._segment_of_layer[layer]

    def _clean_rows(self, data, t, pool_indices):
        """Which rows of ``data``, boundary ``t`` of pool elements
        ``pool_indices``, equal their cached clean row bit for bit.  A row
        whose pool index is None or whose clean row is not cached is not
        clean."""
        peek = self.cache.peek
        refs = [None if i is None else peek(("seg", t, i)) for i in pool_indices]
        clean = np.zeros(len(refs), dtype=bool)
        have = [r for r, ref in enumerate(refs) if ref is not None]
        if have:
            # Compare bit patterns, not floats: -0.0 != 0.0 and NaN payloads
            # must count as different.  Joining flat rows skips the
            # per-array checks and expand_dims of ``np.stack``.
            bits = f"u{data.itemsize}" if data.itemsize in (1, 2, 4, 8) else "u1"
            got = data if len(have) == len(refs) else data[have]
            want = np.concatenate([refs[r].reshape(1, -1) for r in have])
            clean[have] = (got.reshape(len(have), -1).view(bits)
                           == want.view(bits)).all(axis=1)
        return clean
