"""Injection-campaign orchestration (the §IV-A methodology).

A campaign repeats: pick inputs the clean model classifies correctly,
corrupt one random site per batch element, run the instrumented model,
and score each element against a corruption criterion.  Results aggregate
into overall and per-layer corruption rates with confidence intervals —
the quantities behind Fig. 4 and Fig. 6.

Execution is *planned upfront and lane-packed*: every random draw (input
choice, site location, per-site error-model seed) happens before any
forward runs, then compatible sites share a batched forward with one
batch lane each — neuron sites that share a resume truncation point,
weight sites in any mix (per-lane weight deltas).  Grouping lets the
whole batch resume from one cached checkpoint (see
:mod:`repro.campaign.resume`), and pre-drawn per-site generators make the
campaign's statistics independent of execution order — a fixed seed yields
bit-identical results whether the resume fast path is on or off, and
whether lanes are packed or not.
"""

from __future__ import annotations

import signal
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core import FaultInjection, SingleBitFlip
from ..core.fault_injection import NeuronSite, WeightSite
from ..core.injectors import _quant_for_layer, random_neuron_locations, random_weight_locations
from ..perf import CampaignPerfCounters
from ..profile.heartbeat import ProgressMeter, coerce_progress
from ..telemetry import TelemetryBus, coerce_bus
from ..tensor import Tensor, no_grad
from ..tensor import rng as _rng
from . import recovery as recovery_mod
from .criteria import as_criterion
from .parallel import worker_fleet
from .resume import DEFAULT_BUDGET_BYTES, CampaignResumeEngine
from .stats import Proportion
from .trace import margin

# The resume engine's tallies that ``perf`` mirrors, as chunk-record keys.
# ``cache_bytes`` is not one: it is a gauge of this process's own cache
# (see ``_sync_cache_bytes``), and a worker's cache dies with the worker.
_ENGINE_PERF_KEYS = ("capture_forwards", "cache_hits", "cache_misses",
                     "cache_evictions", "segment_rows_skipped")


@dataclass
class CampaignResult:
    """Aggregated outcome of an injection campaign."""

    network: str
    criterion: str
    injections: int
    corruptions: int
    confidence: float = 0.99
    per_layer_injections: np.ndarray = field(default=None)
    per_layer_corruptions: np.ndarray = field(default=None)

    @property
    def proportion(self):
        return Proportion(self.corruptions, self.injections, self.confidence)

    @property
    def corruption_rate(self):
        return self.proportion.rate

    def layer_vulnerability(self, layer):
        """Per-layer corruption proportion (None if that layer saw no injections)."""
        n = int(self.per_layer_injections[layer])
        if n == 0:
            return None
        return Proportion(int(self.per_layer_corruptions[layer]), n, self.confidence)

    def __str__(self):
        return (
            f"CampaignResult({self.network}, {self.criterion}): "
            f"corruption rate {self.proportion}"
        )


class InjectionCampaign:
    """Run repeated randomized injections against one model.

    Parameters
    ----------
    model:
        A trained classifier (left untouched: the campaign clones it once
        and instruments/uninstruments the clone per batch of trials).
    dataset:
        A :class:`repro.data.SyntheticClassification` used to draw inputs.
        A dataset whose ``sample`` returns ``None`` labels (such as
        :class:`repro.data.SelfLabelledDataset`) is labelled with the clean
        model's own predictions by the pool-screening forward.
    error_model:
        The perturbation model; defaults to a single random bit flip.
    criterion:
        Corruption criterion (name or callable), default Top-1
        misclassification.
    batch_size:
        Injections performed per forward pass (each batch element gets its
        own random location — the amortisation §III-C describes).
    quantization:
        Optional per-layer :class:`QuantizationParams` list; passed into
        each injection so bit flips happen in the INT8 domain (Fig. 4).
    layer:
        Restrict injections to one instrumentable layer (per-layer
        vulnerability studies, Fig. 6).
    pool_size:
        How many candidate inputs to pre-screen for clean correctness.
    target:
        ``"neuron"`` (runtime output perturbations, the default) or
        ``"weight"`` (weight rewrites; lane packing confines each fault
        to its own batch row, so weight campaigns batch sites per forward
        just like neuron campaigns).
    strategy:
        Site-sampling strategy: ``"proportional"`` over all elements or
        ``"uniform_layer"``.
    resume:
        Enable the checkpoint-and-resume fast path when the model traces
        to a segment chain.  Falls back transparently (weight campaigns,
        non-chain models) — results are bit-identical either way.
    lane_packing:
        Pack compatible injection sites into the batch lanes of shared
        forwards (the default).  Weight faults pack freely via per-lane
        weight deltas; neuron faults pack when they share a truncation
        point (the same segment of the traced chain), or per layer on
        non-chain models.  ``False`` runs one injection per forward —
        the serial oracle lane-packed runs are verified against.
        Outcomes, per-layer tallies, and the RNG stream are identical
        either way; only forward count (and wall clock) changes.
    resume_budget_bytes:
        Memory budget for the activation checkpoint cache.

    To profile a campaign's phases, build and run it inside
    :func:`repro.profile.campaign_spans`.
    """

    def __init__(self, model, dataset, error_model=None, criterion="top1", batch_size=16,
                 input_shape=None, quantization=None, layer=None, pool_size=256,
                 network_name="model", rng=None, target="neuron", strategy="proportional",
                 resume=True, resume_budget_bytes=DEFAULT_BUDGET_BYTES,
                 layers=None, channels=None, lane_packing=True):
        if target not in ("neuron", "weight"):
            raise ValueError(f"target must be 'neuron' or 'weight', got {target!r}")
        self.dataset = dataset
        self.error_model = error_model if error_model is not None else SingleBitFlip()
        self.criterion = as_criterion(criterion)
        self.criterion_name = getattr(self.criterion, "name", str(criterion))
        self.quantization = quantization
        self.layer = layer
        # Hierarchical site restriction (the repro.scenario selectors):
        # ``layers`` limits sampling to a subset of instrumentable layer
        # indices, ``channels`` to a subset of each layer's dim-0 axis.
        # Both None means the legacy whole-network sampling with an
        # identical RNG stream.
        self.layers_subset = list(layers) if layers is not None else None
        self.channels_subset = list(channels) if channels is not None else None
        self.network_name = network_name
        self.target = target
        self.strategy = strategy
        self.rng = _rng.coerce_generator(rng)
        self.perf = CampaignPerfCounters()
        self.observer = None  # set by run(observe=...), see repro.observe
        # The run's telemetry bus (repro.telemetry) for the duration of one
        # run(); a private one inside each forked worker.  Publishing only
        # reads campaign state — outcomes, RNG stream, and cache statistics
        # are bitwise identical with it on.
        self.telemetry = None
        shape = input_shape if input_shape is not None else dataset.input_shape
        self._work_model = model.clone()
        self._work_model.eval()
        self.fi = FaultInjection(self._work_model, batch_size=batch_size,
                                 input_shape=shape, rng=self.rng)
        self.lane_packing = bool(lane_packing)
        self._resume = None
        # Weight campaigns can resume only when lane-packed: lane hooks
        # splice per-row faulted outputs while the weights themselves stay
        # clean through the forward, so cached prefix activations remain
        # valid.  The unpacked oracle rewrites the weight tensor for the
        # whole forward and must replay nothing.
        if resume and (target == "neuron"
                       or (target == "weight" and self.lane_packing)):
            engine = CampaignResumeEngine(self.fi, resume_budget_bytes)
            if engine.available:
                self._resume = engine
        self.perf.resume_enabled = self._resume is not None
        # Lane-compatibility groups for neuron sites: the segment index of
        # each instrumentable layer when the model traces to a chain (sites
        # sharing a segment share a resume truncation point), else None
        # (pack per layer).  Computed regardless of the resume flag so the
        # chunk layout — and with it every batch composition — is identical
        # with resume on and off.
        self._lane_groups = None
        if self.lane_packing and target == "neuron":
            seg = (self._resume.segmented if self._resume is not None
                   else self.fi.segmented())
            if seg is not None and seg.is_chain:
                modules = [m for _, m in self.fi._iter_instrumentable(self._work_model)]
                self._lane_groups = [seg.segment_of(m) for m in modules]
        # Resident (persistent) weight faults — see repro.scenario.  The
        # active set lives here for the duration of one run() so forked
        # workers and the journal fingerprint see it; the fingerprint of
        # the set the resume cache was captured under persists across runs
        # to drive invalidation.
        self._resident_active = None
        self._resident_cache_key = None
        self.parallel_info = None  # set by parallel runs, see campaign.parallel
        self._build_pool(pool_size)

    def _build_pool(self, pool_size):
        """Pre-screen inputs: keep only ones the clean model gets right.

        One clean forward per 64-input chunk does all the work.  It screens
        the chunk and, for a dataset that returns ``None`` labels, labels
        it with its own argmax.  It doubles as cache warming: when the
        resume engine is live, each chunk runs as a capture and the
        checkpoint rows of every kept element are stored under its final
        pool index — the fast path starts warm at no extra forward cost.
        The engine work is counted into ``perf`` here, where it happens.
        """
        images, labels = self.dataset.sample(pool_size, rng=self.rng)
        engine_before = self._engine_counts()
        keep_images, keep_labels, keep_logits = [], [], []
        kept = 0
        with no_grad():
            for start in range(0, len(images), 64):
                chunk = images[start : start + 64]
                if self._resume is not None:
                    out, boundaries, acts = self._resume.capture(Tensor(chunk))
                    logits = out.data
                else:
                    logits = self._work_model(Tensor(chunk)).data
                predicted = logits.argmax(axis=1)
                chunk_labels = (predicted if labels is None
                                else labels[start : start + 64])
                correct = predicted == chunk_labels
                rows = np.nonzero(correct)[0]
                if self._resume is not None and len(rows):
                    pool_indices = range(kept, kept + len(rows))
                    self._resume.store_rows(pool_indices, rows, boundaries, acts)
                kept += len(rows)
                keep_images.append(chunk[correct])
                keep_labels.append(chunk_labels[correct])
                keep_logits.append(logits[correct])
        self.perf.add(self._engine_delta(engine_before))
        self._sync_cache_bytes()
        self.pool_images = np.concatenate(keep_images)
        self.pool_labels = np.concatenate(keep_labels)
        self.pool_logits = np.concatenate(keep_logits)
        if len(self.pool_images) == 0:
            raise ValueError(
                "clean model classified no pool inputs correctly; train it before campaigning"
            )
        self.clean_accuracy = len(self.pool_images) / pool_size

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #

    def _plan(self, n):
        """Draw every random decision for ``n`` injections upfront.

        Returns ``(pool_idx, layers, coords, seeds)`` — all sampled with
        batched generator calls.  ``seeds[i]`` later pins injection ``i``'s
        error-model draws to its own generator, so outcomes do not depend
        on the order or batching the executor chooses.
        """
        pool_idx = self.rng.integers(0, len(self.pool_images), size=n)
        if self.target == "weight":
            layers, coords = random_weight_locations(
                self.fi, n, layer=self.layer, rng=self.rng, strategy=self.strategy,
                layers=self.layers_subset, channels=self.channels_subset)
        else:
            layers, coords = random_neuron_locations(
                self.fi, n, layer=self.layer, rng=self.rng, strategy=self.strategy,
                layers=self.layers_subset, channels=self.channels_subset)
        seeds = self.rng.integers(0, np.iinfo(np.int64).max, size=n)
        return pool_idx, layers, coords, seeds

    def _chunks(self, layers, n):
        """Group plan positions into lane-compatible batches of ``batch_size``.

        With lane packing off, every position runs alone — the serial
        one-injection-per-forward oracle.  With it on, compatible sites
        share a forward, one batch lane each:

        * weight faults are all mutually compatible (any mix of layers) —
          each lane re-runs just its row through its faulted layer with a
          per-lane weight delta, so faults never stack across lanes;
        * neuron faults pack when they share a truncation point (the same
          segment of the traced chain), so one cached checkpoint replays
          the whole lane group; non-chain models pack per layer.

        Positions are laid out in stable layer-sorted order, so a site's
        batch lane — and every outcome — is a pure function of the plan.
        """
        if not self.lane_packing:
            return [[p] for p in range(n)]
        if self.target == "weight":
            keys = np.zeros(n, dtype=np.int64)
        elif self._lane_groups is not None:
            keys = np.asarray([self._lane_groups[int(l)] for l in layers])
        else:
            keys = np.asarray(layers)
        batch = self.fi.batch_size
        chunks = []
        current = []
        for p in np.argsort(layers, kind="stable"):
            if current and (keys[p] != keys[current[0]] or len(current) == batch):
                chunks.append(current)
                current = []
            current.append(int(p))
        if current:
            chunks.append(current)
        return chunks

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _execute_chunk(self, layer_idx, positions, pool_idx, coords, seeds,
                       observer=None, layers=None):
        """Run one instrumented forward for one lane-compatible chunk.

        ``layer_idx`` is the chunk's *base* layer (its shallowest site —
        the resume truncation point); ``layers`` carries each position's
        own layer for mixed-layer lane groups, and defaults to every site
        sitting at the base layer.  The resume plan (including any cache
        refills, which need clean forwards) is assembled *before* the model
        is instrumented, and so are the observer's clean reference
        activations — its graceful-degradation capture forward must run on
        the uninstrumented model.

        Returns ``(logits, skipped)``: ``skipped`` counts the instrumentable
        layers a resumed forward replayed from the cache, and is None for a
        full forward.
        """
        idx = pool_idx[positions]
        site_layers = ([int(layers[p]) for p in positions] if layers is not None
                       else [int(layer_idx)] * len(positions))
        resume_plan = None
        # Under resident faults the clean forwards below (cache refills,
        # observer references) run the faulted weights, which overflow as
        # legitimately as an injected forward; without residents they warn.
        quiet = (np.errstate(all="ignore") if self._resident_active is not None
                 else nullcontext())
        with quiet:
            if self._resume is not None:
                resume_plan = self._resume.plan_chunk(layer_idx, list(idx),
                                                      self.pool_images)
            if observer is not None:
                observer.prepare_chunk(layer_idx, [int(i) for i in idx],
                                       self.pool_images[idx])
        if self.target == "weight":
            sites = [
                WeightSite(layer=site_layers[b], coords=coords[p],
                           error_model=self.error_model,
                           quantization=_quant_for_layer(self.quantization,
                                                         site_layers[b]),
                           rng=np.random.default_rng(int(seeds[p])),
                           batch=b if self.lane_packing else -1)
                for b, p in enumerate(positions)
            ]
            model = self.fi.instrument(weight_sites=sites, clone=False)
        else:
            sites = [
                NeuronSite(layer=site_layers[b], batch=b, coords=coords[p],
                           error_model=self.error_model,
                           quantization=_quant_for_layer(self.quantization,
                                                         site_layers[b]),
                           rng=np.random.default_rng(int(seeds[p])))
                for b, p in enumerate(positions)
            ]
            model = self.fi.instrument(neuron_sites=sites, clone=False)
        observing = observer.observing() if observer is not None else nullcontext()
        try:
            # Injected values (especially exponent bit flips) legitimately
            # overflow float32 downstream; that is the fault model, not a
            # numerical bug, so the warnings are silenced here.
            with no_grad(), np.errstate(all="ignore"), observing:
                if resume_plan is not None:
                    return (self._replay(model, idx, site_layers, resume_plan),
                            resume_plan[3])
                return self._forward(model, idx), None
        finally:
            self.fi.reset()

    def _replay(self, model, idx, site_layers, resume_plan):
        """Resume pool rows ``idx`` from the checkpoint ``resume_plan``
        names (see :meth:`CampaignResumeEngine.plan_chunk`); their logits."""
        seg_index, boundary, stub_pairs, _ = resume_plan
        with self._resume.segmented.stub_outputs(stub_pairs):
            if seg_index is None:
                # Stub mode: the model's own forward re-runs, but every
                # instrumentable layer <= target returns its cached clean
                # output.
                return model(Tensor(self.pool_images[idx])).data
            return self._resume.replay(seg_index, boundary, idx, site_layers).data

    def _forward(self, model, idx):
        """A full forward of pool rows ``idx`` through ``model``; its logits."""
        return model(Tensor(self.pool_images[idx])).data

    def _run_chunk(self, run, cid):
        """Execute chunk ``cid`` of ``run``'s plan.

        Returns ``(record, elapsed_s)``: the chunk's journal record and its
        wall time, which the fold publishes but the journal never stores.

        The one chunk runner of both executors: the parent calls it inline
        and each forked worker calls it per dispatched chunk.  Every random
        decision is already in the plan arrays, so this method draws from
        no generator and its record depends only on the chunk.

        The record is JSON-serialisable: the chunk's base layer, its
        injection and corruption counts, its ``trace_events`` lane rows
        (``[plan position, {layer, coords, batch_slot, label, predicted,
        corrupted, margin_before, margin_after}]`` in batch-lane order) and
        its perf-counter deltas.  This method writes no counters: the run's
        fold adds the record's ``perf`` to ``campaign.perf``, wherever the
        chunk ran.
        """
        positions = run.chunks[cid]
        pool_idx, layers, coords, seeds = run.plan
        observer = run.tracer
        layer_idx = int(layers[positions[0]])
        idx = pool_idx[positions]
        engine_before = self._engine_counts()
        chunk_started = time.perf_counter()
        logits, skipped = self._execute_chunk(
            layer_idx, positions, pool_idx, coords, seeds,
            observer=observer, layers=layers)
        chunk_elapsed = time.perf_counter() - chunk_started
        engine = self._engine_delta(engine_before)
        resumed = skipped is not None
        skipped = skipped or 0
        labels = self.pool_labels[idx]
        clean_logits = self.pool_logits[idx]
        flags = np.asarray(self.criterion(logits, labels, clean_logits), dtype=bool)
        # One lane row per injection, in batch-lane order: the record's only
        # per-injection data, from which the fold, the observe tracer and
        # InjectionTrace all read.
        rows = [
            [p, {"layer": layer, "coords": [int(c) for c in coords[p]],
                 "batch_slot": b, "label": label, "predicted": predicted,
                 "corrupted": corrupted, "margin_before": before,
                 "margin_after": after}]
            for b, (p, layer, label, predicted, corrupted, before, after)
            in enumerate(zip(positions, layers[positions].tolist(),
                             labels.tolist(), logits.argmax(axis=1).tolist(),
                             flags.tolist(),
                             margin(clean_logits, labels).tolist(),
                             margin(logits, labels).tolist()))
        ]
        if observer is not None:
            observer.record_chunk(
                rows=rows,
                pool_indices=idx.tolist(),
                seeds=seeds[positions].tolist(),
                clean_predicted=clean_logits.argmax(axis=1),
                logits=logits,
                resumed=resumed,
                latency_s=chunk_elapsed,
            )
        record = {
            "layer": layer_idx,
            "injections": len(positions),
            "corruptions": int(flags.sum()),
            "trace_events": rows,
            "perf": {
                "forwards": 1,
                "forwards_saved": len(positions) - 1,
                "resumed_forwards": int(resumed),
                "layer_forwards_executed": self.fi.num_layers - skipped,
                "layer_forwards_skipped": skipped,
                **engine,
            },
        }
        return record, chunk_elapsed

    def _engine_counts(self):
        """This process's resume-engine tallies, in ``_ENGINE_PERF_KEYS`` order."""
        if self._resume is None:
            return (0,) * len(_ENGINE_PERF_KEYS)
        cache = self._resume.cache
        return (self._resume.capture_forwards, cache.hits, cache.misses,
                cache.evictions, self._resume.segment_rows_skipped)

    def _engine_delta(self, before):
        """How far the engine's tallies moved since ``before``, keyed like ``perf``."""
        return {key: after - prior for key, prior, after
                in zip(_ENGINE_PERF_KEYS, before, self._engine_counts())}

    def _sync_cache_bytes(self):
        """Set the ``perf.cache_bytes`` gauge to what this process's cache holds."""
        self.perf.cache_bytes = (self._resume.cache.bytes_used
                                 if self._resume is not None else 0)

    # ------------------------------------------------------------------ #
    # Resident (persistent) faults
    # ------------------------------------------------------------------ #

    def _begin_resident_session(self, resident):
        """Apply a resident fault set for one run; invalidate stale caches.

        The activation checkpoint cache holds *clean* layer outputs; those
        are only valid for the weights they were captured under.  Whenever
        the resident set differs from the one the cache was filled under
        (including the transitions to and from "no residents"), the cache
        is cleared and the resume engine re-captures lazily — under the
        currently-resident weights — so replayed chunks stay bitwise
        identical to full forwards of the faulted model.
        """
        key = resident.fingerprint if resident is not None else None
        if key != self._resident_cache_key:
            if self._resume is not None:
                self._resume.cache.clear()
                self._sync_cache_bytes()
            self._resident_cache_key = key
        if resident is not None:
            resident.apply(self.fi)
        self._resident_active = resident

    def _end_resident_session(self):
        """Restore the resident set's weights (verified bitwise) and detach."""
        resident, self._resident_active = self._resident_active, None
        if resident is not None:
            resident.restore()

    def run(self, n_injections, confidence=0.99, progress=None, trace=None, observe=None,
            workers=1, journal=None, recovery=None, resident=None, telemetry=None):
        """Perform ``n_injections`` randomized injections; aggregate results.

        One driver serves every run: it draws the plan, chunks it, opens
        the journal, folds journaled chunks, executes the pending ones, and
        assembles the result.  Chunks execute *inline* (one at a time in
        this process) or on a forked worker fleet
        (:class:`~repro.campaign.parallel.ParallelCampaignExecutor`).
        Either way each completed chunk comes back as one journal record
        and folds into the run through one function, exactly like a chunk
        replayed from the journal.

        Pass an :class:`~repro.campaign.trace.InjectionTrace` as ``trace``
        to record one :class:`InjectionEvent` per injection (layer, coords,
        outcome, decision-margin erosion).  The events are the chunk
        records' lane rows, buffered by plan position only while a trace
        is attached and recorded in plan order, not execution order, when
        the run ends.

        Pass ``observe=`` to trace fault propagation through the network:
        a :class:`~repro.observe.PropagationTracer`, a JSONL log path, or
        ``True`` for an in-memory tracer (kept on ``self.observer``).  The
        tracer records per-layer clean-vs-perturbed divergence and emits
        one telemetry event per injection; observation never changes the
        campaign's outcomes, RNG stream, or cache statistics.

        ``progress`` accepts a ``callable(done, total)``, called once per
        folded chunk, or ``True`` for the default
        :class:`~repro.profile.CampaignHeartbeat` printing injections/sec,
        cache hit rate, and ETA to stderr at a fixed interval.

        ``workers=N`` (N > 1) dispatches the plan's chunks to N fork-based
        worker processes.  The plan is drawn in this process with the
        exact generator consumption of an inline run and every injection
        carries a pinned seed, so outcomes, per-layer vulnerability, and
        telemetry events are bitwise-identical to ``workers=1`` — only
        wall clock changes.  On platforms without ``fork`` the chunks run
        inline with a :class:`RuntimeWarning`.

        ``journal=`` names a crash-consistent write-ahead log
        (:mod:`repro.campaign.recovery`): every completed chunk is
        fsync'd to it, and a rerun against the same journal path (same
        campaign construction, same seed, same ``n_injections``) resumes
        exactly where the interrupted run stopped — including after
        ``kill -9`` — with bitwise-identical results.  A journal written
        for a different plan or model is rejected with
        :class:`~repro.campaign.recovery.JournalMismatchError`.

        SIGINT, and SIGTERM when this runs on the main thread, interrupt
        the run gracefully on either executor: the journal is closed, the
        observe sink flushed, and :class:`CampaignInterrupted` raised with
        a ``partial`` progress summary.

        ``recovery=`` (fleet runs only) is a
        :class:`~repro.campaign.recovery.RecoveryPolicy` (or kwargs dict)
        tuning chunk retry, worker respawn, the per-chunk watchdog, and
        graceful-shutdown draining.

        ``resident=`` installs a persistent fault set (e.g. a
        :class:`~repro.scenario.ResidentFaultSet` of stuck-at weight
        faults) on the work model for the *whole* run: the faults survive
        across every inference — pool evaluations, resume re-captures,
        forked workers inherit them — and the original weights are
        restored, verified bitwise, when the run ends.  The resume cache
        is invalidated whenever the resident set changes between runs,
        and the journal fingerprint pins the set so a journal written for
        a different resident configuration is rejected.

        ``telemetry=`` names the run's event bus
        (:class:`~repro.telemetry.TelemetryBus`, or ``True`` for a fresh
        one with a flight recorder); without one the run publishes into a
        bare bus of its own.  Every producer publishes there — the run's
        lifecycle, one ``campaign/chunk`` progress envelope per folded
        chunk, recovery/journal events, worker liveness, observe events —
        and every reader consumes from there: the progress reporter, the
        observe sink, and whatever the caller attached
        (stream server, sampler, flight recorder, ``repro top``).
        Publishing never perturbs the science: outcomes, RNG stream, and
        cache statistics are bitwise identical with any reader attached.
        On an abnormal end (interrupt, fleet exhausted, unhandled
        exception) an attached flight recorder dumps its ring of recent
        events next to the journal (or into its configured directory).
        """
        if n_injections < 1:
            raise ValueError(f"n_injections must be >= 1, got {n_injections}")
        if workers is None:
            workers = 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        from ..observe import coerce_tracer

        progress = coerce_progress(progress)
        fleet = worker_fleet(self, workers, recovery)
        self._begin_resident_session(resident)
        self.telemetry = bus = coerce_bus(telemetry) or TelemetryBus()
        recorder = bus.recorder
        # Failure sites closer to the fault (fleet-exhausted, quarantine)
        # dump the flight recorder themselves with a sharper reason; the
        # mark keeps the catch-all below from dumping a second time.
        dump_mark = len(recorder.dumps) if recorder is not None else None
        flight_dir = Path(journal).parent if journal is not None else None
        # SIGTERM gets the same graceful treatment as Ctrl-C.  Handlers only
        # install from the main thread; elsewhere a SIGTERM keeps its
        # default disposition and the journal still survives (it is
        # fsync'd per record).
        try:
            previous_sigterm = signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
        except ValueError:
            previous_sigterm = None
        tracer = journal_log = None
        consumers = []
        try:
            tracer = coerce_tracer(observe)
            if tracer is not None:
                tracer.attach(self)
                self.observer = tracer
            # The run's readers, attached for this run only.
            consumers = [consume for consume in (
                progress, tracer.consume if tracer is not None else None)
                if consume is not None]
            for consume in consumers:
                bus.add_consumer(consume)
            bus.publish("campaign", "run_start", {
                "network": self.network_name,
                "n_injections": int(n_injections),
                "workers": int(workers),
                "target": self.target,
                "journal": str(journal) if journal is not None else None,
            })
            started = time.perf_counter()
            plan = self._plan(n_injections)
            chunks = self._chunks(plan[1], n_injections)
            completed = {}
            if journal is not None:
                journal_log, completed = recovery_mod.open_journal(
                    journal, self, n_injections, plan, len(chunks))
            run = _CampaignRun(self, n_injections, plan, chunks, journal_log,
                               tracer, traced=trace is not None)
            if tracer is not None:
                tracer.begin(self, n_injections)
            try:
                for cid, record in completed.items():
                    run.fold(cid, record, "journal")
                if fleet is not None:
                    fleet.execute(run)
                else:
                    for cid in range(len(chunks)):
                        if cid not in run.done:
                            record, elapsed_s = self._run_chunk(run, cid)
                            run.fold(cid, record, "inline", elapsed_s)
            except KeyboardInterrupt:
                # The folded chunks' forwards are already in perf; their
                # injections and the wall time belong beside them.
                self.perf.injections += run.completed_injections
                self.perf.elapsed_seconds += time.perf_counter() - started
                if journal_log is not None:
                    journal_log.close()
                if tracer is not None and hasattr(tracer.sink, "flush"):
                    tracer.sink.flush()
                raise CampaignInterrupted(run.partial()) from None
            wall = time.perf_counter() - started
            if fleet is not None:
                fleet.finish(run, wall)
            self.perf.injections += run.completed_injections
            self.perf.elapsed_seconds += wall
            if trace is not None:
                for p in sorted(run.trace_rows):
                    trace.record(**run.trace_rows[p])
            if run.quarantined:
                bus.dump_flight("quarantine", out_dir=flight_dir)
            result = CampaignResult(
                network=self.network_name,
                criterion=self.criterion_name,
                injections=run.completed_injections,
                corruptions=run.corrupted_total,
                confidence=confidence,
                per_layer_injections=run.per_layer_inj,
                per_layer_corruptions=run.per_layer_cor,
            )
            if journal_log is not None and not run.quarantined:
                journal_log.write_footer(result)
                bus.publish("recovery", "journal_complete", {
                    "path": str(journal_log.path),
                    "chunks_written": int(journal_log.records_written),
                })
            if tracer is not None:
                tracer.finish(self, result)
            bus.publish("campaign", "run_end", {
                "injections": int(result.injections),
                "corruptions": int(result.corruptions),
            })
            return result
        except BaseException as err:
            reason = ("interrupt" if isinstance(err, KeyboardInterrupt)
                      else type(err).__name__.lower())
            bus.publish("campaign", "run_aborted",
                        {"reason": reason, "error": str(err)})
            if recorder is not None and len(recorder.dumps) == dump_mark:
                bus.dump_flight(reason, out_dir=flight_dir)
            raise
        finally:
            if journal_log is not None:
                journal_log.close()
            if tracer is not None:
                tracer.detach()
            if previous_sigterm is not None:
                signal.signal(signal.SIGTERM, previous_sigterm)
            for consume in consumers:
                bus.remove_consumer(consume)
            self.telemetry = None
            self._end_resident_session()


class _CampaignRun:
    """One run's plan and accumulators; every completed chunk folds here.

    Inline chunks, worker chunks, and chunks replayed from the journal all
    reach the result through :meth:`fold` — so a resumed, a parallel, and
    an undisturbed run add up the same records the same way, and publish
    the same progress.
    """

    def __init__(self, campaign, n_injections, plan, chunks, journal, tracer,
                 traced):
        self.campaign = campaign
        self.n_injections = n_injections
        self.plan = plan
        self.chunks = chunks
        self.journal = journal
        self.tracer = tracer
        self.meter = ProgressMeter(n_injections)
        self.per_layer_inj = np.zeros(campaign.fi.num_layers, dtype=np.int64)
        self.per_layer_cor = np.zeros(campaign.fi.num_layers, dtype=np.int64)
        self.corrupted_total = 0
        self.completed_injections = 0
        # Plan position -> InjectionTrace event; held only for a traced run.
        self.trace_rows = {} if traced else None
        self.done = set()
        self.quarantined = {}  # chunk id -> failure report (fleet runs)

    def fold(self, cid, record, origin, elapsed_s=None, rows=()):
        """Fold one completed chunk record; False for a duplicate completion.

        ``origin`` names where the chunk ran: ``"inline"`` in this process,
        ``"worker"`` on the fleet, or ``"journal"`` in an earlier run (it
        is not rewritten to the journal).  ``elapsed_s`` is an executed
        chunk's wall time; ``rows`` are the ``(source, kind, data,
        worker)`` rows a worker's private bus collected while running it.

        The record is journaled durably first; then its lane rows fold
        into the per-layer arrays (and, for a traced run, the trace buffer
        by plan position), its perf delta folds into ``campaign.perf``
        whatever the origin, the worker's rows republish verbatim on the
        run's bus, and one ``campaign/chunk`` envelope reports the chunk,
        its ``[layer, corrupted]`` tallies and the run's progress.
        """
        if cid in self.done or cid in self.quarantined:
            return False  # a retried chunk's duplicate; results identical
        campaign = self.campaign
        if self.journal is not None and origin != "journal":
            self.journal.write_chunk(cid, record)
        self.done.add(cid)
        tallies = recovery_mod.fold_chunk_tallies(
            record, self.per_layer_inj, self.per_layer_cor, self.trace_rows)
        self.corrupted_total += record["corruptions"]
        self.completed_injections += record["injections"]
        perf = campaign.perf.add(record["perf"])
        # An inline chunk changed this process's cache, a worker's chunk
        # only its own; a record from an older journal may still carry a
        # cache_bytes delta.  Either way the gauge is re-read here.
        campaign._sync_cache_bytes()
        bus = campaign.telemetry
        for source, kind, data, wid in rows:
            bus.publish(source, kind, data, worker=wid)
        rate, eta = self.meter.update(self.completed_injections,
                                      executed=origin != "journal")
        bus.publish("campaign", "chunk", {
            "chunk": int(cid),
            "origin": origin,
            "layer": record["layer"],
            "injections": record["injections"],
            "corruptions": record["corruptions"],
            "resumed": bool(record["perf"].get("resumed_forwards", 0)),
            "tallies": tallies,
            "elapsed_s": elapsed_s,
            "done": self.completed_injections,
            "total": int(self.n_injections),
            "rate": rate,
            "eta_s": eta,
            "cache_hit_rate": (perf.cache_hit_rate
                               if perf.cache_hits + perf.cache_misses else None),
        })
        return True

    def partial(self):
        """What an interrupted run completed, for :class:`CampaignInterrupted`."""
        return {
            "completed_injections": self.completed_injections,
            "n_injections": self.n_injections,
            "journal": str(self.journal.path) if self.journal is not None else None,
            "completed_chunks": len(self.done),
            "n_chunks": len(self.chunks),
        }


class CampaignInterrupted(KeyboardInterrupt):
    """A campaign shut down gracefully on SIGINT/SIGTERM.

    Raised after in-flight chunks drained, the journal and sinks flushed,
    and every child terminated.  ``partial`` summarises what completed so
    callers (the CLI, experiment drivers) can report progress and point at
    the journal for resumption.
    """

    def __init__(self, partial):
        self.partial = partial
        super().__init__(
            f"campaign interrupted: {partial['completed_injections']}"
            f"/{partial['n_injections']} injections completed"
            + (f", journaled to {partial['journal']}" if partial.get("journal")
               else ""))


def _raise_keyboard_interrupt(signum, frame):
    raise KeyboardInterrupt
