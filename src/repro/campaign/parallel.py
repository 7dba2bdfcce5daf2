"""Deterministic, fault-tolerant multi-process campaign execution.

A :class:`ParallelCampaignExecutor` runs one :class:`InjectionCampaign`
plan across N fork-based worker processes and merges the shards back into
exactly what a serial run would have produced.  The determinism argument
has three legs, all properties the serial design already guarantees:

1. **The plan is drawn in the parent.**  ``InjectionCampaign._plan`` makes
   every random decision (input choice, site location, per-injection seed)
   with batched generator calls before any forward runs, so the parent's
   RNG stream — and hence any later ``run()`` — is byte-identical to the
   serial path.
2. **Every injection carries a pinned seed.**  Error-model draws come from
   a per-injection ``default_rng(seed)``, so an injection's outcome does
   not depend on which process executes it, in what order, or alongside
   which batch mates — chunks are grouped per layer before partitioning,
   exactly as serially.
3. **Replay is bitwise-exact regardless of cache state.**  The resume
   engine produces identical logits whether a chunk resumes from a cached
   checkpoint or runs a full forward, so workers' private (forked,
   copy-on-write warm) caches cannot change outcomes.

Given those, chunk → worker assignment is pure scheduling: *any*
assignment — including re-executing a dead worker's chunk on a different
process — reproduces the serial outcomes bit for bit.  That is what makes
the failure handling in this module sound:

* **Chunk retry.**  Chunks are dispatched one at a time to idle workers.
  A worker that dies (SIGKILL, OOM), hangs past the per-chunk watchdog
  deadline, or raises mid-chunk has its chunk requeued and re-executed by
  a surviving worker (or a bounded number of respawned replacements, with
  exponential backoff).  A chunk that keeps failing is *quarantined* after
  ``RecoveryPolicy.max_chunk_attempts`` and reported explicitly instead of
  crashing the campaign.
* **Crash-consistent journal.**  ``run(..., journal=path)`` appends one
  checksummed, fsync'd record per completed chunk
  (:mod:`repro.campaign.recovery`), so a campaign killed outright —
  ``kill -9`` included — resumes exactly where it stopped.
* **Graceful shutdown.**  SIGINT/SIGTERM drain in-flight chunks into the
  journal, flush every sink, and terminate all children — no orphan
  processes, no lost completed work.  Even a ``kill -9`` of the parent
  leaves no orphans: workers poll for work with a timeout and self-exit
  when they notice they have been reparented.

Each worker talks to the parent over one private duplex pipe and sends
one message per completed chunk: its journal record plus one ordered
envelope list.  Nothing is shared between workers, so a worker killed
mid-send corrupts only its own pipe, which the parent reads as EOF and
discards with the worker.  The parent folds every chunk message in one
place, and that merge is order-independent: per-layer tallies are integer
sums, per-chunk perf deltas add (:meth:`CampaignPerfCounters.merge` and
:meth:`MetricsRegistry.merge_snapshot` stay associative and commutative),
observe events are keyed by plan position (``index``) and emitted in
serial order, a retried chunk's duplicate completion is dropped whole
(re-executions are bitwise identical), and worker profiler spans become
per-pid Chrome-trace lanes (``perf_counter`` reads ``CLOCK_MONOTONIC``,
which is system-wide on Linux, so forked workers share the parent's
timeline).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
import warnings
from collections import deque
from multiprocessing.connection import wait
from pathlib import Path

import numpy as np

from ..observe.events import injection_summary
from ..profile.heartbeat import _finish_progress, coerce_progress
from . import recovery as recovery_mod
from .recovery import coerce_policy
from .runner import CampaignResult

_JOIN_TIMEOUT_S = 30.0
_POLL_TIMEOUT_S = 1.0


def partition_chunks(chunks, workers):
    """Split a chunk list into ≤ ``workers`` contiguous, balanced shards.

    Each chunk lands in the shard its injection-count midpoint falls into,
    so shards are contiguous runs of the (layer-sorted) chunk list with
    near-equal injection totals.  Deterministic — same input, same shards —
    and empty shards are dropped, so tiny campaigns simply use fewer
    workers.  (The executor now dispatches chunks dynamically; this
    partitioner remains the static-sharding primitive for callers that
    want a fixed split.)
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    chunks = list(chunks)
    total = sum(len(chunk) for chunk in chunks)
    shards = [[] for _ in range(workers)]
    cum = 0
    for chunk in chunks:
        mid = cum + len(chunk) / 2.0
        w = min(workers - 1, int(mid * workers / total)) if total else 0
        shards[w].append(chunk)
        cum += len(chunk)
    return [shard for shard in shards if shard]


def _worker_main(campaign, wid, conn, chunks, plan, observe, record_events):
    """Body of one forked campaign worker.

    Runs in the child process over forked (copy-on-write) campaign state:
    the model, pool, and activation cache arrive warm from the parent.
    Receives chunk ids one at a time over its private pipe ``conn``
    (``None`` is the stop sentinel) and answers each completed chunk with
    exactly one ``("chunk", id, record, envelopes)`` message: ``record``
    is the chunk's journal record and ``envelopes`` the ordered list its
    :class:`~repro.telemetry.WorkerTelemetryRelay` collected — bus rows,
    full observe events, clean-capture counts, profiler spans and metrics.
    A worker that dies mid-campaign has already shipped everything it
    completed.  A chunk whose execution raises is reported as
    ``chunk_failed`` and the worker moves on; the parent decides between
    retry and quarantine.
    """
    # The parent coordinates shutdown: a terminal Ctrl-C lands on the whole
    # process group, and workers must keep draining their current chunk
    # while the parent runs its graceful-shutdown protocol.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        from ..profile.export import span_records
        from ..profile.profiler import NULL_PROFILER, Profiler
        from ..telemetry import WorkerTelemetryRelay

        pool_idx, layers, coords, seeds = plan
        # The parent's bus forked along with the campaign, but a
        # copy-on-write clone of its queues goes nowhere.  The relay
        # buffers everything this worker reports until the chunk ships.
        relay = WorkerTelemetryRelay(wid)
        campaign.telemetry = relay
        profiling = campaign.profiler.enabled
        campaign.profiler = Profiler() if profiling else NULL_PROFILER
        if campaign._resume is not None:
            campaign._resume.profiler = campaign.profiler
        tracer = None
        if observe:
            from ..observe import PropagationTracer

            tracer = PropagationTracer()
            tracer.attach(campaign)
    except BaseException:
        conn.send(("fatal", traceback.format_exc()))
        raise

    parent_pid = os.getppid()
    while True:
        if not conn.poll(_POLL_TIMEOUT_S):
            if os.getppid() != parent_pid:
                # Orphaned: the parent was killed outright (kill -9) and
                # could not run its shutdown protocol.  Everything
                # completed so far is already shipped (and journaled).
                return
            continue
        try:
            cid = conn.recv()
        except EOFError:
            return
        if cid is None:
            return
        conn.send(("start", cid))
        try:
            records = []
            campaign._execute_plan(
                [chunks[cid]], pool_idx, layers, coords, seeds,
                observer=tracer,
                events={} if record_events else None,
                on_chunk=lambda _, info: records.append(info),
                chunk_ids=[cid])
            if tracer is not None and tracer.clean_captures:
                relay.publish("observe", "captures", tracer.clean_captures)
            if profiling:
                relay.publish("profile", "spans", span_records(campaign.profiler))
                relay.publish("profile", "metrics",
                              campaign.profiler.metrics.snapshot())
            conn.send(("chunk", cid, records[0], relay.take()))
        except BaseException:
            conn.send(("chunk_failed", cid, traceback.format_exc()))
        finally:
            # Whatever did not ship (a failed attempt's partial reports)
            # is dropped with the attempt.
            relay.take()
            campaign.profiler.reset()
            if tracer is not None:
                tracer.clean_captures = 0


class _WorkerHandle:
    """Parent-side view of one worker: process, pipe, and current chunk."""

    __slots__ = ("wid", "proc", "conn", "current", "started_at", "injections",
                 "alive", "stopped", "error")

    def __init__(self, wid, proc, conn):
        self.wid = wid
        self.proc = proc
        self.conn = conn
        self.current = None  # chunk id dispatched to (or running on) the worker
        self.started_at = None  # monotonic time the current chunk started
        self.injections = 0
        self.alive = True  # until its pipe closes or the parent kills it
        self.stopped = False  # the parent sent the stop sentinel
        self.error = None  # traceback of a crashed worker setup


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


class ParallelCampaignExecutor:
    """Fan one campaign plan out over N forked workers; merge the shards.

    Constructed on demand by ``InjectionCampaign.run(..., workers=N)``;
    usable directly when a caller wants ``parallel_info`` without going
    through the campaign façade::

        executor = ParallelCampaignExecutor(campaign, workers=4)
        result = executor.run(10_000)

    After ``run()`` the campaign's ``parallel_info`` dict records the
    worker count actually used, per-worker injection counts and pids, the
    fleet's wall clock, and the recovery ledger (retries, requeues,
    quarantined chunks, worker failures/respawns) — the numbers ``repro
    inject --json`` reports.  ``recovery`` is a
    :class:`~repro.campaign.recovery.RecoveryPolicy` (or kwargs dict)
    tuning the failure handling.
    """

    def __init__(self, campaign, workers, recovery=None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.campaign = campaign
        self.workers = int(workers)
        self.policy = coerce_policy(recovery)

    def _publish(self, source, kind, data):
        """Publish one telemetry envelope if the campaign has a bus."""
        bus = self.campaign.telemetry
        if bus is not None:
            bus.publish(source, kind, data)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(self, n_injections, confidence=0.99, progress=None, trace=None,
            observe=None, journal=None):
        """Execute ``n_injections`` across the worker fleet; merge results.

        Semantics match ``InjectionCampaign.run(..., workers=1)`` exactly
        (outcomes, per-layer vulnerability, trace and observe events,
        merged cache statistics); only wall clock differs — and the run
        survives worker death, hangs, and interrupts (see the module
        docstring).  Falls back to the serial path with a
        :class:`RuntimeWarning` where ``fork`` is unavailable.
        """
        campaign = self.campaign
        if n_injections < 1:
            raise ValueError(f"n_injections must be >= 1, got {n_injections}")
        if self.workers == 1:
            return campaign.run(n_injections, confidence=confidence,
                                progress=progress, trace=trace, observe=observe,
                                journal=journal)
        if "fork" not in multiprocessing.get_all_start_methods():
            warnings.warn(
                "fork start method unavailable; parallel campaign falling back "
                "to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
            return campaign.run(n_injections, confidence=confidence,
                                progress=progress, trace=trace, observe=observe,
                                journal=journal)

        progress = coerce_progress(progress, campaign)
        prof = campaign.profiler
        started = time.perf_counter()
        with prof.span("campaign.plan", cat="campaign", injections=n_injections):
            pool_idx, layers, coords, seeds = campaign._plan(n_injections)
        plan = (pool_idx, layers, coords, seeds)
        chunks = campaign._chunks(layers, n_injections)

        journal_log = None
        completed = {}
        if journal is not None:
            journal_log, completed = recovery_mod.open_journal(
                journal, campaign, n_injections, plan, len(chunks))

        tracer = None
        if observe is not None and observe is not False:
            from ..observe import coerce_tracer

            tracer = coerce_tracer(observe)
            # Surface the same error a worker's attach() would, before forking.
            if campaign.target != "neuron":
                raise ValueError(
                    "propagation tracing requires a neuron campaign; weight "
                    "campaigns perturb before the forward, so there is no "
                    "injection site to trace from")
            campaign.observer = tracer
            tracer.begin(campaign, n_injections)  # header first, sized buffer
            if hasattr(tracer.sink, "flush"):
                tracer.sink.flush()  # nothing buffered crosses the fork

        # A journal always captures trace events: the run that resumes it
        # may ask for a trace even if this (interrupted) one did not.
        state = _FleetState(campaign, chunks, plan, n_injections, journal_log,
                            tracer, progress,
                            record_events=trace is not None or journal is not None)
        for cid, record in completed.items():
            state.fold_journaled(cid, record)
        if progress is not None and state.completed_injections:
            progress(state.completed_injections, n_injections)
        if state.completed_injections:
            self._publish("campaign", "progress", {
                "done": state.completed_injections, "total": n_injections})

        # SIGTERM gets the same graceful-drain treatment as Ctrl-C.  Signal
        # handlers only install from the main thread; elsewhere a SIGTERM
        # keeps its default disposition and the journal still survives (it
        # is fsync'd per record).
        try:
            previous_sigterm = signal.signal(
                signal.SIGTERM, _raise_keyboard_interrupt)
        except ValueError:
            previous_sigterm = None
        try:
            if state.backlog:
                self._execute_fleet(state, prof)
        except BaseException:
            if journal_log is not None:
                journal_log.close()  # idempotent; already closed on drain paths
            raise
        finally:
            if previous_sigterm is not None:
                signal.signal(signal.SIGTERM, previous_sigterm)
        wall = time.perf_counter() - started

        return self._merge(state, confidence, wall, trace)

    def _spawn(self, ctx, state, wid):
        """Fork one worker (initial fleet or respawned replacement)."""
        conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main,
            args=(self.campaign, wid, child_conn, state.chunks, state.plan,
                  state.tracer is not None, state.record_events),
            daemon=True,
        )
        proc.start()
        # The worker now holds the only child end: its exit reads as EOF.
        child_conn.close()
        state.workers[wid] = _WorkerHandle(wid, proc, conn)
        self._publish("worker", "spawn", {"wid": wid, "pid": proc.pid})

    def _execute_fleet(self, state, prof):
        """Spawn the fleet and schedule every pending chunk to completion."""
        ctx = multiprocessing.get_context("fork")
        n_workers = min(self.workers, len(state.backlog))
        try:
            with prof.span("campaign.parallel", cat="campaign",
                           workers=n_workers,
                           injections=state.n_injections) as pspan:
                for wid in range(n_workers):
                    self._spawn(ctx, state, wid)
                try:
                    self._schedule(state, ctx)
                    self._stop_fleet(state, _JOIN_TIMEOUT_S)
                except KeyboardInterrupt:
                    self._graceful_shutdown(state)
                    raise CampaignInterrupted({
                        "completed_injections": state.completed_injections,
                        "n_injections": state.n_injections,
                        "journal": str(state.journal.path)
                        if state.journal is not None else None,
                        "completed_chunks": len(state.done),
                        "n_chunks": len(state.chunks),
                    }) from None
                pspan.annotate(pids=[h.proc.pid for h in state.workers.values()])
        finally:
            for handle in state.workers.values():
                if handle.proc.is_alive():
                    handle.proc.terminate()
                    handle.proc.join(timeout=_JOIN_TIMEOUT_S)
                handle.conn.close()

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def _schedule(self, state, ctx):
        """The parent's event loop: dispatch, results, failures, respawns."""
        policy = self.policy
        respawn_at = None
        while state.outstanding:
            if respawn_at is not None and time.monotonic() >= respawn_at:
                respawn_at = None
                wid = len(state.workers)
                self._spawn(ctx, state, wid)
                state.respawns += 1
                self._publish("recovery", "worker_respawned",
                              {"wid": wid, "respawns": state.respawns})
            for handle in state.live_workers():
                if handle.current is None and state.backlog:
                    self._dispatch(handle, state.backlog.popleft())
            self._pump(state, _POLL_TIMEOUT_S)
            self._watchdog(state)
            if (not state.live_workers() and state.outstanding
                    and respawn_at is None):
                if state.respawns >= policy.max_respawns:
                    self._publish("recovery", "fleet_exhausted", {
                        "respawns": state.respawns,
                        "unfinished_chunks": len(state.outstanding)})
                    bus = self.campaign.telemetry
                    if bus is not None and getattr(bus, "recorder", None) is not None:
                        bus.dump_flight(
                            "fleet_exhausted",
                            out_dir=Path(state.journal.path).parent
                            if state.journal is not None else None)
                    raise RuntimeError(
                        f"campaign fleet exhausted: every worker died, "
                        f"{state.respawns} respawn(s) already used "
                        f"(RecoveryPolicy.max_respawns={policy.max_respawns}), "
                        f"{len(state.outstanding)} chunk(s) unfinished"
                        + (f"; completed work is journaled at "
                           f"{state.journal.path}" if state.journal else ""))
                backoff = policy.respawn_backoff_s * (2 ** state.respawns)
                respawn_at = time.monotonic() + backoff

    @staticmethod
    def _dispatch(handle, cid):
        """Hand one chunk to an idle worker."""
        handle.current = cid
        handle.started_at = None  # watchdog clock starts at the "start" msg
        try:
            handle.conn.send(cid)
        except OSError:
            pass  # already dead: the exit scan requeues the unstarted chunk

    def _pump(self, state, timeout):
        """Wait for worker traffic, handle every message, reap exits.

        Each worker writes only its own pipe, so a worker killed mid-send
        tears nothing but that pipe — read here as EOF or a torn message,
        like its process sentinel, and thrown away with the worker.
        """
        live = [h for h in state.workers.values() if h.alive]
        wait([h.conn for h in live] + [h.proc.sentinel for h in live], timeout)
        for handle in live:
            # Exit status first: a worker already dead has written every
            # message it ever will, so the drain below misses none.
            exited = handle.proc.exitcode is not None
            while True:
                try:
                    if not handle.conn.poll():
                        break
                    msg = handle.conn.recv()
                except (EOFError, OSError):
                    exited = True
                    break
                except KeyboardInterrupt:
                    # An interrupted recv can leave half a message behind:
                    # never read this pipe again; shutdown kills the worker.
                    handle.alive = False
                    raise
                self._on_message(state, handle, msg)
            if exited:
                self._on_exit(state, handle)

    def _on_message(self, state, handle, msg):
        kind = msg[0]
        if kind == "start":
            handle.started_at = time.monotonic()
        elif kind == "chunk":
            self._fold(state, handle, *msg[1:])
        elif kind == "chunk_failed":
            handle.current = None
            handle.started_at = None
            self._chunk_failed(state, msg[1], msg[2])
        elif kind == "fatal":
            # Setup crashed before the task loop; the exit scan reports it
            # and requeues the worker's chunk.
            handle.error = msg[1]

    def _on_exit(self, state, handle):
        """A worker's pipe closed: a requested stop, or a death to recover."""
        handle.alive = False
        handle.proc.join(timeout=_JOIN_TIMEOUT_S)
        handle.conn.close()
        if handle.stopped and handle.proc.exitcode == 0:
            self._publish("worker", "exit",
                          {"wid": handle.wid, "pid": handle.proc.pid})
            return
        state.worker_failures += 1
        detail = handle.error or f"exit code {handle.proc.exitcode}"
        warnings.warn(
            f"campaign worker {handle.wid} died ({detail}); "
            f"requeueing its work", RuntimeWarning, stacklevel=2)
        self._publish("worker", "died", {
            "wid": handle.wid, "pid": handle.proc.pid,
            "detail": detail.splitlines()[-1] if detail else detail})
        if handle.current is not None:
            cid, handle.current = handle.current, None
            if handle.started_at is None:
                # Never started: no attempt burned, plain requeue.
                state.requeue(cid)
            else:
                self._chunk_failed(
                    state, cid, f"worker {handle.wid} died "
                    f"({detail}) while executing the chunk")

    def _watchdog(self, state):
        """Kill workers stuck past the per-chunk deadline; retry their chunk."""
        watchdog_s = self.policy.watchdog_s
        if watchdog_s is None:
            return
        now = time.monotonic()
        for handle in state.live_workers():
            if handle.started_at is None or now - handle.started_at <= watchdog_s:
                continue
            state.worker_failures += 1
            cid = handle.current
            warnings.warn(
                f"campaign worker {handle.wid} exceeded the "
                f"{watchdog_s:g}s per-chunk watchdog on chunk "
                f"{cid}; terminating it", RuntimeWarning, stacklevel=2)
            self._publish("recovery", "watchdog_kill", {
                "wid": handle.wid, "chunk": cid, "watchdog_s": watchdog_s})
            self._publish("worker", "died", {
                "wid": handle.wid, "pid": handle.proc.pid,
                "detail": "watchdog"})
            handle.proc.kill()
            handle.proc.join(timeout=_JOIN_TIMEOUT_S)
            handle.conn.close()
            handle.alive = False
            handle.current = handle.started_at = None
            self._chunk_failed(
                state, cid,
                f"watchdog: chunk exceeded {watchdog_s:g}s "
                f"on worker {handle.wid}")

    def _fold(self, state, handle, cid, record, envelopes):
        """Fold one completed chunk: the parent's only merge.

        Journals the record durably first, folds its tallies, perf delta,
        and trace events, then replays the worker's envelope list in the
        order it was produced: full observe events land in the tracer's
        plan-ordered buffer (their bus summary is derived here), clean
        captures, spans, and metrics fold into this process, and bus rows
        republish with this process's sequence numbers.
        """
        handle.started_at = None
        if handle.current == cid:
            handle.current = None
        if cid in state.done or cid in state.quarantined:
            return  # duplicate completion of a retried chunk; results identical
        if state.journal is not None:
            state.journal.write_chunk(cid, record)
        state.done.add(cid)
        state.fold_tallies(record)
        handle.injections += record["injections"]
        bus = self.campaign.telemetry
        prof = self.campaign.profiler
        for source, kind, data, worker in envelopes:
            if source == "profile":
                if kind == "spans":
                    prof.adopt_spans(data, pid=handle.proc.pid,
                                     process_name=f"repro.worker[{handle.wid}]")
                else:
                    prof.metrics.merge_snapshot(data)
                continue
            if source == "observe":
                if kind == "captures":
                    state.tracer.clean_captures += data
                    continue
                state.tracer.adopt(data)
                data = injection_summary(data)
            if bus is not None:
                bus.publish(source, kind, data, worker=worker)
        if state.progress is not None:
            state.progress(state.completed_injections, state.n_injections)

    def _chunk_failed(self, state, cid, detail):
        """One failed execution attempt: retry or quarantine."""
        if cid in state.done or cid in state.quarantined:
            return
        state.attempts[cid] = state.attempts.get(cid, 0) + 1
        state.chunk_retries += 1
        if state.attempts[cid] >= self.policy.max_chunk_attempts:
            state.chunk_retries -= 1  # the terminal attempt is not retried
            state.quarantine(cid, detail)
            self._publish("recovery", "chunk_quarantined", {
                "chunk": cid, "attempts": state.attempts[cid],
                "error": detail.splitlines()[-1] if detail else detail})
            warnings.warn(
                f"chunk {cid} quarantined after "
                f"{self.policy.max_chunk_attempts} failed attempt(s): "
                f"{detail.splitlines()[-1] if detail else detail}",
                RuntimeWarning, stacklevel=3)
        else:
            self._publish("recovery", "chunk_requeued", {
                "chunk": cid, "attempts": state.attempts[cid]})
            state.requeue(cid)

    def _stop_fleet(self, state, timeout_s):
        """Stop every worker after its current chunk; fold until they exit."""
        for handle in state.live_workers():
            handle.stopped = True
            try:
                handle.conn.send(None)
            except OSError:
                pass  # already dead: its pipe reads as EOF below
        deadline = time.monotonic() + timeout_s
        while any(h.alive for h in state.workers.values()):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            self._pump(state, min(_POLL_TIMEOUT_S, remaining))

    def _graceful_shutdown(self, state):
        """Drain in-flight chunks, then flush the journal and observe sink."""
        try:
            self._stop_fleet(state, self.policy.drain_timeout_s)
        except KeyboardInterrupt:
            pass  # second interrupt: stop draining, terminate now
        finally:
            if state.journal is not None:
                state.journal.close()
            observer = self.campaign.observer
            if observer is not None and hasattr(observer.sink, "flush"):
                observer.sink.flush()

    # ------------------------------------------------------------------ #
    # Merge
    # ------------------------------------------------------------------ #

    def _merge(self, state, confidence, wall, trace):
        """Turn the folded fleet state into serial-equivalent results."""
        campaign = self.campaign
        prof = campaign.profiler
        workers = list(state.workers.values())
        with prof.span("campaign.merge", cat="campaign", workers=len(workers)):
            perf = campaign.perf
            perf.chunk_retries += state.chunk_retries
            perf.chunks_requeued += state.requeued
            perf.chunks_quarantined += len(state.quarantined)
            perf.worker_failures += state.worker_failures
            perf.worker_respawns += state.respawns
            # Republishes merged perf into prof.metrics, fixing the derived
            # rate gauges the snapshot merge cannot reconstruct.
            campaign._finalize_perf(state.completed_injections, wall)
            if trace is not None:
                for p in sorted(state.trace_events):
                    trace.record(**state.trace_events[p])
        # A quarantined chunk leaves completed < total, so the heartbeat's
        # own final-tick bypass never fires; force its terminal line.
        _finish_progress(state.progress, state.completed_injections,
                         state.n_injections)
        bus = campaign.telemetry
        if (bus is not None and state.quarantined
                and getattr(bus, "recorder", None) is not None):
            bus.dump_flight(
                "quarantine",
                out_dir=Path(state.journal.path).parent
                if state.journal is not None else None)
        campaign.parallel_info = {
            "requested_workers": self.workers,
            "workers": len(workers),
            "wall_time_s": wall,
            "per_worker_injections": [h.injections for h in workers],
            "per_worker_pids": [int(h.proc.pid) for h in workers],
            "retries": state.chunk_retries,
            "requeued_chunks": state.requeued,
            "quarantined_chunks": len(state.quarantined),
            "quarantined": [
                {"chunk": cid, **info}
                for cid, info in sorted(state.quarantined.items())
            ],
            "worker_failures": state.worker_failures,
            "worker_respawns": state.respawns,
        }
        result = CampaignResult(
            network=campaign.network_name,
            criterion=campaign.criterion_name,
            injections=state.completed_injections,
            corruptions=state.corrupted_total,
            confidence=confidence,
            per_layer_injections=state.per_layer_inj,
            per_layer_corruptions=state.per_layer_cor,
        )
        if state.journal is not None:
            if not state.quarantined:
                state.journal.write_footer(result)
                self._publish("recovery", "journal_complete", {
                    "path": str(state.journal.path),
                    "chunks_written": int(state.journal.records_written),
                })
            state.journal.close()
        if state.tracer is not None:
            state.tracer.finish(campaign, result)
        return result


class _FleetState:
    """Every accumulator one parallel run threads through its phases."""

    def __init__(self, campaign, chunks, plan, n_injections, journal, tracer,
                 progress, record_events):
        self.campaign = campaign
        self.chunks = chunks
        self.plan = plan
        self.n_injections = n_injections
        self.journal = journal
        self.tracer = tracer
        self.progress = progress
        self.record_events = record_events
        self.per_layer_inj = np.zeros(campaign.fi.num_layers, dtype=np.int64)
        self.per_layer_cor = np.zeros(campaign.fi.num_layers, dtype=np.int64)
        self.corrupted_total = 0
        self.completed_injections = 0
        self.trace_events = {}
        self.backlog = deque(range(len(chunks)))
        self.done = set()
        self.quarantined = {}
        self.attempts = {}
        self.workers = {}
        self.chunk_retries = 0
        self.requeued = 0
        self.worker_failures = 0
        self.respawns = 0

    @property
    def outstanding(self):
        """Chunk ids still needing a successful execution."""
        inflight = {h.current for h in self.workers.values()
                    if h.current is not None}
        return (set(self.backlog) | inflight) - self.done - set(self.quarantined)

    def live_workers(self):
        """Workers still running and accepting chunks."""
        return [h for h in self.workers.values() if h.alive and not h.stopped]

    def requeue(self, cid):
        """Put a chunk back at the front; the scheduler redispatches it."""
        self.requeued += 1
        self.backlog.appendleft(cid)

    def quarantine(self, cid, detail):
        self.quarantined[cid] = {
            "layer": None,
            "positions": None,
            "injections": len(self.chunks[cid]),
            "error": detail,
        }

    def fold_journaled(self, cid, record):
        """Replay one journaled chunk record into the accumulators."""
        self.done.add(cid)
        try:
            self.backlog.remove(cid)
        except ValueError:
            pass
        self.fold_tallies(record)

    def fold_tallies(self, record):
        recovery_mod.fold_chunk_tallies(record, self.per_layer_inj,
                                        self.per_layer_cor)
        self.corrupted_total += record["corruptions"]
        self.completed_injections += record["injections"]
        recovery_mod.apply_chunk_perf(self.campaign, record["perf"])
        for p, event in recovery_mod.chunk_record_events(record).items():
            self.trace_events[p] = event
