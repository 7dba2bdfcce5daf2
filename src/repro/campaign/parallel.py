"""Deterministic, fault-tolerant multi-process campaign execution.

A :class:`ParallelCampaignExecutor` runs one :class:`InjectionCampaign`
plan across N fork-based worker processes and folds every chunk back into
exactly what an inline run would have produced.  The determinism argument
has three legs, all properties the serial design already guarantees:

1. **The plan is drawn in the parent.**  ``InjectionCampaign._plan`` makes
   every random decision (input choice, site location, per-injection seed)
   with batched generator calls before any forward runs, so the parent's
   RNG stream — and hence any later ``run()`` — is byte-identical to the
   serial path.
2. **Every injection carries a pinned seed.**  Error-model draws come from
   a per-injection ``default_rng(seed)``, so an injection's outcome does
   not depend on which process executes it, in what order, or alongside
   which batch mates — the chunk layout is fixed by the plan, exactly as
   inline.
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
  journal (and their observe events into the log), and terminate all
  children — no orphan processes, no lost completed work.  Even a
  ``kill -9`` of the parent leaves no orphans: workers poll for work with
  a timeout and self-exit when they notice they have been reparented.

Each worker talks to the parent over one private duplex pipe and sends
one message per completed chunk: its journal record, its wall time, and
the ordered rows its private telemetry bus collected.  Nothing is shared
between workers, so a worker killed mid-send corrupts only its own pipe,
which the parent reads as EOF and discards with the worker.  The parent
folds every chunk message through the same fold as inline and journaled
chunks (:meth:`InjectionCampaign.run
<repro.campaign.InjectionCampaign.run>`), and that fold is
order-independent: per-layer tallies and per-chunk perf deltas are
integer sums, the worker's rows republish on the run's bus — the same
observe events and clean-capture counts an inline chunk publishes there,
which the observe tracer buffers by plan position (``index``) and writes
in serial order, and which any other reader attached to the bus sees
tagged with the worker's id — and a retried chunk's duplicate completion
is dropped whole (re-executions are bitwise identical).
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

from .recovery import coerce_policy

_JOIN_TIMEOUT_S = 30.0
_POLL_TIMEOUT_S = 1.0


def worker_fleet(campaign, workers, recovery=None):
    """The fleet that runs ``campaign``'s chunks on ``workers`` processes.

    Returns None — run the chunks inline — for one worker, and on
    platforms without ``fork`` (with a :class:`RuntimeWarning`).
    """
    if workers == 1:
        return None
    if "fork" not in multiprocessing.get_all_start_methods():
        warnings.warn(
            "fork start method unavailable; parallel campaign falling back "
            "to serial execution",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    return ParallelCampaignExecutor(campaign, workers, recovery=recovery)


def _worker_main(campaign, wid, conn, run):
    """Body of one forked campaign worker.

    Runs in the child process over forked (copy-on-write) campaign state:
    the model, pool, activation cache, and the run's plan arrive warm from
    the parent, along with the run's propagation tracer, already attached
    to this copy of the model.  Receives chunk ids one at a time over its
    private pipe ``conn`` (``None`` is the stop sentinel) and answers each
    completed chunk with exactly one ``("chunk", id, record, elapsed_s,
    rows)`` message: ``record`` is the chunk's journal record, ``elapsed_s``
    its wall time, and ``rows`` what the chunk published on this worker's
    private bus — full observe events, clean-capture counts, and whatever
    else a reader of the run published there.  A worker that dies
    mid-campaign has already shipped everything it completed.  A
    chunk whose execution raises is reported as ``chunk_failed`` and the
    worker moves on; the parent decides between retry and quarantine.
    """
    # The parent coordinates shutdown: a terminal Ctrl-C lands on the whole
    # process group, and workers must keep draining their current chunk
    # while the parent runs its graceful-shutdown protocol.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        from ..telemetry import TelemetryBus

        # The parent's bus forked along with the campaign, but a
        # copy-on-write clone of it goes nowhere.  A private bus collects
        # everything this worker publishes until the chunk ships.
        rows = []
        bus = campaign.telemetry = TelemetryBus()
        bus.add_consumer(lambda env: rows.append(
            (env["source"], env["kind"], env["data"], wid)))
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
            record, elapsed_s = campaign._run_chunk(run, cid)
            conn.send(("chunk", cid, record, elapsed_s, rows))
        except BaseException:
            conn.send(("chunk_failed", cid, traceback.format_exc()))
        finally:
            # Whatever did not ship (a failed attempt's partial reports)
            # is dropped with the attempt.
            rows.clear()


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


class ParallelCampaignExecutor:
    """Dispatch one campaign run's chunks to N forked workers.

    The fleet executor of :meth:`InjectionCampaign.run
    <repro.campaign.InjectionCampaign.run>`: for ``workers=N`` the run's
    driver draws the plan, folds journaled chunks, and hands the rest to
    :meth:`execute`, which schedules them over the fleet and folds every
    chunk a worker ships through the driver's one fold.  Run one through
    ``campaign.run(n, workers=N, recovery=policy)``.

    After a fleet run the campaign's ``parallel_info`` dict records the
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
        self.handles = {}
        self.backlog = deque()
        self.attempts = {}
        self.chunk_retries = 0
        self.requeued = 0
        self.worker_failures = 0
        self.respawns = 0

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def execute(self, run):
        """Execute every chunk ``run`` has not folded yet on the fleet.

        Survives worker death, hangs, and poisoned chunks (see the module
        docstring).  On SIGINT/SIGTERM it drains in-flight chunks into the
        run, terminates every worker, and lets the ``KeyboardInterrupt``
        propagate to the driver.
        """
        self.backlog = deque(cid for cid in range(len(run.chunks))
                             if cid not in run.done)
        if not self.backlog:
            return
        ctx = multiprocessing.get_context("fork")
        n_workers = min(self.workers, len(self.backlog))
        try:
            for wid in range(n_workers):
                self._spawn(ctx, run, wid)
            try:
                self._schedule(run, ctx)
                self._stop_fleet(run, _JOIN_TIMEOUT_S)
            except KeyboardInterrupt:
                try:
                    self._stop_fleet(run, self.policy.drain_timeout_s)
                except KeyboardInterrupt:
                    pass  # second interrupt: stop draining, terminate now
                raise
        finally:
            for handle in self.handles.values():
                if handle.proc.is_alive():
                    handle.proc.terminate()
                    handle.proc.join(timeout=_JOIN_TIMEOUT_S)
                handle.conn.close()

    def finish(self, run, wall):
        """Fold the fleet's recovery ledger into perf; set ``parallel_info``."""
        campaign = self.campaign
        handles = list(self.handles.values())
        perf = campaign.perf
        perf.chunk_retries += self.chunk_retries
        perf.chunks_requeued += self.requeued
        perf.chunks_quarantined += len(run.quarantined)
        perf.worker_failures += self.worker_failures
        perf.worker_respawns += self.respawns
        campaign.parallel_info = {
            "requested_workers": self.workers,
            "workers": len(handles),
            "wall_time_s": wall,
            "per_worker_injections": [h.injections for h in handles],
            "per_worker_pids": [int(h.proc.pid) for h in handles],
            "retries": self.chunk_retries,
            "requeued_chunks": self.requeued,
            "quarantined_chunks": len(run.quarantined),
            "quarantined": [
                {"chunk": cid, **info}
                for cid, info in sorted(run.quarantined.items())
            ],
            "worker_failures": self.worker_failures,
            "worker_respawns": self.respawns,
        }

    def _spawn(self, ctx, run, wid):
        """Fork one worker (initial fleet or respawned replacement)."""
        conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_worker_main,
                           args=(self.campaign, wid, child_conn, run),
                           daemon=True)
        proc.start()
        # The worker now holds the only child end: its exit reads as EOF.
        child_conn.close()
        self.handles[wid] = _WorkerHandle(wid, proc, conn)
        self.campaign.telemetry.publish("worker", "spawn",
                                        {"wid": wid, "pid": proc.pid})

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def _outstanding(self, run):
        """Chunk ids still needing a successful execution."""
        inflight = {h.current for h in self.handles.values()
                    if h.current is not None}
        return (set(self.backlog) | inflight) - run.done - set(run.quarantined)

    def _live_workers(self):
        """Workers still running and accepting chunks."""
        return [h for h in self.handles.values() if h.alive and not h.stopped]

    def _requeue(self, cid):
        """Put a chunk back at the front; the scheduler redispatches it."""
        self.requeued += 1
        self.backlog.appendleft(cid)

    def _schedule(self, run, ctx):
        """The parent's event loop: dispatch, results, failures, respawns."""
        policy = self.policy
        respawn_at = None
        while self._outstanding(run):
            if respawn_at is not None and time.monotonic() >= respawn_at:
                respawn_at = None
                wid = len(self.handles)
                self._spawn(ctx, run, wid)
                self.respawns += 1
                self.campaign.telemetry.publish(
                    "recovery", "worker_respawned",
                    {"wid": wid, "respawns": self.respawns})
            for handle in self._live_workers():
                if handle.current is None and self.backlog:
                    self._dispatch(handle, self.backlog.popleft())
            self._pump(run, _POLL_TIMEOUT_S)
            self._watchdog(run)
            if (not self._live_workers() and self._outstanding(run)
                    and respawn_at is None):
                if self.respawns >= policy.max_respawns:
                    unfinished = len(self._outstanding(run))
                    bus = self.campaign.telemetry
                    bus.publish("recovery", "fleet_exhausted", {
                        "respawns": self.respawns,
                        "unfinished_chunks": unfinished})
                    bus.dump_flight(
                        "fleet_exhausted",
                        out_dir=run.journal.path.parent
                        if run.journal is not None else None)
                    raise RuntimeError(
                        f"campaign fleet exhausted: every worker died, "
                        f"{self.respawns} respawn(s) already used "
                        f"(RecoveryPolicy.max_respawns={policy.max_respawns}), "
                        f"{unfinished} chunk(s) unfinished"
                        + (f"; completed work is journaled at "
                           f"{run.journal.path}" if run.journal else ""))
                backoff = policy.respawn_backoff_s * (2 ** self.respawns)
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

    def _pump(self, run, timeout):
        """Wait for worker traffic, handle every message, reap exits.

        Each worker writes only its own pipe, so a worker killed mid-send
        tears nothing but that pipe — read here as EOF or a torn message,
        like its process sentinel, and thrown away with the worker.
        """
        live = [h for h in self.handles.values() if h.alive]
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
                self._on_message(run, handle, msg)
            if exited:
                self._on_exit(run, handle)

    def _on_message(self, run, handle, msg):
        kind = msg[0]
        if kind == "start":
            handle.started_at = time.monotonic()
        elif kind == "chunk":
            _, cid, record, elapsed_s, rows = msg
            handle.started_at = None
            if handle.current == cid:
                handle.current = None
            if run.fold(cid, record, "worker", elapsed_s, rows):
                handle.injections += record["injections"]
        elif kind == "chunk_failed":
            handle.current = None
            handle.started_at = None
            self._chunk_failed(run, msg[1], msg[2])
        elif kind == "fatal":
            # Setup crashed before the task loop; the exit scan reports it
            # and requeues the worker's chunk.
            handle.error = msg[1]

    def _on_exit(self, run, handle):
        """A worker's pipe closed: a requested stop, or a death to recover."""
        handle.alive = False
        handle.proc.join(timeout=_JOIN_TIMEOUT_S)
        handle.conn.close()
        if handle.stopped and handle.proc.exitcode == 0:
            self.campaign.telemetry.publish(
                "worker", "exit", {"wid": handle.wid, "pid": handle.proc.pid})
            return
        self.worker_failures += 1
        detail = handle.error or f"exit code {handle.proc.exitcode}"
        warnings.warn(
            f"campaign worker {handle.wid} died ({detail}); "
            f"requeueing its work", RuntimeWarning, stacklevel=2)
        self.campaign.telemetry.publish("worker", "died", {
            "wid": handle.wid, "pid": handle.proc.pid,
            "detail": detail.splitlines()[-1] if detail else detail})
        if handle.current is not None:
            cid, handle.current = handle.current, None
            if handle.started_at is None:
                # Never started: no attempt burned, plain requeue.
                self._requeue(cid)
            else:
                self._chunk_failed(
                    run, cid, f"worker {handle.wid} died "
                    f"({detail}) while executing the chunk")

    def _watchdog(self, run):
        """Kill workers stuck past the per-chunk deadline; retry their chunk."""
        watchdog_s = self.policy.watchdog_s
        if watchdog_s is None:
            return
        now = time.monotonic()
        for handle in self._live_workers():
            if handle.started_at is None or now - handle.started_at <= watchdog_s:
                continue
            self.worker_failures += 1
            cid = handle.current
            warnings.warn(
                f"campaign worker {handle.wid} exceeded the "
                f"{watchdog_s:g}s per-chunk watchdog on chunk "
                f"{cid}; terminating it", RuntimeWarning, stacklevel=2)
            self.campaign.telemetry.publish("recovery", "watchdog_kill", {
                "wid": handle.wid, "chunk": cid, "watchdog_s": watchdog_s})
            self.campaign.telemetry.publish("worker", "died", {
                "wid": handle.wid, "pid": handle.proc.pid,
                "detail": "watchdog"})
            handle.proc.kill()
            handle.proc.join(timeout=_JOIN_TIMEOUT_S)
            handle.conn.close()
            handle.alive = False
            handle.current = handle.started_at = None
            self._chunk_failed(
                run, cid,
                f"watchdog: chunk exceeded {watchdog_s:g}s "
                f"on worker {handle.wid}")

    def _chunk_failed(self, run, cid, detail):
        """One failed execution attempt: retry or quarantine."""
        if cid in run.done or cid in run.quarantined:
            return
        self.attempts[cid] = self.attempts.get(cid, 0) + 1
        self.chunk_retries += 1
        if self.attempts[cid] >= self.policy.max_chunk_attempts:
            self.chunk_retries -= 1  # the terminal attempt is not retried
            positions = run.chunks[cid]
            run.quarantined[cid] = {
                "layers": sorted({int(run.plan[1][p]) for p in positions}),
                "positions": list(positions),
                "injections": len(positions),
                "error": detail,
            }
            self.campaign.telemetry.publish("recovery", "chunk_quarantined", {
                "chunk": cid, "attempts": self.attempts[cid],
                "error": detail.splitlines()[-1] if detail else detail})
            warnings.warn(
                f"chunk {cid} quarantined after "
                f"{self.policy.max_chunk_attempts} failed attempt(s): "
                f"{detail.splitlines()[-1] if detail else detail}",
                RuntimeWarning, stacklevel=3)
        else:
            self.campaign.telemetry.publish("recovery", "chunk_requeued", {
                "chunk": cid, "attempts": self.attempts[cid]})
            self._requeue(cid)

    def _stop_fleet(self, run, timeout_s):
        """Stop every worker after its current chunk; fold until they exit."""
        for handle in self._live_workers():
            handle.stopped = True
            try:
                handle.conn.send(None)
            except OSError:
                pass  # already dead: its pipe reads as EOF below
        deadline = time.monotonic() + timeout_s
        while any(h.alive for h in self.handles.values()):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            self._pump(run, min(_POLL_TIMEOUT_S, remaining))
