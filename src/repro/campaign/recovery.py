"""Fault-tolerant campaign execution: journal, retry policy, fingerprints.

Large SDC campaigns (the paper's Fig. 4 sweeps, and the validation-scale
workloads of the Intel extension, arXiv:2310.19449) run for hours; the
binding constraint becomes *campaign reliability* — a run must survive
worker crashes, OOM kills, and operator interrupts without discarding the
work already done.  This module supplies the pieces the executors build
that on:

:class:`RecoveryPolicy`
    Knobs for the parallel executor's failure handling: how many times a
    chunk may fail before it is quarantined, how many replacement workers
    may be spawned (with exponential backoff), the per-chunk watchdog
    deadline, and the graceful-shutdown drain window.

:class:`CampaignJournal` / :func:`open_journal`
    A crash-consistent write-ahead log of per-chunk completion records.
    Every record is one checksummed JSON line written through
    :class:`~repro.observe.JsonlEventSink` with ``fsync=True``, so the
    journal survives ``kill -9`` with at most the in-flight record torn —
    and a torn or corrupt trailing record is skipped on reload, never
    fatal.  The header pins a :func:`plan_fingerprint`; resuming against a
    journal written for a different plan/model raises
    :class:`JournalMismatchError` instead of silently merging foreign
    results.

The determinism argument that makes both retry and resume sound is the
one :mod:`repro.campaign.parallel` already relies on: every random
decision lives in the upfront plan and every injection carries a pinned
seed, so a chunk's outcome does not depend on *which process* executes it
or *when* — re-executing a dead worker's chunk, or re-running a killed
campaign's remaining chunks in a fresh process, reproduces the undisturbed
result bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from ..observe.sinks import JsonlEventSink, load_events

JOURNAL_SCHEMA_VERSION = 1


class JournalError(ValueError):
    """A campaign journal could not be used."""


class JournalMismatchError(JournalError):
    """The journal was written for a different campaign plan or model."""


@dataclass
class RecoveryPolicy:
    """Failure-handling knobs for ``campaign.run(..., workers=N)``.

    ``max_chunk_attempts``
        A chunk that fails this many times (worker death, watchdog kill,
        or an exception during execution) is *quarantined*: reported
        explicitly in ``parallel_info`` and the perf counters instead of
        crashing the campaign.
    ``max_respawns``
        Replacement workers the executor may fork over the campaign's
        lifetime after worker deaths.  Respawns back off exponentially
        (``respawn_backoff_s * 2**k``).
    ``watchdog_s``
        Per-chunk deadline: a worker whose current chunk has been running
        longer than this is presumed hung, terminated, and its chunk
        retried.  ``None`` disables the watchdog (the default — chunk
        latency is model-dependent).
    ``drain_timeout_s``
        How long a graceful shutdown (SIGINT/SIGTERM) waits for in-flight
        chunks to finish and be journaled before terminating workers.
    """

    max_chunk_attempts: int = 3
    max_respawns: int = 2
    watchdog_s: float = None
    respawn_backoff_s: float = 0.25
    drain_timeout_s: float = 10.0

    def __post_init__(self):
        if self.max_chunk_attempts < 1:
            raise ValueError(
                f"max_chunk_attempts must be >= 1, got {self.max_chunk_attempts}")
        if self.max_respawns < 0:
            raise ValueError(f"max_respawns must be >= 0, got {self.max_respawns}")
        if self.watchdog_s is not None and self.watchdog_s <= 0:
            raise ValueError(f"watchdog_s must be positive, got {self.watchdog_s}")


def coerce_policy(recovery):
    """Normalise ``run(..., recovery=)``: None → defaults, dict → kwargs."""
    if recovery is None:
        return RecoveryPolicy()
    if isinstance(recovery, RecoveryPolicy):
        return recovery
    if isinstance(recovery, dict):
        return RecoveryPolicy(**recovery)
    raise TypeError(
        f"recovery must be a RecoveryPolicy, a dict, or None; "
        f"got {type(recovery).__name__}")


# ---------------------------------------------------------------------- #
# Plan fingerprint
# ---------------------------------------------------------------------- #

def plan_fingerprint(campaign, n_injections, plan):
    """A stable digest of one campaign plan and the model it targets.

    Two runs share a fingerprint exactly when they would execute the same
    injections against the same network — same plan arrays (pool choices,
    sites, pinned seeds), same campaign geometry.  The journal header pins
    this digest so a resume against the wrong plan fails loudly.
    """
    pool_idx, layers, coords, seeds = plan
    resident = getattr(campaign, "_resident_active", None)
    h = hashlib.sha256()
    h.update(json.dumps({
        "network": campaign.network_name,
        "criterion": campaign.criterion_name,
        "target": campaign.target,
        "error_model": type(campaign.error_model).__name__,
        "n_injections": int(n_injections),
        "batch_size": int(campaign.fi.batch_size),
        "num_layers": int(campaign.fi.num_layers),
        "pool_size": int(len(campaign.pool_images)),
        # Persistent faults change every outcome; a journal written under
        # one resident set must not resume a run under another.
        "resident": resident.fingerprint if resident is not None else None,
        "lane_packing": bool(getattr(campaign, "lane_packing", True)),
    }, sort_keys=True).encode())
    h.update(np.ascontiguousarray(np.asarray(pool_idx, dtype=np.int64)).tobytes())
    h.update(np.ascontiguousarray(np.asarray(layers, dtype=np.int64)).tobytes())
    h.update(json.dumps([[int(c) for c in cs] for cs in coords]).encode())
    h.update(np.ascontiguousarray(np.asarray(seeds, dtype=np.int64)).tobytes())
    # Chunk ids index the lane-packed chunk layout, so the layout itself is
    # part of the plan: a journal written under a different packing (lane
    # grouping rules, batch size, packing toggled) must not resume this run.
    h.update(json.dumps(
        campaign._chunks(np.asarray(layers), int(n_injections))).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------- #
# Chunk records
# ---------------------------------------------------------------------- #

def fold_chunk_tallies(record, per_layer_inj, per_layer_cor, trace_rows=None):
    """Fold one chunk record's lane rows into the given per-layer arrays.

    Rows are ``[plan position, {layer, corrupted, ...}]`` in batch-lane
    order, so a lane-packed chunk credits each lane's own layer.  Returns
    the chunk's ``[layer, corrupted]`` tallies.  A ``trace_rows`` dict
    also receives each row by plan position, its JSON coordinate list
    restored to the tuple :class:`~repro.campaign.trace.InjectionTrace`
    records.  Older records also carry ``tallies`` and ``positions``,
    which repeat the rows and are ignored.
    """
    tallies = []
    for position, row in record["trace_events"]:
        layer, corrupted = row["layer"], int(row["corrupted"])
        per_layer_inj[layer] += 1
        per_layer_cor[layer] += corrupted
        tallies.append([layer, corrupted])
        if trace_rows is not None:
            trace_rows[position] = {**row, "coords": tuple(row["coords"])}
    return tallies


# ---------------------------------------------------------------------- #
# Crash-consistent journal
# ---------------------------------------------------------------------- #

def _checksum(record):
    """CRC32 (hex) of the canonical JSON encoding, ``crc`` field excluded."""
    payload = {k: v for k, v in record.items() if k != "crc"}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return format(zlib.crc32(blob.encode("utf-8")) & 0xFFFFFFFF, "08x")


class CampaignJournal:
    """Append-only, fsync'd, checksummed log of completed chunks.

    One record per line through :class:`JsonlEventSink` with
    ``fsync=True``: by the time :meth:`write_chunk` returns, the record is
    on disk — a ``kill -9`` immediately after loses nothing, and a kill
    *during* the write tears at most the final line, which the loader
    skips.  Reuse across runs is the point: a resumed campaign appends to
    the same file, and duplicate chunk ids (possible when a retried chunk
    also completed on the worker presumed dead) collapse on load.
    """

    def __init__(self, path):
        self._sink = JsonlEventSink(path, fsync=True)
        self.path = self._sink.path
        self.records_written = 0

    def write_header(self, fingerprint, meta):
        record = {"type": "journal_start", "v": JOURNAL_SCHEMA_VERSION,
                  "fingerprint": fingerprint, **meta}
        record["crc"] = _checksum(record)
        self._sink.emit(record)

    def write_chunk(self, chunk_id, info):
        """Journal one completed chunk; durable once this returns."""
        record = {"type": "chunk_done", "chunk": int(chunk_id), **info}
        record["crc"] = _checksum(record)
        self._sink.emit(record)
        self.records_written += 1

    def write_footer(self, result):
        record = {
            "type": "journal_end", "v": JOURNAL_SCHEMA_VERSION,
            "injections": int(result.injections),
            "corruptions": int(result.corruptions),
        }
        record["crc"] = _checksum(record)
        self._sink.emit(record)

    def close(self):
        self._sink.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


def load_journal(path):
    """Read a journal back: ``(header, {chunk_id: record}, complete)``.

    Torn trailing lines are skipped by :func:`load_events`; records whose
    checksum does not match (partial write that still parsed, bit rot) are
    skipped with a :class:`RuntimeWarning`.  A missing file is simply an
    empty journal.  ``complete`` is True when a ``journal_end`` footer
    survived — the campaign finished, nothing needs re-execution.
    """
    header, chunks, complete = None, {}, False
    if not path.exists():
        return header, chunks, complete
    for record in load_events(path):
        kind = record.get("type")
        if "crc" not in record or record["crc"] != _checksum(record):
            warnings.warn(
                f"skipping journal record with bad checksum in {path} "
                f"(type={kind!r})", RuntimeWarning, stacklevel=2)
            continue
        if kind == "journal_start":
            if header is None:
                header = record
            elif record["fingerprint"] != header["fingerprint"]:
                raise JournalMismatchError(
                    f"journal {path} mixes records from different campaign "
                    f"plans; delete it or pick a fresh path")
        elif kind == "chunk_done":
            chunks.setdefault(int(record["chunk"]), record)
        elif kind == "journal_end":
            complete = True
    return header, chunks, complete


def open_journal(path, campaign, n_injections, plan, n_chunks):
    """Validate-or-start a journal for one campaign run.

    Returns ``(journal, completed)`` where ``completed`` maps chunk id →
    checksum-valid completion record for every chunk the journal already
    holds.  A journal written for a different plan/model raises
    :class:`JournalMismatchError` with both fingerprints named; a fresh
    file gets its header written (and fsync'd) before this returns.
    """
    from pathlib import Path

    path = Path(path)
    fingerprint = plan_fingerprint(campaign, n_injections, plan)
    header, completed, _ = load_journal(path)
    if header is not None:
        if header.get("v") != JOURNAL_SCHEMA_VERSION:
            raise JournalError(
                f"journal {path} has schema v{header.get('v')}, "
                f"this build writes v{JOURNAL_SCHEMA_VERSION}")
        if header["fingerprint"] != fingerprint:
            raise JournalMismatchError(
                f"journal {path} was written for a different campaign: "
                f"journal fingerprint {header['fingerprint'][:12]}… "
                f"(network {header.get('network')!r}, "
                f"{header.get('n_injections')} injections) does not match "
                f"this plan's {fingerprint[:12]}… "
                f"(network {campaign.network_name!r}, {n_injections} "
                f"injections); delete the journal or pick a fresh path")
        stale = [cid for cid in completed if not 0 <= cid < n_chunks]
        for cid in stale:
            warnings.warn(
                f"journal {path} holds chunk {cid} outside this plan's "
                f"0..{n_chunks - 1}; ignoring it", RuntimeWarning, stacklevel=2)
            completed.pop(cid)
    journal = CampaignJournal(path)
    if header is None:
        completed = {}
        journal.write_header(fingerprint, {
            "network": campaign.network_name,
            "criterion": campaign.criterion_name,
            "target": campaign.target,
            "n_injections": int(n_injections),
            "n_chunks": int(n_chunks),
            "batch_size": int(campaign.fi.batch_size),
            "num_layers": int(campaign.fi.num_layers),
        })
    bus = campaign.telemetry
    bus.publish("recovery", "journal_open", {
        "path": str(path),
        "fresh": header is None,
        "completed_chunks": len(completed),
        "n_chunks": int(n_chunks),
    })
    if completed:
        bus.publish("recovery", "journal_resume", {
            "completed_chunks": len(completed),
            "remaining_chunks": int(n_chunks) - len(completed),
        })
    return journal, completed

