"""Telemetry sinks: where observed-campaign events go.

The JSONL sink is the durable format — one JSON object per line, appended
and flushed as each event is emitted.  What a campaign's log holds after a
crash depends on what emitted it: the observe tracer buffers a run's
injection events and emits them when the run ends or is interrupted (see
:mod:`repro.observe.tracer`), while the campaign journal emits each record
as its chunk completes.  The price of append-only durability is that the
*last* line of a log can be torn (process killed mid-write);
:func:`load_events` therefore treats undecodable lines as a skip-and-warn,
never an error — the same treat-as-miss policy `repro.train.cache` applies
to corrupt weight files.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path


class MemorySink:
    """Collects events in a list (tests, small in-process campaigns)."""

    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)

    def close(self):
        pass

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


class JsonlEventSink:
    """Append-only JSONL event log.

    The file is opened lazily on the first :meth:`emit` (constructing a
    sink never touches the filesystem) in append mode, so one log can
    accumulate several campaigns.  Every event is written as a single
    sorted-key JSON line and flushed before :meth:`emit` returns.

    ``fsync=True`` upgrades every flush to a full ``os.fsync``: the data
    is on stable storage (not just in the kernel page cache) before
    :meth:`emit` returns, so even ``kill -9`` or a machine crash tears at
    most the record being written.  This is the durability mode the
    campaign journal (:mod:`repro.campaign.recovery`) writes through; a
    torn final record is skipped on reload by :func:`load_events`.
    """

    def __init__(self, path, fsync=False):
        self.path = Path(path)
        self.fsync = bool(fsync)
        self._fh = None

    def emit(self, event):
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", encoding="utf-8")
        self._fh.write(json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n")
        self.flush()

    def flush(self):
        if self._fh is not None:
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self):
        return f"JsonlEventSink({str(self.path)!r})"


def load_events(path, strict=False):
    """Read a JSONL event log back into a list of event dicts.

    Blank lines are ignored.  A line that does not decode (torn trailing
    write, truncated copy, stray editor garbage) is skipped with a
    :class:`RuntimeWarning` naming the line number — pass ``strict=True``
    to raise instead.  A missing file raises :class:`FileNotFoundError`
    with a one-line message (callers like ``repro report`` surface it and
    exit rc=2 instead of tracing back).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such event log: {path}")
    events = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                if strict:
                    raise ValueError(f"corrupt event at {path}:{lineno}: {exc}") from exc
                warnings.warn(
                    f"skipping corrupt event log line {path}:{lineno} ({exc})",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return events
