"""``repro top`` — render a campaign's telemetry stream as a live status board.

Two input modes share one aggregator and one renderer:

* **live** — connect to a :class:`~repro.telemetry.TelemetryServer`
  endpoint (unix-socket path or ``host:port``) and consume NDJSON
  envelopes until the stream closes or a ``--duration`` budget expires;
* **recorded** — load a flight-recorder dump (``flight_*.json``) and
  render the final state of its captured window, the post-mortem view.

The :class:`NdjsonDecoder` is deliberately defensive: sockets deliver
arbitrary byte chunks, so frames arrive torn mid-line and mid-UTF-8
sequence.  Partial frames buffer until their newline arrives; lines that
still fail to parse are counted (``bad_lines``), never fatal.
"""

from __future__ import annotations

import json
import socket
import sys
import time
from collections import Counter
from pathlib import Path

from .bus import ENVELOPE_SCHEMA
from .recorder import load_flight_dump
from .server import parse_address

_MAX_FRAME = 1 << 20  # a "line" larger than this is garbage, not telemetry


class NdjsonDecoder:
    """Incremental newline-delimited-JSON decoder tolerant of torn frames."""

    def __init__(self):
        self.bad_lines = 0
        self._buf = bytearray()

    def feed(self, chunk):
        """Absorb raw bytes; return the list of decoded objects."""
        self._buf.extend(chunk)
        out = []
        while True:
            idx = self._buf.find(b"\n")
            if idx < 0:
                if len(self._buf) > _MAX_FRAME:
                    self._buf.clear()
                    self.bad_lines += 1
                return out
            line = bytes(self._buf[:idx])
            del self._buf[:idx + 1]
            if not line.strip():
                continue
            try:
                out.append(json.loads(line.decode("utf-8")))
            except (ValueError, UnicodeDecodeError):
                self.bad_lines += 1

    @property
    def pending(self):
        """Bytes of the torn frame still awaiting its newline."""
        return len(self._buf)


class TopAggregator:
    """Fold a stream of envelopes into the state ``repro top`` displays."""

    def __init__(self):
        self.run = None
        self.done = 0
        self.total = None
        self.inj_per_s = 0.0
        self.eta_s = None
        self.cache_hit_rate = None
        self.rss_kb = None
        self.workers = {}  # wid -> row dict
        self.outcomes = Counter()  # per-layer corruption tallies
        self.layer_injections = Counter()
        self.events = 0
        self.skipped = 0  # non-envelope / wrong-schema objects
        self.last_kind = None
        self.finished = False
        self.aborted = None

    def ingest(self, obj):
        if not isinstance(obj, dict) or obj.get("schema") != ENVELOPE_SCHEMA:
            self.skipped += 1
            return
        self.events += 1
        if self.run is None:
            self.run = obj.get("run")
        source, kind, data = obj.get("source"), obj.get("kind"), obj.get("data") or {}
        self.last_kind = f"{source}/{kind}"
        if source == "sampler" and kind == "gauges":
            # Progress comes from the chunk envelopes the gauges copy.
            self.rss_kb = data.get("rss_kb")
            for row in data.get("workers") or []:
                if row.get("wid") is not None:
                    self.workers[row["wid"]] = dict(row)
        elif source == "campaign":
            if kind == "run_start" and data.get("n_injections") is not None:
                self.total = int(data["n_injections"])
            elif kind == "run_end":
                self.finished = True
            elif kind == "run_aborted":
                self.aborted = data.get("reason", "aborted")
            elif kind == "chunk":
                self.done = max(self.done, int(data.get("done") or 0))
                if data.get("total") is not None:
                    self.total = int(data["total"])
                self.inj_per_s = float(data.get("rate") or 0.0)
                self.eta_s = data.get("eta_s")
                self.cache_hit_rate = data.get("cache_hit_rate")
                # Lane-packed chunks mix layers: credit each lane's own.
                for layer, corrupted in data.get("tallies") or ():
                    self.layer_injections[layer] += 1
                    self.outcomes[layer] += int(corrupted)
        elif source == "worker":
            wid = data.get("wid")
            if wid is not None:
                row = self.workers.setdefault(wid, {"wid": wid})
                if kind == "spawn":
                    row.update(pid=data.get("pid"), alive=True)
                elif kind in ("exit", "died"):
                    row["alive"] = False
                    if kind == "died":
                        row["died"] = True


def _fmt_eta(eta_s):
    if eta_s is None:
        return "--"
    eta_s = max(0, int(eta_s))
    if eta_s >= 3600:
        return f"{eta_s // 3600}h{(eta_s % 3600) // 60:02d}m"
    if eta_s >= 60:
        return f"{eta_s // 60}m{eta_s % 60:02d}s"
    return f"{eta_s}s"


def render(agg, decoder=None, mode="live"):
    """Format the aggregated state as the ``repro top`` board (a string)."""
    lines = []
    run = agg.run or "?"
    status = "done" if agg.finished else (f"ABORTED ({agg.aborted})"
                                          if agg.aborted else mode)
    lines.append(f"repro top · run {run} · {status}")
    total = agg.total if agg.total is not None else "?"
    pct = ""
    if agg.total:
        pct = f" ({100.0 * agg.done / agg.total:5.1f}%)"
    lines.append(f"  progress  {agg.done}/{total}{pct}"
                 f"   rate {agg.inj_per_s:8.1f} inj/s"
                 f"   eta {_fmt_eta(agg.eta_s)}")
    extras = []
    if agg.cache_hit_rate is not None:
        extras.append(f"cache hit {100.0 * agg.cache_hit_rate:5.1f}%")
    if agg.rss_kb is not None:
        extras.append(f"rss {agg.rss_kb / 1024:7.1f} MiB")
    if extras:
        lines.append("  " + "   ".join(extras))
    if agg.workers:
        lines.append("  workers")
        lines.append("    wid   pid      state   rss")
        for wid in sorted(agg.workers):
            row = agg.workers[wid]
            state = ("DIED" if row.get("died")
                     else "up" if row.get("alive") else "exited")
            rss = row.get("rss_kb")
            rss_s = f"{rss / 1024:6.1f}M" if rss else "     --"
            lines.append(f"    {wid:<5} {row.get('pid') or '--':<8} "
                         f"{state:<7} {rss_s}")
    if agg.layer_injections:
        lines.append("  per-layer outcomes")
        lines.append("    layer                      inj   corrupt   rate")
        for layer in sorted(agg.layer_injections):
            inj = agg.layer_injections[layer]
            cor = agg.outcomes.get(layer, 0)
            rate = f"{100.0 * cor / inj:5.1f}%" if inj else "    --"
            lines.append(f"    {str(layer)[:24]:<24} {inj:6d}   {cor:7d}  {rate}")
    tail = [f"{agg.events} events"]
    if agg.skipped:
        tail.append(f"{agg.skipped} skipped")
    if decoder is not None and decoder.bad_lines:
        tail.append(f"{decoder.bad_lines} bad frames")
    lines.append("  " + " · ".join(tail))
    return "\n".join(lines)


def _connect(address, connect_timeout):
    """Dial the endpoint, retrying while the server finishes binding."""
    spec = parse_address(address)
    deadline = time.monotonic() + connect_timeout
    last_err = None
    while time.monotonic() < deadline:
        try:
            if spec[0] == "unix":
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.connect(spec[1])
            else:
                sock = socket.create_connection((spec[1], spec[2]), timeout=2.0)
            return sock
        except OSError as err:
            last_err = err
            time.sleep(0.05)
    raise ConnectionError(
        f"could not connect to {address!r} within {connect_timeout}s: {last_err}")


def run_top(source, *, duration=None, max_events=None, connect_timeout=5.0,
            raw=False, out=None, refresh_s=1.0):
    """Drive ``repro top``; returns the process exit code.

    ``source`` is either a flight-recorder dump path (rendered once) or a
    live server endpoint (followed until EOF / ``duration`` /
    ``max_events``).  ``raw`` echoes NDJSON lines instead of the board —
    the CI smoke-test mode.
    """
    out = out if out is not None else sys.stdout
    agg = TopAggregator()

    # A flight dump is a regular file; a unix socket is not (S_ISSOCK),
    # and a host:port endpoint never names an existing file.
    path = Path(str(source))
    if path.is_file():
        try:
            payload = load_flight_dump(path)
        except ValueError as err:
            print(f"repro top: {err}", file=sys.stderr)
            return 2
        for env in payload["events"]:
            agg.ingest(env)
            if raw:
                print(json.dumps(env, sort_keys=True), file=out)
        if not raw:
            print(render(agg, mode=f"recorded ({payload['reason']})"), file=out)
            print(f"  flight dump: {path} · captured {payload['captured']}"
                  f" · overwritten {payload['overwritten']}", file=out)
        return 0

    try:
        sock = _connect(source, connect_timeout)
    except (ConnectionError, OSError) as err:
        print(f"repro top: {err}", file=sys.stderr)
        return 2
    decoder = NdjsonDecoder()
    deadline = time.monotonic() + duration if duration else None
    next_render = 0.0
    sock.settimeout(0.25)
    try:
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                break
            if max_events is not None and agg.events >= max_events:
                break
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                chunk = None
            except OSError:
                break
            if chunk == b"":
                break  # server closed the stream
            if chunk:
                for obj in decoder.feed(chunk):
                    agg.ingest(obj)
                    if raw:
                        print(json.dumps(obj, sort_keys=True), file=out)
            if not raw and time.monotonic() >= next_render:
                print(render(agg, decoder=decoder), file=out)
                next_render = time.monotonic() + refresh_s
    except KeyboardInterrupt:
        pass
    finally:
        try:
            sock.close()
        except OSError:
            pass
    if not raw:
        print(render(agg, decoder=decoder,
                     mode="done" if agg.finished else "stream closed"),
              file=out)
    return 0
