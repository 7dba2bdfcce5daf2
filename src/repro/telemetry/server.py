"""Streaming telemetry server (NDJSON) and the periodic gauge sampler.

:class:`TelemetryServer` listens on a unix socket or localhost TCP port
and fans the bus's envelope stream out to any number of clients as
newline-delimited JSON.  It runs on one background thread with a single
bus subscription: each envelope is encoded once and appended to every
client's outbound buffer, flushed with non-blocking sends.  A client
that stops reading grows its buffer until it crosses
``max_client_buffer`` and is then *evicted* (connection closed, tallied
in ``clients_evicted``) — a slow dashboard can never make the campaign
(or the other clients) wait.

:class:`TelemetrySampler` is a background subscriber+producer: it drains
its own bus subscription for the run's latest progress envelope, then
periodically publishes gauges — that envelope's injections/sec, ETA and
cache hit rate, lane occupancy, per-worker liveness and RSS (read from
``/proc``) — as ``source="sampler"`` envelopes, so the flight recorder's
ring always holds a recent resource snapshot.

Both only *read* campaign state; neither touches any RNG stream.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import threading
import time
from pathlib import Path

_POLL_S = 0.05
DEFAULT_MAX_CLIENT_BUFFER = 1 << 20  # 1 MiB of unsent NDJSON → eviction


def parse_address(address):
    """``host:port`` → a TCP spec, anything else → a unix socket path.

    Returns ``("tcp", host, port)`` or ``("unix", path)``.  Port 0 asks
    the kernel for an ephemeral port; the server reports the bound one.
    """
    address = str(address)
    host, sep, port = address.rpartition(":")
    if sep and port.isdigit() and "/" not in address:
        return ("tcp", host or "127.0.0.1", int(port))
    return ("unix", address)


def _encode(envelope):
    return (json.dumps(envelope, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


class TelemetryServer:
    """Serve one bus's envelope stream to NDJSON clients.

    ``address`` is a unix-socket path or ``host:port`` (see
    :func:`parse_address`).  ``endpoint`` holds the address actually
    bound — for TCP port 0 that includes the kernel-assigned port.
    """

    def __init__(self, bus, address, max_client_buffer=DEFAULT_MAX_CLIENT_BUFFER,
                 queue_len=4096):
        self.bus = bus
        self.spec = parse_address(address)
        self.clients_served = 0
        self.clients_evicted = 0
        self._clients = {}  # socket -> outbound bytearray
        self._stop = threading.Event()
        self._stopped = False
        self._thread = None
        self._max_client_buffer = int(max_client_buffer)
        self._sub = bus.subscribe(maxlen=queue_len)
        if self.spec[0] == "unix":
            path = Path(self.spec[1])
            if path.exists():
                path.unlink()  # stale socket from a previous run
            self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._listener.bind(str(path))
            self.endpoint = str(path)
        else:
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((self.spec[1], self.spec[2]))
            host, port = self._listener.getsockname()[:2]
            self.endpoint = f"{host}:{port}"
        self._listener.listen(8)
        self._listener.setblocking(False)

    def start(self):
        self._thread = threading.Thread(target=self._serve, daemon=True,
                                        name="repro-telemetry-server")
        self._thread.start()
        return self

    # ------------------------------------------------------------------ #
    # The serve loop
    # ------------------------------------------------------------------ #

    def _serve(self):
        sel = selectors.DefaultSelector()
        sel.register(self._listener, selectors.EVENT_READ)
        try:
            while not self._stop.is_set():
                self._tick(sel)
            # Final drain: ship whatever the bus published before stop()
            # so short campaigns' tails reach attached readers.
            self._fan_out()
            self._flush_all(deadline=time.monotonic() + 1.0)
        finally:
            for sock in list(self._clients):
                self._close_client(sock, sel=None)
            sel.close()

    def _tick(self, sel):
        for key, _ in sel.select(timeout=_POLL_S):
            if key.fileobj is self._listener:
                self._accept(sel)
            else:
                self._read_client(key.fileobj, sel)
        self._fan_out()
        self._flush_all()

    def _accept(self, sel):
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        self._clients[sock] = bytearray()
        sel.register(sock, selectors.EVENT_READ)
        self.clients_served += 1

    def _read_client(self, sock, sel):
        """Clients send nothing; a readable client is a closed one."""
        try:
            data = sock.recv(4096)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if not data:
            self._close_client(sock, sel)

    def _fan_out(self):
        for envelope in self._sub.drain():
            line = _encode(envelope)
            for sock, buf in list(self._clients.items()):
                if len(buf) + len(line) > self._max_client_buffer:
                    # Slow client: evict rather than buffer unboundedly
                    # (or block the stream for everyone else).
                    self.clients_evicted += 1
                    self._close_client(sock, sel=None)
                else:
                    buf.extend(line)

    def _flush_all(self, deadline=None):
        while True:
            pending = False
            for sock, buf in list(self._clients.items()):
                if not buf:
                    continue
                try:
                    sent = sock.send(buf)
                    del buf[:sent]
                except (BlockingIOError, InterruptedError):
                    pass
                except OSError:
                    self._close_client(sock, sel=None)
                    continue
                if buf:
                    pending = True
            if deadline is None or not pending or time.monotonic() >= deadline:
                return
            time.sleep(0.01)

    def _close_client(self, sock, sel):
        if sel is not None:
            try:
                sel.unregister(sock)
            except (KeyError, ValueError):
                pass
        try:
            sock.close()
        finally:
            self._clients.pop(sock, None)

    def stop(self):
        """Drain, flush attached clients best-effort, close every socket."""
        if self._stopped:
            return
        self._stopped = True
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        try:
            self._listener.close()
        except OSError:
            pass
        if self.spec[0] == "unix":
            try:
                Path(self.endpoint).unlink()
            except OSError:
                pass
        self._sub.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
        return False

    def __repr__(self):
        return (f"TelemetryServer({self.endpoint!r}, "
                f"served={self.clients_served}, evicted={self.clients_evicted})")


# ---------------------------------------------------------------------- #
# Periodic sampler
# ---------------------------------------------------------------------- #

def read_rss_kb(pid):
    """Resident-set size of ``pid`` in KiB via ``/proc`` (None elsewhere)."""
    try:
        with open(f"/proc/{pid}/statm", "r", encoding="ascii") as fh:
            fields = fh.read().split()
        return int(fields[1]) * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except (OSError, IndexError, ValueError):
        return None


class TelemetrySampler:
    """Publish gauges on a fixed cadence: the run's progress plus /proc reads.

    Drains its own subscription for the newest ``campaign/chunk``
    envelope — whose ``done``/``total``, rate, ETA and cache-hit rate the
    campaign's fold computed — and for fleet membership (``worker``
    envelopes), then publishes one ``source="sampler"`` gauge envelope
    per interval with those numbers copied, RSS per process, and lane
    occupancy read from ``campaign.perf`` — plus one immediately at
    :meth:`start` and one final at :meth:`stop`, so even a sub-interval
    campaign's stream carries sampler events.
    """

    def __init__(self, bus, campaign=None, interval_s=0.5):
        self.bus = bus
        self.campaign = campaign
        self.interval_s = float(interval_s)
        self._sub = bus.subscribe(maxlen=4096)
        self._stop = threading.Event()
        self._stopped = False
        self._thread = None
        self._progress = {}  # data of the newest campaign/chunk envelope
        self._workers = {}  # wid -> {"wid", "pid", "alive"} row

    def start(self):
        self._sample()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-telemetry-sampler")
        self._thread.start()
        return self

    def _run(self):
        while not self._stop.wait(self.interval_s):
            self._sample()

    def stop(self):
        if self._stopped:
            return
        self._stopped = True
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._sample()  # final gauges reflect the completed run
        self._sub.close()

    # ------------------------------------------------------------------ #

    def _ingest(self):
        for env in self._sub.drain():
            source, kind, data = env["source"], env["kind"], env["data"]
            if source == "campaign" and kind == "run_start":
                self._progress = {"total": data["n_injections"]}
            elif source == "campaign" and kind == "chunk":
                self._progress = data
            elif source == "worker":  # spawn, then exit or died
                self._workers[data["wid"]] = {"wid": data["wid"], "pid": data["pid"],
                                              "alive": kind == "spawn"}

    def _sample(self):
        self._ingest()
        progress = self._progress
        perf = self.campaign.perf if self.campaign is not None else None
        workers = [dict(row, rss_kb=read_rss_kb(row["pid"]) if row["alive"] else None)
                   for _, row in sorted(self._workers.items())]
        self.bus.publish("sampler", "gauges", {
            "done": progress.get("done", 0),
            "total": progress.get("total"),
            "inj_per_s": progress.get("rate", 0.0),
            "eta_s": progress.get("eta_s"),
            "cache_hit_rate": progress.get("cache_hit_rate"),
            "lane_occupancy": (perf.mean_lane_occupancy
                               if perf is not None and perf.forwards else None),
            "forwards_saved": perf.forwards_saved if perf is not None else None,
            "rss_kb": read_rss_kb(os.getpid()),
            "workers": workers,
        })

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
        return False
