"""Exporters for profiler runs: Chrome trace JSON, text table, JSON summary.

The Chrome trace uses the trace-event format (``ph``/``ts``/``dur``
complete events, microsecond timestamps) and loads directly in Perfetto
or ``chrome://tracing``.  The text table and JSON summary aggregate spans
by their root-to-leaf name path, reporting per-path call counts, total
and self time, allocation bytes, and profiler overhead — self-times are
disjoint, so any subtree's rows sum to ≤ its wall clock (worker lanes run
beside the parent's ``campaign.parallel`` span, not inside its sum).
"""

from __future__ import annotations

import json
from pathlib import Path

# A campaign profile's counters are ``meta["perf"]``; there is no
# ``metrics`` key (schema 1 had one).
SUMMARY_SCHEMA_VERSION = 2


def span_records(profiler):
    """Flatten a profiler's spans into picklable dicts.

    The wire format parallel campaign workers ship their trace home in:
    plain dicts with absolute ``perf_counter`` start/end times and the
    index of their parent record (None for a root), adopted by the
    parent's :meth:`Profiler.consume` and rendered by
    :func:`chrome_trace_events` as a per-pid lane.
    """
    index = {id(span): i for i, span in enumerate(profiler.spans)}
    return [
        {
            "name": span.name,
            "cat": span.cat,
            "args": dict(span.args),
            "start": span.start,
            "end": span.end,
            "self_s": span.self_seconds,
            "alloc_bytes": span.alloc_bytes,
            "overhead_s": span.overhead_s,
            "parent": None if span.parent is None else index[id(span.parent)],
        }
        for span in profiler.spans
    ]


def chrome_trace_events(profiler, pid=1, tid=1):
    """Render every recorded span as a Chrome trace-event ``X`` event.

    Spans adopted from other processes (``profiler.foreign_spans``, see
    :meth:`Profiler.consume`) share the same time origin and render
    under their own pid — one Perfetto view shows every lane of a
    multi-process campaign.
    """
    records = ([dict(record, pid=pid) for record in span_records(profiler)]
               + profiler.foreign_spans)
    origin = min((record["start"] for record in records), default=0.0)
    lanes = {pid: "repro.profile"}
    lanes.update(sorted((record["pid"], record["process_name"])
                        for record in profiler.foreign_spans))
    events = [{"ph": "M", "pid": lane, "tid": tid, "ts": 0,
               "name": "process_name", "args": {"name": name}}
              for lane, name in lanes.items()]
    for record in records:
        args = dict(record["args"])
        args["self_us"] = round(record["self_s"] * 1e6, 3)
        if record["alloc_bytes"]:
            args["alloc_bytes"] = int(record["alloc_bytes"])
        if record["overhead_s"]:
            args["profiler_overhead_us"] = round(record["overhead_s"] * 1e6, 3)
        events.append({
            "ph": "X",
            "name": record["name"],
            "cat": record["cat"] or "span",
            "ts": round((record["start"] - origin) * 1e6, 3),
            "dur": round((record["end"] - record["start"]) * 1e6, 3),
            "pid": record["pid"],
            "tid": tid,
            "args": args,
        })
    return events


def write_chrome_trace(profiler, path):
    """Write a Perfetto/``chrome://tracing``-loadable trace JSON file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "traceEvents": chrome_trace_events(profiler),
        "displayTimeUnit": "ms",
    }
    path.write_text(json.dumps(payload) + "\n")
    return path


def _aggregate_rows(profiler):
    """Fold spans into per-path rows, each after its parent's row, siblings
    in first-seen order.

    Worker spans (``profiler.foreign_spans``) fold under one root row per
    worker lane, ``repro.worker[i]``: its count is 1, its total the wall
    clock of the lane's root spans, and its self time zero (the lane is
    not a span).
    """
    rows = {}

    def row(key, cat):
        return rows.setdefault(key, {
            "path": "/".join(key), "name": key[-1], "depth": len(key) - 1,
            "cat": cat, "count": 0, "total_s": 0.0, "self_s": 0.0,
            "alloc_bytes": 0, "overhead_s": 0.0})

    for records in (span_records(profiler), profiler.foreign_spans):
        paths = []  # per record; a parent record precedes its children
        for record in records:
            duration = record["end"] - record["start"]
            if record["parent"] is not None:
                key = paths[record["parent"]]
            elif "process_name" in record:
                key = (record["process_name"],)
                lane = row(key, "worker")
                lane["count"] = 1
                lane["total_s"] += duration
            else:
                key = ()
            key += (record["name"],)
            paths.append(key)
            out = row(key, record["cat"])
            out["count"] += 1
            out["total_s"] += duration
            for field in ("self_s", "alloc_bytes", "overhead_s"):
                out[field] += record[field]
    seen = {key: i for i, key in enumerate(rows)}
    return [rows[key] for key in sorted(
        rows, key=lambda key: [seen[key[:d]] for d in range(1, len(key) + 1)])]


def summary(profiler, meta=None):
    """A JSON-serialisable run summary: span rows + totals (+ ``meta``).

    A campaign profile's ``meta`` carries ``campaign.perf.as_dict()``, the
    campaign's counters.
    """
    rows = _aggregate_rows(profiler)
    out = {
        "schema": SUMMARY_SCHEMA_VERSION,
        "total_s": profiler.total_seconds,
        "overhead_s": profiler.overhead_s,
        "num_spans": len(profiler.spans) + len(profiler.foreign_spans),
        "spans": rows,
    }
    if meta:
        out["meta"] = dict(meta)
    return out


def _fmt_bytes(n):
    if n >= 1 << 30:
        return f"{n / (1 << 30):.2f}G"
    if n >= 1 << 20:
        return f"{n / (1 << 20):.2f}M"
    if n >= 1 << 10:
        return f"{n / (1 << 10):.1f}K"
    return str(n)


def text_table(profiler, meta=None):
    """A hierarchical text rendering of the span tree (indent = depth)."""
    rows = _aggregate_rows(profiler)
    lines = []
    if meta:
        lines.append("profile: " + ", ".join(f"{k}={v}" for k, v in sorted(meta.items())))
    lines.append(
        f"{'span':<44} {'count':>6} {'total ms':>10} {'self ms':>10} {'alloc':>8}"
    )
    lines.append("-" * 82)
    for row in rows:
        label = "  " * row["depth"] + row["name"]
        if len(label) > 44:
            label = label[:41] + "..."
        lines.append(
            f"{label:<44} {row['count']:>6} {row['total_s'] * 1e3:>10.3f} "
            f"{row['self_s'] * 1e3:>10.3f} {_fmt_bytes(row['alloc_bytes']):>8}"
        )
    lines.append("-" * 82)
    lines.append(
        f"{'recorded wall clock':<44} {'':>6} {profiler.total_seconds * 1e3:>10.3f}"
    )
    lines.append(
        f"{'profiler overhead':<44} {'':>6} {profiler.overhead_s * 1e3:>10.3f}"
    )
    return "\n".join(lines)


def write_artifacts(profiler, out_dir, stem="profile", meta=None):
    """Write the three artifacts under ``out_dir``; returns their paths.

    ``<stem>_trace.json`` (Chrome trace events), ``<stem>_summary.json``
    (machine summary), ``<stem>_summary.txt``
    (hierarchical table).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "trace": write_chrome_trace(profiler, out_dir / f"{stem}_trace.json"),
        "summary_json": out_dir / f"{stem}_summary.json",
        "summary_txt": out_dir / f"{stem}_summary.txt",
    }
    paths["summary_json"].write_text(
        json.dumps(summary(profiler, meta=meta), indent=2, sort_keys=True) + "\n")
    paths["summary_txt"].write_text(text_table(profiler, meta=meta) + "\n")
    return paths
