"""Execute a compiled scenario: run every sweep point, collect the curve.

Each :class:`~repro.scenario.compile.SweepPoint` is one
``campaign.run(...)`` — under that point's resident fault set when it has
one — so every campaign capability composes unchanged: ``workers=N``
shards the point across forked processes, ``journal=`` makes each point
crash-resumable (multi-point scenarios get per-point journal files, and
the journal fingerprint pins the resident set so a stale journal is
rejected loudly), and ``observe=`` streams per-injection telemetry.

For the ``accumulated`` family the engine additionally writes a
deterministic SDC-vs-fault-count artifact (schema
``repro.scenario.sweep/1``) — the curve the paper-style resilience
studies plot — under ``out_dir``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..campaign.stats import wilson_interval

SWEEP_SCHEMA = "repro.scenario.sweep/1"


@dataclass
class PointResult:
    """Outcome of one sweep point."""

    label: str
    injections: int
    corruptions: int
    confidence: float
    resident_faults: int = 0
    journal: str = None
    degraded: bool = False
    retries: int = 0
    requeued_chunks: int = 0
    quarantined_chunks: int = 0
    forwards: int = 0
    forwards_saved: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def sdc_rate(self):
        return self.corruptions / self.injections if self.injections else 0.0

    @property
    def injections_per_forward(self):
        return self.injections / self.forwards if self.forwards else 0.0

    @property
    def interval(self):
        """Wilson CI ``(low, high)``; ``None`` for a zero-injection point."""
        if not self.injections:
            return None
        return wilson_interval(self.corruptions, self.injections,
                               self.confidence)

    def as_dict(self):
        interval = self.interval
        row = {
            "label": self.label,
            "injections": int(self.injections),
            "corruptions": int(self.corruptions),
            "sdc_rate": float(self.sdc_rate),
            "ci_low": float(interval[0]) if interval else None,
            "ci_high": float(interval[1]) if interval else None,
            "confidence": float(self.confidence),
            "resident_faults": int(self.resident_faults),
            "journal": self.journal,
            "degraded": bool(self.degraded),
            "retries": int(self.retries),
            "requeued_chunks": int(self.requeued_chunks),
            "quarantined_chunks": int(self.quarantined_chunks),
            "forwards": int(self.forwards),
            "forwards_saved": int(self.forwards_saved),
            "injections_per_forward": float(self.injections_per_forward),
        }
        row.update(self.meta)
        return row


@dataclass
class ScenarioResult:
    """Outcome of a full scenario run."""

    name: str
    family: str
    model: str
    dataset: str
    seed: int
    points: list
    workers: int = 1
    artifact: str = None

    @property
    def degraded(self):
        return any(point.degraded for point in self.points)

    @property
    def injections(self):
        return sum(point.injections for point in self.points)

    @property
    def corruptions(self):
        return sum(point.corruptions for point in self.points)

    @property
    def forwards(self):
        return sum(point.forwards for point in self.points)

    @property
    def forwards_saved(self):
        return sum(point.forwards_saved for point in self.points)

    def as_dict(self):
        forwards = self.forwards
        return {
            "scenario": self.name,
            "family": self.family,
            "model": self.model,
            "dataset": self.dataset,
            "seed": int(self.seed),
            "workers": int(self.workers),
            "injections": int(self.injections),
            "corruptions": int(self.corruptions),
            "degraded": self.degraded,
            "artifact": self.artifact,
            "forwards": int(forwards),
            "forwards_saved": int(self.forwards_saved),
            "injections_per_forward": (self.injections / forwards
                                       if forwards else 0.0),
            "lanes": ((forwards + self.forwards_saved) / forwards
                      if forwards else 0.0),
            "points": [point.as_dict() for point in self.points],
        }


def _point_path(base, index, label, multi):
    """Per-point journal/observe path; stable across reruns (resume)."""
    if base is None:
        return None
    if not multi:
        return str(base)
    return f"{base}.{index:02d}-{label}"


def run_scenario(compiled, workers=1, journal=None, observe=None,
                 progress=None, out_dir=None, telemetry=None):
    """Run every sweep point of ``compiled``; returns :class:`ScenarioResult`.

    ``workers``/``journal``/``observe``/``progress``/``telemetry`` pass
    through to each point's ``campaign.run``; every point publishes into
    the one bus (``telemetry``, or a bare bus made for the scenario).  The
    engine additionally publishes one ``("scenario", "point_start")`` /
    ``("scenario", "point_end")`` envelope pair around every sweep point,
    so a streamed multi-point scenario shows which phase of the sweep is
    live.  ``out_dir`` (a directory path) enables
    the accumulated-sweep artifact.
    :class:`~repro.campaign.CampaignInterrupted` propagates to the caller
    — with a journal, rerunning the same scenario against the same paths
    resumes each point where it stopped.
    """
    from ..telemetry import TelemetryBus, coerce_bus

    config = compiled.config
    campaign = compiled.campaign
    bus = coerce_bus(telemetry) or TelemetryBus()
    multi = len(compiled.points) > 1
    points = []
    for index, point in enumerate(compiled.points):
        point_journal = _point_path(journal, index, point.label, multi)
        point_observe = _point_path(observe, index, point.label, multi)
        bus.publish("scenario", "point_start", {
            "scenario": config.name,
            "family": config.family,
            "point": index,
            "label": point.label,
            "n_points": len(compiled.points),
            "n_injections": int(point.n_injections),
            "resident_faults": len(point.resident) if point.resident else 0,
        })
        if point.n_injections == 0:
            # A rate draw can legitimately realize zero upsets; record the
            # empty point rather than forcing a run the plan never asked for.
            points.append(PointResult(
                label=point.label, injections=0, corruptions=0,
                confidence=config.campaign.confidence,
                resident_faults=len(point.resident) if point.resident else 0,
                journal=point_journal, meta=dict(point.meta)))
            bus.publish("scenario", "point_end", {
                "point": index, "label": point.label,
                "injections": 0, "corruptions": 0})
            continue
        forwards_before = campaign.perf.forwards
        saved_before = campaign.perf.forwards_saved
        result = campaign.run(
            point.n_injections,
            confidence=config.campaign.confidence,
            workers=workers,
            journal=point_journal,
            observe=point_observe,
            progress=progress,
            resident=point.resident,
            telemetry=bus,
        )
        point_forwards = campaign.perf.forwards - forwards_before
        point_saved = campaign.perf.forwards_saved - saved_before
        bus.publish("scenario", "point_end", {
            "point": index,
            "label": point.label,
            "injections": int(result.injections),
            "corruptions": int(result.corruptions),
        })
        info = campaign.parallel_info
        retries = info["retries"] if info else 0
        requeued = info["requeued_chunks"] if info else 0
        quarantined = info["quarantined_chunks"] if info else 0
        points.append(PointResult(
            label=point.label,
            injections=int(result.injections),
            corruptions=int(result.corruptions),
            confidence=config.campaign.confidence,
            resident_faults=len(point.resident) if point.resident else 0,
            journal=point_journal,
            degraded=retries > 0 or requeued > 0 or quarantined > 0,
            retries=int(retries),
            requeued_chunks=int(requeued),
            quarantined_chunks=int(quarantined),
            forwards=int(point_forwards),
            forwards_saved=int(point_saved),
            meta=dict(point.meta)))
    scenario = ScenarioResult(
        name=config.name, family=config.family, model=config.model.name,
        dataset=config.model.dataset, seed=config.seed, points=points,
        workers=int(workers))
    if out_dir is not None and config.family == "accumulated":
        scenario.artifact = str(write_sweep_artifact(compiled, scenario, out_dir))
    return scenario


def write_sweep_artifact(compiled, scenario, out_dir):
    """Write the deterministic SDC-vs-fault-count curve; returns its path.

    The artifact carries no wall-clock fields: a fixed-seed scenario
    produces byte-identical output every run, serial or parallel.
    """
    config = compiled.config
    fam = config.family_config
    rows = []
    for sweep, point in zip(compiled.points, scenario.points):
        interval = point.interval
        # The full fault list would dominate the file at large K (tens of
        # thousands of descriptors per row); the fingerprint identifies
        # the exact set — re-compiling the scenario regenerates it.
        rows.append({
            "k": int(sweep.meta.get("k", point.resident_faults)),
            "injections": int(point.injections),
            "corruptions": int(point.corruptions),
            "sdc_rate": float(point.sdc_rate),
            "ci_low": float(interval[0]) if interval else None,
            "ci_high": float(interval[1]) if interval else None,
            "resident_faults": len(sweep.resident) if sweep.resident else 0,
            "resident_fingerprint": (sweep.resident.fingerprint
                                     if sweep.resident else None),
        })
    payload = {
        "schema": SWEEP_SCHEMA,
        "scenario": config.name,
        "family": config.family,
        "model": config.model.name,
        "dataset": config.model.dataset,
        "scale": config.model.scale,
        "seed": int(config.seed),
        "stuck": int(fam.stuck),
        "quantize": bool(config.fault.quantize),
        "confidence": float(config.campaign.confidence),
        "evaluations_per_point": int(fam.evaluations),
        "points": rows,
    }
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"scenario_{config.name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
