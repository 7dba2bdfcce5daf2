"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-models``            show the model zoo and dataset presets
``list-experiments``       show every reproducible figure/table + ablations
``run <experiment>``       regenerate one figure/table (``--scale``, ``--seed``)
``profile <model>``        print a model's FaultInjection layer table
``profile --model <m>``    runtime-profile a forward (or ``--campaign N``) and
                           write Chrome-trace + summary artifacts
``inject <model>``         one-shot random injection on a zoo model (``--json``);
                           ``--scenario FILE`` runs a declarative scenario
                           against MODEL instead
``scenario validate <f>``  check a declarative scenario file, print its plan
``scenario run <f>``       execute a scenario (``--workers``, ``--journal``,
                           ``--json``; sweep artifacts under ``--out-dir``)
``report <log.jsonl>``     render a campaign telemetry log as markdown/JSON
                           (``--profile`` merges a profile summary)
``top <sock|dump>``        live status board for a ``--stream``'ed campaign,
                           or the post-mortem view of a flight-recorder dump

``inject``, ``scenario run``, and ``profile`` accept ``--stream SOCK`` to
serve live NDJSON telemetry (see :mod:`repro.telemetry`) while they run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np


def _cmd_list_models(args):
    from . import models

    print("model zoo:")
    for name in models.list_models():
        print(f"  {name}")
    print("  tiny_yolov3  (detector)")
    print("\ndataset presets (classes, input size):")
    for name, (classes, size) in sorted(models.DATASETS.items()):
        print(f"  {name:<10} {classes:>4} classes  {size}x{size}")
    print("\nFig. 3 roster pairs:", len(models.FIG3_ROSTER))
    return 0


def _cmd_list_experiments(args):
    from .experiments import ALL_EXPERIMENTS

    print("experiments (python -m repro run <name> [--scale ...]):")
    for name, module in sorted(ALL_EXPERIMENTS.items()):
        headline = (module.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:<22} {headline}")
    return 0


def _cmd_run(args):
    from .experiments import ALL_EXPERIMENTS

    try:
        module = ALL_EXPERIMENTS[args.experiment]
    except KeyError:
        print(f"unknown experiment {args.experiment!r}; "
              f"have {sorted(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    results = module.run(scale=args.scale, seed=args.seed)
    print(module.report(results))
    return 0


def _telemetry_start(args, campaign):
    """Attach the live-telemetry plane around one CLI campaign run.

    Returns ``(bus, server, sampler)``: a bus with a flight recorder (its
    dumps land next to the journal when there is one, else under the
    results directory), an NDJSON streaming server when ``--stream`` was
    given, and the periodic gauge sampler.
    """
    from .telemetry import (FlightRecorder, TelemetryBus, TelemetrySampler,
                            TelemetryServer)

    journal = getattr(args, "journal", None)  # profile has none
    dump_dir = Path(journal).parent if journal else Path(args.out_dir)
    bus = TelemetryBus(recorder=FlightRecorder(out_dir=dump_dir))
    server = None
    if args.stream:
        server = TelemetryServer(bus, args.stream).start()
        print(f"telemetry: streaming NDJSON on {server.endpoint}",
              file=sys.stderr)
    sampler = TelemetrySampler(bus, campaign=campaign).start()
    return bus, server, sampler


def _telemetry_stop(server, sampler):
    """Idempotent teardown: final gauges first, then drain the server."""
    if sampler is not None:
        sampler.stop()
    if server is not None:
        server.stop()


def _run_under_telemetry(args, campaign, execute, progress_note, resume_hint):
    """Run ``execute(bus)`` under the CLI's telemetry plane.

    The one interrupt and teardown path of ``inject --campaign`` and the
    scenario commands.  Returns ``(result, bus, server)`` with the plane
    stopped.  On SIGINT/SIGTERM ``result`` is None and the interrupt is
    already reported: the ``--json`` record, or stderr lines naming the
    progress (``progress_note`` qualifies it), how to resume a journaled
    run (``resume_hint``, formatted with ``journal``) and the flight dump.
    """
    from .campaign import CampaignInterrupted

    bus, server, sampler = _telemetry_start(args, campaign)
    try:
        return execute(bus), bus, server
    except KeyboardInterrupt as exc:
        partial = exc.partial if isinstance(exc, CampaignInterrupted) else {}
        _telemetry_stop(server, sampler)
        if args.json:
            print(json.dumps({"ok": False, "interrupted": True,
                              "telemetry": _telemetry_block(bus, server),
                              **partial}, sort_keys=True))
        elif not partial:
            print("interrupted", file=sys.stderr)
        else:
            print(f"interrupted: {partial['completed_injections']}"
                  f"/{partial['n_injections']} injections{progress_note} "
                  f"completed", file=sys.stderr)
            if partial.get("journal"):
                print(resume_hint.format(journal=partial["journal"]),
                      file=sys.stderr)
            if bus.recorder.last_dump is not None:
                print(f"flight dump: {bus.recorder.last_dump}", file=sys.stderr)
        return None, bus, server
    finally:
        _telemetry_stop(server, sampler)


def _telemetry_block(bus, server):
    """The ``telemetry`` block of the machine-readable JSON records."""
    stats = bus.stats()
    dump = bus.recorder.last_dump
    return {
        "events_published": int(stats["events_published"]),
        "events_dropped": int(stats["events_dropped"]),
        "clients_served": int(server.clients_served) if server is not None else 0,
        "recorder_dump": str(dump) if dump is not None else None,
    }


def _cmd_profile(args):
    model_name = args.model_flag or args.model
    if model_name is None:
        print("error: profile needs a model (positional or --model)", file=sys.stderr)
        return 2
    if args.model_flag is None and not args.campaign:
        if args.stream or args.metrics_out:
            print("error: --stream/--metrics-out need a runtime profile "
                  "of a campaign (--campaign N)", file=sys.stderr)
            return 2
        return _profile_layer_table(args, model_name)
    return _profile_runtime(args, model_name)


def _profile_layer_table(args, model_name):
    """The static profile: the FaultInjection per-layer geometry table."""
    from . import models
    from .core import FaultInjection
    from .tensor import manual_seed, spawn

    manual_seed(args.seed)
    net = models.get_model(model_name, args.dataset, scale=args.scale, rng=spawn(1))
    _, size = models.dataset_preset(args.dataset)
    fi = FaultInjection(net, batch_size=1, input_shape=(3, size, size))
    print(fi.summary())
    print(f"\ntotal instrumentable layers: {fi.num_layers}")
    print(f"total neurons per example:   {fi.total_neurons():,}")
    print(f"total weights:               {fi.total_weights():,}")
    print(f"trainable parameters:        {net.num_parameters():,}")
    return 0


def _profile_runtime(args, model_name):
    """The runtime profile: spans + Chrome-trace artifacts (+ counters)."""
    from . import models, tensor
    from .campaign import InjectionCampaign
    from .data import SelfLabelledDataset, SyntheticClassification
    from .profile import (Profiler, campaign_spans, profile_model, text_table,
                          write_artifacts)

    try:
        models.dataset_preset(args.dataset)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Each needs a campaign; --metrics-out renders its counters.
    for flag, given in (("--workers", args.workers > 1), ("--stream", args.stream),
                        ("--metrics-out", args.metrics_out)):
        if given and not args.campaign:
            print(f"error: {flag} requires --campaign N", file=sys.stderr)
            return 2
    if args.batch_size is None:
        args.batch_size = 16 if args.campaign else 1
    try:
        if args.campaign:
            tensor.manual_seed(args.seed)
            net = models.get_model(model_name, args.dataset, scale=args.scale,
                                   rng=tensor.spawn(args.seed))
            net.eval()
            classes, size = models.dataset_preset(args.dataset)
            dataset = SelfLabelledDataset(
                net, SyntheticClassification(num_classes=classes, image_size=size,
                                             seed=args.seed + 1))
            with campaign_spans(Profiler()) as profiler:
                campaign = InjectionCampaign(
                    net, dataset, batch_size=args.batch_size,
                    pool_size=max(32, 2 * args.batch_size), rng=args.seed,
                    network_name=model_name)
                bus = server = sampler = None
                if args.stream:
                    bus, server, sampler = _telemetry_start(args, campaign)
                try:
                    result = campaign.run(args.campaign, progress=True,
                                          workers=args.workers, telemetry=bus)
                finally:
                    _telemetry_stop(server, sampler)
            meta = {
                "mode": "campaign",
                "model": model_name,
                "dataset": args.dataset,
                "scale": args.scale,
                "seed": args.seed,
                "injections": args.campaign,
                "corruptions": result.corruptions,
                "perf": campaign.perf.as_dict(),
            }
            if campaign.parallel_info is not None:
                meta["workers"] = campaign.parallel_info["workers"]
                meta["wall_time_s"] = round(
                    campaign.parallel_info["wall_time_s"], 3)
            if args.stream:
                meta["telemetry"] = _telemetry_block(bus, server)
        else:
            _, profiler, meta = profile_model(
                model_name, dataset=args.dataset, scale=args.scale,
                seed=args.seed, batch_size=args.batch_size)
            meta["mode"] = "forward"
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    paths = write_artifacts(profiler, args.out_dir, stem=model_name, meta=meta)
    print(text_table(profiler, meta=meta))
    print()
    for kind in ("trace", "summary_json", "summary_txt"):
        print(f"wrote {paths[kind]}")
    if args.metrics_out:
        metrics_path = Path(args.metrics_out)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(campaign.perf.prometheus_text(), encoding="utf-8")
        print(f"wrote {metrics_path}")
    return 0


def _inject_fail(args, message):
    """Resolution errors: JSON on stdout under ``--json``, else stderr."""
    if args.json:
        print(json.dumps({"ok": False, "error": message}))
    else:
        print(f"error: {message}", file=sys.stderr)
    return 2


def _inject_campaign(args):
    """``repro inject --campaign N``: a scriptable injection campaign.

    With ``--workers K`` the campaign shards across K forked processes;
    the ``--json`` record carries ``workers``, ``wall_time_s``, per-worker
    injection counts, and the recovery ledger (``retries``,
    ``requeued_chunks``, ``quarantined_chunks``) so throughput and fleet
    health are scriptable either way.  Exit codes: 0 for a clean run, 3
    for a *degraded* one (the campaign completed, but only by retrying or
    quarantining chunks after worker failures), 130 on interrupt — where
    ``--journal`` makes the run resumable from exactly where it stopped.
    """
    import time

    from . import models, tensor
    from .campaign import InjectionCampaign
    from .data import SelfLabelledDataset, SyntheticClassification

    tensor.manual_seed(args.seed)
    try:
        net = models.get_model(args.model, args.dataset, scale=args.scale,
                               rng=tensor.spawn(1))
        classes, size = models.dataset_preset(args.dataset)
    except ValueError as exc:
        return _inject_fail(args, str(exc))
    net.eval()
    dataset = SelfLabelledDataset(
        net, SyntheticClassification(num_classes=classes, image_size=size,
                                     seed=args.seed + 1))
    campaign = InjectionCampaign(
        net, dataset, batch_size=args.batch_size,
        pool_size=max(32, 2 * args.batch_size), rng=args.seed,
        layer=args.layer, network_name=args.model,
        lane_packing=not args.no_lane_packing)
    if args.layer is not None and not 0 <= args.layer < campaign.fi.num_layers:
        return _inject_fail(
            args,
            f"layer {args.layer} out of range: {args.model} has "
            f"{campaign.fi.num_layers} instrumentable layers "
            f"(0..{campaign.fi.num_layers - 1})",
        )
    started = time.perf_counter()
    # A --stream'ed --json run still drives the heartbeat: progress lines
    # go to stderr, so stdout's one JSON record stays clean while the
    # socket carries the same progress envelopes.
    result, bus, server = _run_under_telemetry(
        args, campaign,
        lambda bus: campaign.run(args.campaign, workers=args.workers,
                                 progress=bool(args.stream) or not args.json,
                                 journal=args.journal, observe=args.observe,
                                 telemetry=bus),
        "", f"resume with: repro inject {args.model} --campaign "
            f"{args.campaign} --seed {args.seed} --journal {{journal}}")
    if result is None:
        return 130
    wall = time.perf_counter() - started
    info = campaign.parallel_info
    workers_used = info["workers"] if info else 1
    wall_time = info["wall_time_s"] if info else wall
    per_worker = info["per_worker_injections"] if info else [args.campaign]
    retries = info["retries"] if info else 0
    requeued = info["requeued_chunks"] if info else 0
    quarantined = info["quarantined_chunks"] if info else 0
    degraded = retries > 0 or requeued > 0 or quarantined > 0
    if args.json:
        print(json.dumps({
            "ok": True,
            "mode": "campaign",
            "model": args.model,
            "dataset": args.dataset,
            "scale": args.scale,
            "seed": args.seed,
            "error_model": "single_bit_flip",
            "layer": args.layer,
            "injections": int(result.injections),
            "corruptions": int(result.corruptions),
            "corruption_rate": float(result.corruption_rate),
            "workers": int(workers_used),
            "wall_time_s": float(wall_time),
            "per_worker_injections": [int(k) for k in per_worker],
            "retries": int(retries),
            "requeued_chunks": int(requeued),
            "quarantined_chunks": int(quarantined),
            "degraded": degraded,
            "journal": args.journal,
            "lane_packing": campaign.lane_packing,
            "lanes": float(campaign.perf.mean_lane_occupancy),
            "forwards_saved": int(campaign.perf.forwards_saved),
            "injections_per_forward": (
                result.injections / campaign.perf.forwards
                if campaign.perf.forwards else 0.0),
            "perf": campaign.perf.as_dict(),
            "telemetry": _telemetry_block(bus, server),
        }, sort_keys=True))
        return 3 if degraded else 0
    print(f"campaign: {result.injections} injections on {args.model}, "
          f"{result.corruptions} corruptions ({result.proportion})")
    print(f"workers: {workers_used}  wall time: {wall_time:.3f}s  "
          f"per-worker injections: {per_worker}")
    if degraded:
        print(f"degraded: {retries} retried, {requeued} requeued, "
              f"{quarantined} quarantined chunk(s)")
    print(f"perf: {campaign.perf}")
    if args.stream:
        tb = _telemetry_block(bus, server)
        print(f"telemetry: {tb['events_published']} events published, "
              f"{tb['events_dropped']} dropped, "
              f"{tb['clients_served']} client(s) served")
    return 3 if degraded else 0


def _cmd_inject(args):
    from . import models, tensor
    from .core import FaultInjection, SingleBitFlip, random_neuron_injection

    if args.scenario is not None:
        if args.campaign:
            return _inject_fail(args, "--scenario and --campaign are exclusive")
        return _run_scenario_command(args, args.scenario,
                                     model_override=args.model)
    if args.workers is not None and args.workers > 1 and not args.campaign:
        return _inject_fail(args, "--workers requires --campaign N")
    if args.journal is not None and not args.campaign:
        return _inject_fail(args, "--journal requires --campaign N")
    if args.observe is not None and not args.campaign:
        return _inject_fail(args, "--observe requires --campaign N")
    if args.stream is not None and not args.campaign:
        return _inject_fail(args, "--stream requires --campaign N")
    if args.campaign:
        return _inject_campaign(args)
    tensor.manual_seed(args.seed)
    try:
        net = models.get_model(args.model, args.dataset, scale=args.scale,
                               rng=tensor.spawn(1))
        _, size = models.dataset_preset(args.dataset)
    except ValueError as exc:
        return _inject_fail(args, str(exc))
    net.eval()
    fi = FaultInjection(net, batch_size=1, input_shape=(3, size, size),
                        rng=args.seed)
    if args.layer is not None and not 0 <= args.layer < fi.num_layers:
        return _inject_fail(
            args,
            f"layer {args.layer} out of range: {args.model} has "
            f"{fi.num_layers} instrumentable layers (0..{fi.num_layers - 1})",
        )
    x = tensor.randn(1, 3, size, size, rng=args.seed + 1)
    with tensor.no_grad():
        clean = net(x).data
    corrupted, record = random_neuron_injection(fi, SingleBitFlip(), layer=args.layer)
    with tensor.no_grad(), np.errstate(all="ignore"):
        perturbed = corrupted(x).data
    fi.reset()
    site = record.sites[0]
    max_delta = np.abs(clean - perturbed).max()
    if args.json:
        print(json.dumps({
            "ok": True,
            "model": args.model,
            "dataset": args.dataset,
            "scale": args.scale,
            "seed": args.seed,
            "error_model": "single_bit_flip",
            "layer": int(site.layer),
            "layer_name": fi.layer(site.layer).name,
            "coords": [int(c) for c in site.coords],
            "clean_top1": int(clean.argmax()),
            "perturbed_top1": int(perturbed.argmax()),
            "max_abs_logit_delta": float(max_delta) if np.isfinite(max_delta) else None,
            "corrupted": bool(clean.argmax() != perturbed.argmax()),
        }, sort_keys=True))
        return 0
    print(f"injected single bit flip at layer {site.layer} "
          f"({fi.layer(site.layer).name}), coords {site.coords}")
    print(f"clean Top-1:     {clean.argmax()}  (logit {clean.max():+.4f})")
    print(f"perturbed Top-1: {perturbed.argmax()}  (logit {perturbed.max():+.4f})")
    print(f"max |logit delta|: {max_delta:.6f}")
    print("output corrupted:" , bool(clean.argmax() != perturbed.argmax()))
    return 0


def _scenario_fail(args, message):
    """Unresolvable scenario config: JSON under ``--json``, else stderr."""
    if args.json:
        print(json.dumps({"ok": False, "error": message}, sort_keys=True))
    else:
        print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_scenario_validate(args):
    from .scenario import ScenarioError, load_scenario

    try:
        config = load_scenario(args.file)
    except ScenarioError as exc:
        return _scenario_fail(args, str(exc))
    if args.json:
        print(json.dumps({"ok": True, "scenario": config.name,
                          "family": config.family,
                          "model": config.model.name,
                          "dataset": config.model.dataset,
                          "seed": config.seed}, sort_keys=True))
    else:
        print(config.describe())
        print("ok: scenario is valid")
    return 0


def _run_scenario_command(args, source, model_override=None):
    """Shared core of ``scenario run`` and ``inject --scenario``.

    Exit codes follow the campaign conventions: 0 clean, 2 unresolvable
    config/model, 3 degraded (completed only via retries/requeues/
    quarantine), 130 interrupted — with ``--journal`` the same command
    resumes each point exactly where it stopped.
    """
    from .scenario import ScenarioError, compile_scenario, load_scenario, run_scenario

    try:
        config = load_scenario(source)
        if model_override is not None:
            config.model.name = model_override
        if args.no_lane_packing:
            config.campaign.lane_packing = False
        compiled = compile_scenario(config)
    except ScenarioError as exc:
        return _scenario_fail(args, str(exc))
    result, bus, server = _run_under_telemetry(
        args, compiled.campaign,
        lambda bus: run_scenario(
            compiled, workers=args.workers, journal=args.journal,
            observe=args.observe, progress=bool(args.stream) or not args.json,
            out_dir=args.out_dir, telemetry=bus),
        " of the current point",
        "resume by re-running the same scenario command with the same --journal")
    if result is None:
        return 130
    if args.json:
        print(json.dumps({"ok": True,
                          "telemetry": _telemetry_block(bus, server),
                          **result.as_dict()}, sort_keys=True))
        return 3 if result.degraded else 0
    print(f"scenario: {result.name} ({result.family}) on {result.model}"
          f"/{result.dataset}, seed {result.seed}, workers {result.workers}")
    for point in result.points:
        interval = point.interval
        ci = (f"  {point.confidence:.0%} CI [{interval[0]:.4f}, "
              f"{interval[1]:.4f}]" if interval else "")
        residents = (f"  residents {point.resident_faults}"
                     if point.resident_faults else "")
        print(f"  {point.label}: {point.corruptions}/{point.injections} "
              f"SDC (rate {point.sdc_rate:.4f}){ci}{residents}")
    if result.artifact:
        print(f"wrote {result.artifact}")
    if result.degraded:
        print("degraded: some points completed only after retries/requeues")
    return 3 if result.degraded else 0


def _cmd_scenario_run(args):
    return _run_scenario_command(args, args.file)


def _cmd_top(args):
    """``repro top``: live status board for a streamed campaign.

    ``source`` is either a ``--stream`` endpoint (unix-socket path or
    ``host:port``) followed live, or a flight-recorder dump file
    (``flight_*.json``) rendered once as the post-mortem view.
    """
    from .telemetry import run_top

    return run_top(args.source, duration=args.duration,
                   max_events=args.max_events,
                   connect_timeout=args.connect_timeout,
                   raw=args.raw, refresh_s=args.refresh)


def _cmd_report(args):
    from .observe import aggregate, load_events, render_json, render_markdown, timing_summary

    path = Path(args.log)
    try:
        events = load_events(path)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not events:
        print(f"error: {path} holds no decodable events", file=sys.stderr)
        return 2
    profile = None
    if args.profile:
        profile_path = Path(args.profile)
        if not profile_path.exists():
            print(f"error: no such profile summary: {profile_path}", file=sys.stderr)
            return 2
        profile = json.loads(profile_path.read_text())
    report = aggregate(events)
    if profile is not None:
        report["profile"] = profile
    if args.format == "json":
        out = render_json(report)
    else:
        out = render_markdown(report, timing=timing_summary(events), profile=profile)
    if args.out:
        Path(args.out).write_text(out + "\n")
        print(f"wrote {args.out}")
    else:
        print(out)
    return 0


# Options several subcommands declare, by flag: the keywords every
# declaration shares.  ``_option`` adds one, with per-command overrides.
_SHARED_OPTIONS = {
    "--seed": dict(type=int, default=0),
    "--json": dict(action="store_true",
                   help="emit one machine-readable JSON object on stdout"),
    "--batch-size": dict(type=int, default=16,
                         help="injections per forward in campaign mode"),
    "--workers": dict(type=int, default=1, metavar="K",
                      help="shard the campaign across K forked worker processes "
                           "(results are bitwise-identical to --workers 1)"),
    "--journal": dict(default=None, metavar="PATH",
                      help="crash-consistent campaign journal: completed "
                           "chunks are fsync'd to PATH, and re-running the "
                           "same command resumes exactly where an "
                           "interrupted (even kill -9'd) run stopped"),
    "--observe": dict(default=None, metavar="LOG",
                      help="write per-injection telemetry JSONL"),
    "--stream": dict(default=None, metavar="SOCK",
                     help="serve live NDJSON telemetry on SOCK (unix-socket "
                          "path or host:port; port 0 picks one) while the "
                          "campaign runs — attach with `repro top SOCK`"),
    "--no-lane-packing": dict(action="store_true",
                              help="run one injection per forward (the serial "
                                   "oracle) instead of packing compatible "
                                   "sites into batch lanes"),
}


def _option(parser, flag, **overrides):
    parser.add_argument(flag, **{**_SHARED_OPTIONS[flag], **overrides})


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro", description="PyTorchFI (DSN 2020) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-models", help="show the model zoo").set_defaults(
        fn=_cmd_list_models)
    sub.add_parser("list-experiments", help="show reproducible figures/tables"
                   ).set_defaults(fn=_cmd_list_experiments)

    run_parser = sub.add_parser("run", help="regenerate one figure/table")
    run_parser.add_argument("experiment")
    run_parser.add_argument("--scale", choices=("smoke", "small", "paper"),
                            default="small")
    _option(run_parser, "--seed")
    run_parser.set_defaults(fn=_cmd_run)

    for name, fn in (("profile", _cmd_profile), ("inject", _cmd_inject)):
        p = sub.add_parser(name, help=f"{name} a zoo model")
        if name == "profile":
            p.add_argument("model", nargs="?", default=None)
        else:
            p.add_argument("model")
        p.add_argument("--dataset", default="cifar10")
        p.add_argument("--scale", choices=("smoke", "small", "paper"), default="small")
        _option(p, "--seed")
        if name == "inject":
            p.add_argument("--layer", type=int, default=None,
                           help="restrict the injection to one instrumentable layer")
            _option(p, "--json")
            p.add_argument("--campaign", type=int, default=0, metavar="N",
                           help="run an N-injection campaign instead of one shot")
            _option(p, "--batch-size")
            _option(p, "--journal")
            p.add_argument("--scenario", default=None, metavar="FILE",
                           help="run a declarative scenario file (see repro "
                                "scenario) with its model replaced by the "
                                "positional MODEL argument")
            _option(p, "--observe")
            p.add_argument("--out-dir", default="results",
                           help="directory for scenario sweep artifacts "
                                "(with --scenario; default: results)")
            _option(p, "--no-lane-packing")
        else:
            p.add_argument("--model", dest="model_flag", default=None, metavar="NAME",
                           help="runtime-profile this model and write Chrome-trace "
                                "+ summary artifacts (vs. the static layer table)")
            p.add_argument("--campaign", type=int, default=0, metavar="N",
                           help="profile a small N-injection campaign instead of "
                                "one forward")
            _option(p, "--batch-size", default=None,
                    help="injections per forward (default: 16 with "
                         "--campaign, as inject runs them; else 1, "
                         "Fig 3's batch)")
            p.add_argument("--out-dir", default="results/profile",
                           help="artifact directory (default: results/profile)")
            p.add_argument("--metrics-out", default=None, metavar="PATH",
                           help="write the campaign's counters in Prometheus "
                                "text exposition format to PATH (requires "
                                "--campaign)")
        _option(p, "--workers")
        _option(p, "--stream")
        p.set_defaults(fn=fn)

    scenario_parser = sub.add_parser(
        "scenario", help="validate or run a declarative fault scenario")
    scenario_sub = scenario_parser.add_subparsers(dest="scenario_command",
                                                  required=True)
    validate_parser = scenario_sub.add_parser(
        "validate", help="check a scenario file and print its plan")
    validate_parser.add_argument("file", help="scenario YAML/JSON file")
    _option(validate_parser, "--json")
    validate_parser.set_defaults(fn=_cmd_scenario_validate)
    scen_run_parser = scenario_sub.add_parser(
        "run", help="compile and execute a scenario (all sweep points)")
    scen_run_parser.add_argument("file", help="scenario YAML/JSON file")
    _option(scen_run_parser, "--workers")
    _option(scen_run_parser, "--journal",
            help="crash-consistent journal base path; multi-point scenarios "
                 "journal each point to PATH.<idx>-<label>")
    _option(scen_run_parser, "--observe")
    scen_run_parser.add_argument("--out-dir", default="results",
                                 help="directory for sweep artifacts "
                                      "(default: results)")
    _option(scen_run_parser, "--no-lane-packing")
    _option(scen_run_parser, "--json",
            help="emit one machine-readable JSON object; exit 0 clean / "
                 "2 unresolvable / 3 degraded / 130 interrupted")
    _option(scen_run_parser, "--stream")
    scen_run_parser.set_defaults(fn=_cmd_scenario_run)

    top_parser = sub.add_parser(
        "top", help="live status board for a --stream'ed campaign "
                    "(or a flight-recorder dump)")
    top_parser.add_argument("source",
                            help="telemetry endpoint (unix-socket path or "
                                 "host:port) or a flight_*.json dump file")
    top_parser.add_argument("--raw", action="store_true",
                            help="echo raw NDJSON envelopes instead of the board")
    top_parser.add_argument("--duration", type=float, default=None, metavar="S",
                            help="detach after S seconds")
    top_parser.add_argument("--max-events", type=int, default=None, metavar="N",
                            help="detach after N envelopes")
    top_parser.add_argument("--connect-timeout", type=float, default=5.0,
                            metavar="S",
                            help="keep retrying the endpoint for S seconds "
                                 "(default: 5)")
    top_parser.add_argument("--refresh", type=float, default=1.0, metavar="S",
                            help="board refresh interval (default: 1s)")
    top_parser.set_defaults(fn=_cmd_top)

    report_parser = sub.add_parser(
        "report", help="render a campaign telemetry log (see repro.observe)")
    report_parser.add_argument("log", help="JSONL event log written by an observed campaign")
    report_parser.add_argument("--format", choices=("markdown", "json"), default="markdown")
    report_parser.add_argument("--out", default=None, help="write the report to a file")
    report_parser.add_argument("--profile", default=None, metavar="SUMMARY_JSON",
                               help="merge a repro.profile summary JSON "
                                    "(from `repro profile`) into the report")
    report_parser.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
