"""Command-line entry point: ``python -m repro.experiments``.

Examples::

    python -m repro.experiments                      # all, small scale
    python -m repro.experiments --scale smoke fig9
    python -m repro.experiments --scale paper tab2 tab3

    # structured observability (repro.obs): JSONL trace and/or summary
    python -m repro.experiments --scale smoke --trace out.jsonl fig9
    python -m repro.experiments --scale smoke --trace-summary fig11

    # profile the run: cProfile stats land next to the trace output
    python -m repro.experiments --scale smoke --profile hot.pstats fig11

    # live telemetry (repro.obs.live): serve /metrics + /health while the
    # run is in flight, and evaluate SLO rules over the sliding windows
    python -m repro.experiments --scale small --serve-metrics 9100 fig11
    python -m repro.experiments --serve-metrics 0 --slo rules.json fig11
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from repro.experiments import EXPERIMENTS, scale_by_name
from repro.obs import JsonlSink, Observer, SummarySink, observed


def _run_experiments(chosen: list[str], scale, obs: Observer | None = None) -> None:
    for name in chosen:
        module = EXPERIMENTS[name]
        started = time.perf_counter()
        print(f"=== {name} (scale={scale.name}) ===")
        if obs is not None:
            with obs.span(f"experiment.{name}", scale=scale.name):
                output = module.main(scale)
        else:
            output = module.main(scale)
        print(output)
        print(f"--- {name} done in {time.perf_counter() - started:.1f}s ---\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the evaluation of 'Incremental Maintenance of "
        "XML Structural Indexes' (SIGMOD 2004).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXP",
        help=f"which experiments to run (default: all of {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=("smoke", "small", "paper"),
        help="dataset/workload scale preset (default: small)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="enable repro.obs and write a JSONL trace of the run to PATH",
    )
    parser.add_argument(
        "--trace-summary",
        action="store_true",
        help="enable repro.obs and print a per-span/counter summary at the end",
    )
    parser.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help="run everything under cProfile and dump the pstats data to "
        "PATH (inspect with `python -m pstats PATH`); the top functions "
        "by cumulative time are also printed at the end",
    )
    parser.add_argument(
        "--serve-metrics",
        type=int,
        metavar="PORT",
        default=None,
        help="enable repro.obs and serve Prometheus /metrics plus JSON "
        "/health on 127.0.0.1:PORT for the duration of the run "
        "(0 = pick an ephemeral port; the bound URL is printed)",
    )
    parser.add_argument(
        "--slo",
        metavar="PATH",
        default=None,
        help="evaluate SLO rules over the live telemetry windows: PATH is "
        "a JSON rule file (see repro.obs.slo.load_rules), or the literal "
        "'default' for the stock serving rules; the verdict is printed at "
        "the end and reflected in /health when --serve-metrics is on",
    )
    parser.add_argument(
        "--reconstruct-threshold",
        type=float,
        default=None,
        metavar="FRACTION",
        help="growth fraction that triggers baseline reconstruction in the "
        "reconstruction experiments (default: the paper's 0.05, i.e. 5%%)",
    )
    args = parser.parse_args(argv)

    chosen = args.experiments or list(EXPERIMENTS)
    unknown = [name for name in chosen if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s) {unknown}; choose from {list(EXPERIMENTS)}")

    scale = scale_by_name(args.scale)
    if args.reconstruct_threshold is not None:
        if args.reconstruct_threshold <= 0:
            parser.error("--reconstruct-threshold must be > 0")
        scale = replace(scale, reconstruct_threshold=args.reconstruct_threshold)
    plane = watchdog = server = None
    if args.serve_metrics is not None or args.slo:
        from repro.obs import (
            LivePlane,
            MetricsServer,
            SloWatchdog,
            default_service_rules,
            load_rules,
        )

        plane = LivePlane()
        rules = []
        if args.slo:
            if args.slo == "default":
                rules = default_service_rules()
            else:
                try:
                    rules = load_rules(args.slo)
                except (OSError, ValueError) as exc:
                    parser.error(f"cannot load SLO rules from {args.slo!r}: {exc}")
        watchdog = SloWatchdog(plane, rules)
        if args.serve_metrics is not None:
            server = MetricsServer(
                plane=plane, watchdog=watchdog, port=args.serve_metrics
            )
    sinks = []
    jsonl = None
    if args.trace:
        try:
            jsonl = JsonlSink(args.trace)
        except OSError as exc:
            parser.error(f"cannot open trace file {args.trace!r}: {exc}")
        sinks.append(jsonl)
    if args.trace_summary:
        sinks.append(SummarySink(sys.stdout))
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        if sinks or plane is not None:
            with observed(*sinks, live=plane) as obs:
                if server is not None:
                    server.registry = obs.metrics
                    server.start()
                    print(f"metrics: serving /metrics and /health on {server.url}")
                _run_experiments(chosen, scale, obs)
            if jsonl is not None:
                print(f"trace: wrote {jsonl.emitted} records to {args.trace}")
        else:
            _run_experiments(chosen, scale)
    finally:
        if server is not None:
            server.stop()
        if watchdog is not None and watchdog.rules:
            for status in watchdog.evaluate():
                print(
                    f"slo: {status.rule.name}: {status.status} "
                    f"({status.rule.metric} {status.rule.stat}="
                    f"{status.fast_value} {status.rule.op} {status.rule.threshold})"
                )
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(args.profile)
            import pstats

            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.sort_stats("cumulative").print_stats(15)
            print(f"profile: wrote pstats data to {args.profile}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
