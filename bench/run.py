#!/usr/bin/env python3
"""The one benchmark command (see bench/README.md).

Single run — the form ``BENCHMARK.json`` names and the driver invokes::

    python3 bench/run.py --workload edge-churn --seed 1 --seconds 12 --trace 0

generates the inputs from ``--seed``, sets the system up three times
(``setup_s`` is the median; the third set-up is served), measures whole
load cycles for ``--seconds`` (or exactly ``--cycles N`` of them),
checks the outputs, prints every metric by name with unit and sample
count, and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` runs with no wrapper installed and reports
the end-to-end metrics; ``--trace 1`` sets up once, measures a third of
the time untraced, installs ``bench/trace.py``'s wrappers, measures the
rest, and reports the per-layer metrics.

Without ``--workload`` it runs the whole set — every workload untraced
and traced, each in a fresh subprocess, at the issue's fixed operation
counts unless ``--seconds`` is given — and writes the collected results
to ``--out``.  ``--selfcheck`` runs that set twice and fails unless the
two agree (see bench/compare.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# run as a script, sys.path[0] is bench/ itself — which would let
# bench/trace.py shadow the stdlib's ``trace``; import it as bench.trace
sys.path[:] = [p for p in sys.path if os.path.abspath(p or os.getcwd()) != BENCH_DIR]
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.obs import percentile  # noqa: E402  (fails here, before any output, without src/)

from bench import calibrate, spec  # noqa: E402
from bench.trace import Tracer, closure_by_root  # noqa: E402

OUT_DIR = os.path.join(BENCH_DIR, "out")
#: --smoke: every XMark count divided by this, a handful of cycles
SMOKE_DIVISOR = 12
SMOKE_CYCLES = {spec.EC: 2, spec.QH: 3, spec.DC: 1, spec.IR: 1}
clock = time.perf_counter


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# One workload, one process
# ----------------------------------------------------------------------


def environment(seed: int) -> dict:
    """Where and when this ran (the stamp printed with every result)."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "fsync": "always (sandbox page cache, not a device)",
        "load_1min_before": os.getloadavg()[0],
    }


def service_counters(workload) -> dict:
    """Cumulative public stats of the live services (read before/after)."""
    totals = {
        "checks": 0, "rollbacks": 0, "degradations": 0, "wal_bytes": 0,
        "checkpoints": 0, "records_applied": 0, "cache_hits": 0, "cache_misses": 0,
        "cache_revalidated": 0, "cache_invalidated": 0, "routed": 0,
        "routed_coarse": 0, "reconstructions": 0,
    }
    for service in workload.services():
        guard = service.guarded.stats
        totals["checks"] += guard.checks
        totals["rollbacks"] += guard.rollbacks
        totals["degradations"] += guard.degradations
        if hasattr(service, "wal"):
            totals["wal_bytes"] += service.wal.appended_bytes
            totals["checkpoints"] += service.checkpointer.checkpoints_written
        if hasattr(service, "records_applied"):
            totals["records_applied"] += service.records_applied
        if hasattr(service, "cache"):
            cache = service.cache.stats
            totals["cache_hits"] += cache.hits
            totals["cache_misses"] += cache.misses
            totals["cache_revalidated"] += cache.revalidated
            totals["cache_invalidated"] += cache.invalidated
            k = service.config.k
            for key, count in service.router.lifetime_routed.items():
                totals["routed"] += count
                if isinstance(key, int) and key < k:
                    totals["routed_coarse"] += count
            totals["reconstructions"] += service.controller.policy.reconstructions
    return totals


def measure(workload, rec, seconds: float, cycles: int) -> None:
    """Drive whole cycles: exactly *cycles* of them, or until *seconds* pass."""
    start = clock()
    while rec.cycles < cycles if cycles else clock() - start < seconds:
        workload.cycle(rec)
        rec.cycles += 1
    rec.wall_s = clock() - start


def end_to_end(name, rec, setups, recoveries, peak_rss_mb, outcome) -> dict:
    """The issue's twelve metrics, each only where it applies and is supported.

    *setups* and *recoveries* arrive already at reference speed; the
    measured phase's samples are brought there here (bench/calibrate.py).
    """
    slow = calibrate.slowdown(rec.kernel_s)
    update_s = [seconds / slow for seconds in rec.update_s]
    replica_s = [seconds / slow for seconds in rec.replica_s]
    query_s = [seconds / slow for seconds in rec.query_s]
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "update_visible_p50_ms": (percentile(update_s, 50) * 1e3, len(update_s)),
        "update_visible_p90_ms": (percentile(update_s, 90) * 1e3, len(update_s)),
        "updates_per_s": (ratio(rec.counts["ops_visible"], sum(update_s)),
                          rec.counts["ops_visible"]),
        "query_p50_ms": (percentile(query_s, 50) * 1e3, len(query_s)),
        "query_p99_ms": (percentile(query_s, 99) * 1e3, len(query_s)),
        "queries_per_s": (ratio(len(query_s), sum(query_s)), len(query_s)),
        "replica_visible_p50_ms": (percentile(replica_s, 50) * 1e3, len(replica_s)),
        "replica_visible_p90_ms": (percentile(replica_s, 90) * 1e3, len(replica_s)),
        "recovery_s": (statistics.median(recoveries) if recoveries else 0.0, len(recoveries)),
        "peak_rss_mb": (peak_rss_mb, 1),
        "failed_ops_share": (ratio(outcome.failed, outcome.attempted), outcome.attempted),
    }
    report = {}
    for metric in spec.END_TO_END:
        value, samples = values[metric.name]
        if name in metric.emits and samples >= max(1, metric.min_samples):
            report[metric.name] = {"value": value, "unit": metric.unit, "samples": samples}
    return report


def queue_wait_seconds(spans: list[tuple]) -> float:
    """Sum over logical changes of first ``submit`` start → first ``flush`` start."""
    first_submit: dict[int, float] = {}
    first_flush: dict[int, float] = {}
    for _, name, start, _, _, op_id, _ in spans:
        if name == "service.submit":
            first_submit[op_id] = min(start, first_submit.get(op_id, start))
        elif name == "service.flush":
            first_flush[op_id] = min(start, first_flush.get(op_id, start))
    return sum(
        first_flush[op_id] - submitted
        for op_id, submitted in first_submit.items()
        if op_id in first_flush
    )


def seconds_under(spans: list[tuple], name: str, ancestor: str) -> float:
    """Summed duration of *name* spans that have an *ancestor*-named ancestor."""
    by_id = {span[0]: span for span in spans}
    total = 0.0
    for span in spans:
        if span[1] != name:
            continue
        parent = span[4]
        while parent in by_id:
            if by_id[parent][1] == ancestor:
                total += span[3] - span[2]
                break
            parent = by_id[parent][4]
    return total


def per_layer(workload, tracer, rec, untraced, before, after, facts) -> tuple[dict, dict]:
    """The 71 layer metrics (plus ``bench.rounds``) from one traced phase.

    Busy seconds and counts of the measured phase are scaled to the
    workload's nominal round count, so a time-bounded run reports what
    the issue's fixed-count run would have summed to; seconds are also
    brought to the reference CPU speed (bench/calibrate.py).
    """
    nominal_rounds = workload.nominal_cycles * workload.rounds_per_cycle
    scale = ratio(nominal_rounds, rec.rounds)
    slow = calibrate.slowdown(rec.kernel_s)
    delta = {key: after[key] - before[key] for key in after}
    counts = rec.counts

    def busy(name: str, phase: str = "measure") -> float:
        return tracer.busy[phase, name]

    def scaled(value: float) -> float:
        """A count of the traced phase, at the nominal round count."""
        return value * scale

    def seconds(value: float) -> float:
        """Busy seconds of the traced phase: nominal rounds, reference speed."""
        return value * scale / slow

    measured = tracer.spans_in("measure")
    checkpoint_ops = {span[5] for span in measured if span[1] == "store.checkpoint"}
    stalls = [
        taken for taken, op_id in zip(rec.update_s, rec.update_ops) if op_id in checkpoint_ops
    ]
    primary = workload.primary
    if primary.guarded.index is not None:
        index, inodes = primary.guarded.index, primary.guarded.index.num_inodes
    else:
        index = primary.guarded.family
        inodes = index.num_inodes(primary.config.k)
    dnodes = primary.graph.num_nodes
    store_dir = getattr(workload, "store_dir", "")
    disk_bytes = checkpoint_bytes = 0
    if store_dir:
        sizes = {n: os.path.getsize(os.path.join(store_dir, n)) for n in os.listdir(store_dir)}
        disk_bytes = sum(sizes.values())
        checkpoint_bytes = max(
            (size for name, size in sizes.items() if name.startswith("checkpoint")), default=0
        )

    # integer tallies of the traced phase; --selfcheck compares the
    # spec.EXACT_COUNTERS among them bit for bit
    raw = {
        "corpus.doc_changes": counts["doc_changes"],
        "corpus.ops_emitted": counts["ops_visible"] if counts["doc_changes"] else 0,
        "corpus.noop_replaces": counts["noop_replaces"],
        "service.batches": counts["batches"],
        "service.ops_drained": counts["ops_drained"],
        "service.ops_applied": counts["ops_applied"],
        "service.full_captures": tracer.calls["measure", "IndexSnapshot.capture"],
        "maintenance.ops": tracer.counts["measure", "maintenance.ops"],
        "maintenance.splits": tracer.counts["measure", "maintenance.splits"],
        "maintenance.merges": tracer.counts["measure", "maintenance.merges"],
        "maintenance.moves": tracer.counts["measure", "maintenance.moves"],
        "resilience.checks": delta["checks"],
        "resilience.rollbacks": delta["rollbacks"],
        "resilience.degradations": delta["degradations"],
        "adaptive.reconstructions": delta["reconstructions"],
        "adaptive.cache_hits": delta["cache_hits"],
        "adaptive.cache_misses": delta["cache_misses"],
        "store.wal_bytes": delta["wal_bytes"],
        "store.checkpoints": delta["checkpoints"],
        "replication.feed_bytes": tracer.counts["measure", "replication.feed_bytes"],
        "replication.records_applied": delta["records_applied"],
        "index.inodes": inodes,
        "graph.dnodes": dnodes,
        "graph.dedges": primary.graph.num_edges,
    }
    maintenance_ops = raw["maintenance.ops"]
    state = ("index.inodes", "graph.dnodes", "graph.dedges", "adaptive.cache_hits",
             "adaptive.cache_misses")

    values = {name: scaled(value) for name, value in raw.items() if name not in state}
    values.update({
        "corpus.parse_s": seconds(busy("corpus.parse")),
        "corpus.compile_s": seconds(busy("corpus.compile")),
        "corpus.ops_per_doc_change": ratio(raw["corpus.ops_emitted"], counts["doc_changes"]),
        "service.submit_s": seconds(busy("service.submit")),
        "service.coalesce_s": seconds(busy("service.coalesce")),
        "service.publish_s": seconds(busy("service.publish")),
        "service.flush_self_s": seconds(tracer.self_s["measure", "service.flush"]),
        "service.queue_wait_s": seconds(queue_wait_seconds(measured)),
        "service.coalesced_away_share": ratio(counts["coalesced_away"], counts["ops_drained"]),
        "resilience.apply_batch_s": seconds(busy("resilience.apply_batch")),
        "resilience.check_s": seconds(busy("resilience.check")),
        "resilience.txn_self_s": seconds(tracer.self_s["measure", "resilience.apply_batch"]),
        # the primary's checks over the primary's commits: a follower's
        # re-check runs under replication.sync, not under a flush
        "resilience.check_share": ratio(
            seconds_under(measured, "resilience.check", "service.flush"), busy("service.flush")
        ),
        "resilience.wire_s": seconds(busy("resilience.wire")),
        "maintenance.apply_s": seconds(busy("maintenance.op")),
        "maintenance.us_per_op": ratio(busy("maintenance.op"), maintenance_ops) * 1e6 / slow,
        "maintenance.trivial_share": ratio(
            tracer.counts["measure", "maintenance.trivial"], maintenance_ops
        ),
        "index.build_s": busy("index.build", "setup") / facts["setup_slowdown"],
        "index.inodes": inodes,
        "index.quality": facts["quality"],
        "index.bytes": index.approx_bytes(),
        "index.bytes_per_dnode": ratio(index.approx_bytes(), dnodes),
        "graph.dnodes": dnodes,
        "graph.dedges": raw["graph.dedges"],
        "graph.bytes": primary.graph.approx_bytes(),
        "graph.bytes_per_dnode": ratio(primary.graph.approx_bytes(), dnodes),
        "query.compile_s": seconds(busy("query.compile")),
        "query.eval_s": seconds(busy("query.eval")),
        "query.validated_share": ratio(counts["validated"], counts["queries"]),
        "query.nodes_visited_per_match": ratio(counts["nodes_visited"], counts["matches"]),
        "query.empty_share": ratio(counts["empty"], counts["queries"]),
        "adaptive.route_s": seconds(busy("adaptive.route")),
        "adaptive.cache_lookup_s": seconds(busy("adaptive.cache_lookup")),
        "adaptive.cache_hit_rate": ratio(
            delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]
        ),
        "adaptive.cache_on_commit_s": seconds(busy("adaptive.cache_on_commit")),
        "adaptive.cache_revalidated_share": ratio(
            delta["cache_revalidated"], delta["cache_revalidated"] + delta["cache_invalidated"]
        ),
        "adaptive.ladder_build_s": seconds(busy("adaptive.ladder_build")),
        "adaptive.coarse_routed_share": ratio(delta["routed_coarse"], delta["routed"]),
        "store.wal_append_s": seconds(busy("store.wal_append")),
        "store.wal_bytes_per_op": ratio(delta["wal_bytes"], counts["ops_applied"]),
        "store.checkpoint_s": seconds(busy("store.checkpoint")),
        "store.checkpoint_bytes": checkpoint_bytes,
        "store.checkpoint_stall_max_ms": max(stalls, default=0.0) * 1e3 / slow,
        # filled in after the recovery phase, which needs the services gone
        "store.recover_s": 0.0,
        "store.replayed_records": 0,
        "store.disk_bytes_per_dnode": ratio(disk_bytes, dnodes),
        "replication.bootstrap_s": busy("replication.bootstrap", "setup") / facts["setup_slowdown"],
        "replication.fetch_s": seconds(busy("replication.fetch")),
        "replication.apply_s": seconds(busy("replication.sync") - busy("replication.fetch")),
        "replication.lag_lsns_max": rec.lag_lsns_max,
        # both walls at reference speed, or host noise would pass for overhead
        "bench.trace_overhead_ratio": ratio(
            ratio(rec.wall_s, rec.cycles) / slow,
            ratio(untraced.wall_s, untraced.cycles) / calibrate.slowdown(untraced.kernel_s),
        ),
        "bench.generator_s": facts["generator_s"],
        "bench.rounds": rec.rounds,
        "bench.cpu_speed_ratio": slow,
    })
    report = {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in spec.DRIVER_PER_LAYER
        if name in values
    }
    exact = {name: raw[name] for name in spec.EXACT_COUNTERS}
    return report, exact


def run_workload(name: str, seed: int, seconds: float, cycles: int, traced: bool,
                 divisor: int) -> dict:
    """Set up, measure, verify and recover one workload in this process."""
    from bench.workloads import BY_NAME, Outcome, Recorder, digest

    env = environment(seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    tracer = Tracer() if traced else None
    outcome = Outcome()
    workload = None
    try:
        start = clock()
        workload = BY_NAME[name](seed, divisor)
        facts = {"generator_s": clock() - start}

        # -- set-up: three cold ones untraced (median), one when traced --
        if tracer is not None:
            tracer.install()
        setups, probes = [], []
        repeats = 1 if traced else 3
        for attempt in range(repeats):
            materials = workload.fresh()
            gc.collect()
            probes.append(calibrate.probe())
            start = clock()
            workload.setup(materials, os.path.join(workdir, f"setup-{attempt}"))
            setups.append(clock() - start)
            probes.append(calibrate.probe())
            if attempt < repeats - 1:
                workload.teardown()
        del materials
        # one speed estimate for the whole set-up period: the swings last
        # longer than a set-up, and six probes say more than two
        facts["setup_slowdown"] = calibrate.slowdown(probes)
        setups = [taken / facts["setup_slowdown"] for taken in setups]

        # -- warm-up, then the measured phase(s) with a frozen heap -------
        if tracer is not None:
            tracer.phase = "warmup"
        workload.warm_up(Recorder(outcome, tracer))
        gc.collect()
        gc.freeze()
        rec = Recorder(outcome, tracer)
        if tracer is None:
            measure(workload, rec, seconds, cycles)
        else:
            untraced = Recorder(outcome)
            tracer.uninstall()
            measure(workload, untraced, seconds / 3.0, max(1, cycles // 4) if cycles else 0)
            tracer.install()
            tracer.phase = "measure"
            before = service_counters(workload)
            measure(workload, rec, seconds - untraced.wall_s, cycles)
            after = service_counters(workload)
            tracer.phase = "check"
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # -- end state against independent oracles (untimed) -------------
        facts.update(workload.verify_final(outcome))
        layers = exact = None
        if tracer is not None:
            layers, exact = per_layer(workload, tracer, rec, untraced, before, after, facts)

        # -- crash image, then recoveries with the crashed services gone --
        recoveries = []
        if workload.recoveries:
            acked_version = workload.primary.version
            acked_digest = digest(workload.primary)
            image = os.path.join(workdir, "crash-image")
            workload.crash_image(image)
            recover_once = workload.recover_once
            workload.teardown()
            gc.collect()
            if tracer is not None:
                tracer.phase = "recover"
            probes = []
            for attempt in range(1 if traced else workload.recoveries):
                copy = os.path.join(workdir, f"recover-{attempt}")
                shutil.copytree(image, copy)
                taken, replayed = recover_once(copy, acked_version, acked_digest, outcome, probes)
                recoveries.append(taken)
                shutil.rmtree(copy, ignore_errors=True)
            slow = calibrate.slowdown(probes)
            recoveries = [taken / slow for taken in recoveries]
            if layers is not None:
                layers["store.recover_s"]["value"] = tracer.busy["recover", "store.recover"] / slow
                layers["store.replayed_records"]["value"] = replayed

        result = {
            "workload": name, "seed": seed, "traced": traced,
            "mode": f"{cycles} cycles" if cycles else f"{seconds:g} s",
            "divisor": divisor, "rounds": rec.rounds, "measured_wall_s": rec.wall_s,
            "cpu_speed_ratio": calibrate.slowdown(rec.kernel_s), "env": env,
        }
        if tracer is not None:
            closure = closure_by_root(tracer.spans_in("measure"))
            for root, (root_s, self_sum) in closure.items():
                outcome.expect(
                    abs(self_sum - root_s) <= 0.05 * root_s,
                    f"trace self times under {root} sum to {self_sum:.4f}s of {root_s:.4f}s",
                )
        metrics = end_to_end(name, rec, setups, recoveries, peak_rss_mb, outcome)
        if tracer is None:
            result["end_to_end"] = metrics
        else:
            # the end-to-end metrics the driver's one list cannot carry,
            # as measured under tracing (0 where they do not apply)
            for metric_name, unit, _ in spec.DRIVER_PER_LAYER:
                if metric_name in spec.E2E_BY_NAME:
                    value = metrics.get(metric_name, {"value": 0.0})["value"]
                    layers[metric_name] = {"value": value, "unit": unit}
            trace_path = os.path.join(OUT_DIR, f"{name}.trace.jsonl")
            tracer.write_jsonl(trace_path)
            result.update(
                per_layer=layers,
                exact=exact,
                closure={r: {"root_s": p[0], "self_sum_s": p[1]} for r, p in closure.items()},
                trace_file=os.path.relpath(trace_path, ROOT),
            )
        env["load_1min_after"] = os.getloadavg()[0]
        result.update(attempted=outcome.attempted, failed=outcome.failed, notes=outcome.notes)
        return result
    finally:
        if tracer is not None:
            tracer.uninstall()
        if workload is not None and workload.primary is not None:
            workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def print_result(result: dict) -> None:
    """Every metric by name, with unit and (for timings) sample count."""
    env = result["env"]
    print(
        f"# {result['workload']}  seed={result['seed']}  {result['mode']}  "
        f"traced={int(result['traced'])}  rounds={result['rounds']}  "
        f"commit={env['commit']}  python={env['python']}  nproc={env['nproc']}  "
        f"load={env['load_1min_before']:.2f}->{env['load_1min_after']:.2f}  "
        f"fsync={env['fsync']}\n"
        f"# timings at reference CPU speed: measured wall-clock ÷ {result['cpu_speed_ratio']:.3f} "
        f"(calibration kernel, bench/calibrate.py)"
    )
    if max(env["load_1min_before"], env["load_1min_after"]) > 1.0:
        print("# WARNING: 1-min load average above 1.0 — timings may not repeat",
              file=sys.stderr)
    for name, entry in (result.get("end_to_end") or result["per_layer"]).items():
        samples = f"  n={entry['samples']}" if "samples" in entry else ""
        print(f"{name:38s} {entry['value']:>16.6g} {entry['unit']}{samples}")
    for root, pair in result.get("closure", {}).items():
        print(f"# closure {root}: self times {pair['self_sum_s']:.4f}s of root {pair['root_s']:.4f}s")
    print(f"# attempted={result['attempted']} failed={result['failed']}")
    for note in result["notes"]:
        print(f"# FAILED: {note}", file=sys.stderr)


def driver_line(result: dict) -> str:
    """The last line the driver reads: exactly its metric list, full digits."""
    if result["traced"]:
        names = [name for name, _, _ in spec.DRIVER_PER_LAYER]
        source = result["per_layer"]
    else:
        names = [metric.name for metric in spec.DRIVER_END_TO_END]
        source = result["end_to_end"]
    metrics = {
        name: {"value": source[name]["value"], "unit": source[name]["unit"]} for name in names
    }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


# ----------------------------------------------------------------------
# The whole set, each run in a fresh subprocess
# ----------------------------------------------------------------------


def run_set(args, label: str) -> list[dict]:
    """Every workload untraced and traced, ``--repeats`` times each."""
    results = []
    os.makedirs(OUT_DIR, exist_ok=True)
    # fixed hash seed: exact counters must not depend on str-set order
    env = dict(os.environ, PYTHONHASHSEED="0")
    for name in args.workloads:
        for traced in (0, 1):
            for repeat in range(args.repeats):
                handle, path = tempfile.mkstemp(prefix="result-", suffix=".json", dir=OUT_DIR)
                os.close(handle)
                command = [
                    sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--trace", str(traced), "--out", path,
                ]
                if args.smoke:
                    command.append("--smoke")
                elif args.seconds is not None:
                    command += ["--seconds", str(args.seconds)]
                else:
                    command += ["--cycles", str(nominal_cycles(name))]
                print(f"## [{label}] {name} trace={traced} repeat={repeat + 1}/{args.repeats}",
                      flush=True)
                try:
                    done = subprocess.run(command, env=env, cwd=ROOT, timeout=900)
                    with open(path, encoding="utf-8") as fp:
                        result = json.load(fp)
                except (OSError, ValueError, subprocess.SubprocessError) as exc:
                    raise SystemExit(f"{name} trace={traced} did not produce a result: {exc!r}")
                finally:
                    os.unlink(path)
                result["exit_code"] = done.returncode
                results.append(result)
    return results


def nominal_cycles(name: str) -> int:
    from bench.workloads import BY_NAME

    return BY_NAME[name].nominal_cycles


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS),
                        help="run this one workload in-process (default: the whole set)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure whole cycles for this long")
    parser.add_argument("--cycles", type=int, default=0,
                        help="measure exactly this many cycles instead (exact counters repeat)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = install bench/trace.py and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"XMark/{SMOKE_DIVISOR} and a handful of cycles (< 5 s per workload)")
    parser.add_argument("--out", help="also write the full result(s) here as JSON")
    parser.add_argument("--repeats", type=int, default=1,
                        help="whole-set mode: runs per (workload, trace) pair")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the whole set twice and compare (see bench/compare.py)")
    args = parser.parse_args(argv)

    if args.workload is not None:
        divisor = SMOKE_DIVISOR if args.smoke else 1
        cycles = args.cycles or (SMOKE_CYCLES[args.workload] if args.smoke else 0)
        seconds = args.seconds if args.seconds is not None else float(run_seconds())
        result = run_workload(args.workload, args.seed, seconds, cycles, bool(args.trace), divisor)
        print_result(result)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fp:
                json.dump(result, fp, indent=1)
        print(driver_line(result), flush=True)
        return 0 if result["failed"] == 0 else 1

    from bench import compare

    args.workloads = list(spec.WORKLOADS)
    first = run_set(args, "set 1")
    document = {"runs": first}
    status = 0 if all(r["failed"] == 0 and r["exit_code"] == 0 for r in first) else 1
    if args.selfcheck:
        second = run_set(args, "set 2")
        document["second_runs"] = second
        if any(r["failed"] or r["exit_code"] for r in second):
            status = 1
        rows, exact_mismatches = compare.compare(first, second)
        print(compare.render(rows, "set 1", "set 2"))
        for mismatch in exact_mismatches:
            print(f"EXACT COUNTER MISMATCH: {mismatch}")
        if exact_mismatches or any(row["verdict"] in ("worse", "unresolved") for row in rows):
            status = 1
    else:
        print(compare.render_single(first))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(document, fp, indent=1)
    print("OK" if status == 0 else "FAILED")
    return status


def run_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)["run_seconds"]


if __name__ == "__main__":
    sys.exit(main())
