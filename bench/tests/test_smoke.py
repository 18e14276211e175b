"""``--smoke`` runs of the one command: every metric, determinism, hygiene."""

import json
import os
import re
import subprocess
import sys

import pytest

from bench import spec
from bench.trace import SPAN_NAMES, closure_by_root

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "bench", "run.py")
OUT = os.path.join(ROOT, "bench", "out")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

_cache: dict = {}


def smoke(workload: str, trace: int, seed: int = 1, again: bool = False) -> dict:
    """One cached ``--smoke`` subprocess run: parsed driver line + full result."""
    key = (workload, trace, seed, again)
    if key not in _cache:
        path = os.path.join(OUT, f"test-{os.getpid()}-{len(_cache)}.json")
        os.makedirs(OUT, exist_ok=True)
        done = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--smoke", "--seed", str(seed),
             "--trace", str(trace), "--out", path],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
            env=dict(os.environ, PYTHONHASHSEED="0"),
        )
        assert done.returncode == 0, done.stdout + done.stderr
        with open(path, encoding="utf-8") as fp:
            full = json.load(fp)
        os.unlink(path)
        _cache[key] = {
            "line": json.loads(done.stdout.strip().splitlines()[-1]),
            "full": full,
            "stdout": done.stdout,
        }
    return _cache[key]


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_untraced_run_reports_its_end_to_end_metrics(workload):
    run = smoke(workload, 0)
    line, full = run["line"], run["full"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m.name for m in spec.DRIVER_END_TO_END]
    for name, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == spec.E2E_BY_NAME[name].unit
        assert entry["value"] > 0, name
    # the full report carries every issue metric this workload can support
    expected = {
        m.name for m in spec.END_TO_END if workload in m.emits and not m.min_samples
    }
    assert expected <= set(full["end_to_end"])
    assert all(workload in spec.E2E_BY_NAME[name].emits for name in full["end_to_end"])
    assert full["end_to_end"]["failed_ops_share"]["value"] == 0
    assert all("samples" in entry for entry in full["end_to_end"].values())
    for name in full["end_to_end"]:
        assert re.search(rf"^{re.escape(name)}\s+\S+ \S+\s+n=\d+$", run["stdout"], re.M), name
    stamp = full["env"]
    assert {"commit", "python", "nproc", "seed", "load_1min_before", "load_1min_after"} <= set(stamp)


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_traced_run_reports_every_layer_metric_and_closes(workload):
    run = smoke(workload, 1)
    line, full = run["line"], run["full"]
    assert line["correct"] is True
    assert list(line["metrics"]) == [name for name, _, _ in spec.DRIVER_PER_LAYER]
    assert set(spec.PER_LAYER_NAMES) <= set(full["per_layer"])
    assert all(NAME.match(name) for name in full["per_layer"])
    layers = {name: entry["value"] for name, entry in full["per_layer"].items()}
    assert layers["resilience.check_s"] > 0 and layers["maintenance.ops"] > 0
    assert layers["index.build_s"] > 0 and layers["query.eval_s"] > 0
    assert layers["bench.trace_overhead_ratio"] > 0
    assert 0 < layers["resilience.check_share"] < 1
    durable = workload in (spec.DC, spec.IR)
    assert (layers["store.wal_bytes"] > 0) == durable
    assert (layers["store.recover_s"] > 0) == durable
    assert (layers["corpus.doc_changes"] > 0) == durable
    assert (layers["replication.records_applied"] > 0) == (workload == spec.DC)
    assert (layers["replica_visible_p50_ms"] > 0) == (workload == spec.DC)
    assert (layers["adaptive.cache_hit_rate"] > 0) == (workload == spec.QH)
    assert (layers["store.checkpoints"] > 0) == (workload == spec.IR)
    for pair in full["closure"].values():
        assert pair["root_s"] > 0
        assert abs(pair["self_sum_s"] - pair["root_s"]) <= 0.05 * pair["root_s"]
    # the same check from the written trace alone
    spans = []
    with open(os.path.join(ROOT, full["trace_file"]), encoding="ascii") as fp:
        for raw in fp:
            s = json.loads(raw)
            assert s["name"] in SPAN_NAMES and s["end"] >= s["start"]
            if s["phase"] == "measure":
                spans.append((s["id"], s["name"], s["start"], s["end"], s["parent"], s["op"]))
    for root_s, self_sum in closure_by_root(spans).values():
        assert root_s > 0 and abs(self_sum - root_s) <= 0.05 * root_s
    ops_of_roots = [s[5] for s in spans if s[4] == -1 and s[1] in ("service.flush", "service.query")]
    assert len(set(ops_of_roots)) > 1  # spans of one change / one query share an id


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_same_seed_same_counters_other_seed_other_inputs(workload):
    first = smoke(workload, 1)["full"]["exact"]
    again = smoke(workload, 1, again=True)["full"]["exact"]
    other = smoke(workload, 1, seed=2)["full"]["exact"]
    assert set(first) == set(spec.EXACT_COUNTERS)
    assert first == again
    assert first != other


def test_scratch_is_removed_and_ignored():
    smoke(spec.DC, 0)
    assert not [name for name in os.listdir(OUT) if name.startswith("tmp-")]
    with open(os.path.join(ROOT, "bench", ".gitignore"), encoding="utf-8") as fp:
        assert "out/" in fp.read().split()


def test_crash_image_discards_unacknowledged_bytes(tmp_path):
    from bench.workloads import DocChurnReplicated, Outcome, Recorder, digest
    from repro.store import list_segments

    workload = DocChurnReplicated(seed=5, divisor=16)
    workload.setup(workload.fresh(), str(tmp_path))
    try:
        outcome = Outcome()
        workload.warm_up(Recorder(outcome))
        segment, size = workload.acked_wal
        live = os.path.join(workload.store_dir, segment)
        assert os.path.getsize(live) == size > 0
        with open(live, "ab") as fp:  # written after the last acknowledged flush
            fp.write(b'{"never":"synced"}\n')
        acked = (workload.primary.version, digest(workload.primary))
        image = str(tmp_path / "image")
        workload.crash_image(image)
        torn = os.path.getsize(os.path.join(image, segment)) - size
        assert 0 < torn < len(b'{"never":"synced"}\n') + 80
        assert list_segments(image)[-1] == segment
        recover_once = workload.recover_once
    finally:
        workload.teardown()
    probes = []
    seconds, replayed = recover_once(image, *acked, outcome, probes)
    assert seconds > 0 and len(probes) == 2 and replayed == workload.warmup_rounds
    assert outcome.failed == 0, outcome.notes
