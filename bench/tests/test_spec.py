"""BENCHMARK.json is the driver-facing copy of bench/spec.py and fits the contract."""

import json
import os
import re

from bench import spec
from bench.trace import SPAN_NAMES

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)


def test_benchmark_json_matches_spec():
    document = load()
    assert document == spec.benchmark_json(document["run_seconds"])


def test_issue_counts():
    assert len(spec.END_TO_END) == 12
    assert len(spec.PER_LAYER) == 71
    assert list(spec.WORKLOADS) == [
        "edge-churn", "query-hot", "doc-churn-replicated", "ingest-recover-large",
    ]


def test_contract_limits():
    document = load()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 1 <= document["run_seconds"] <= 60
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = []
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in document["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in document["end_to_end"])
    assert len(json.dumps(document)) < 64 * 1024


def test_every_layer_has_metrics_and_spans():
    layers = {name.split(".")[0] for name in spec.PER_LAYER_NAMES}
    assert layers == {
        "corpus", "service", "resilience", "maintenance", "index", "graph",
        "query", "adaptive", "store", "replication", "bench",
    }
    assert all(NAME.match(name) for name in SPAN_NAMES)
    assert {name.split(".")[0] for name in SPAN_NAMES} <= layers
