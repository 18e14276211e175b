"""The wrapper table installs, nests, and restores every patched attribute."""

import inspect

from bench.trace import SPAN_TABLE, Tracer, _resolve, closure_by_root


def current_objects():
    return [
        inspect.getattr_static(_resolve(module, owner), attr)
        for _, module, owner, attr in SPAN_TABLE
    ]


def test_install_replaces_and_uninstall_restores_identity():
    before = current_objects()
    owned = [attr in vars(_resolve(m, o)) for _, m, o, attr in SPAN_TABLE]
    tracer = Tracer()
    tracer.install()
    try:
        during = current_objects()
        assert all(new is not old for new, old in zip(during, before))
        tracer.install()  # idempotent: must not wrap the wrappers
        assert all(a is b for a, b in zip(current_objects(), during))
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(current_objects(), before))
    assert owned == [attr in vars(_resolve(m, o)) for _, m, o, attr in SPAN_TABLE]
    assert not tracer.installed


def test_spans_nest_and_self_times_close():
    from repro.service import IndexService, ServiceConfig
    from repro.service.queue import Update
    from repro.workload.xmark import XMarkConfig, generate_xmark

    graph = generate_xmark(XMarkConfig(
        num_items=20, num_persons=20, num_open_auctions=10,
        num_closed_auctions=10, num_categories=5, seed=3,
    )).graph
    tracer = Tracer()
    tracer.install()
    try:
        service = IndexService(graph, ServiceConfig(family="one"))
        tracer.phase = "measure"
        tracer.op_id = 7
        people = sorted(graph.nodes_with_label("person"))
        service.submit(Update.insert_edge(people[0], people[1]))
        service.flush()
        service.query("//person")
    finally:
        tracer.uninstall()
    names = {span[1] for span in tracer.spans}
    assert {"index.build", "service.publish", "service.submit", "service.flush",
            "resilience.apply_batch", "resilience.check", "maintenance.op",
            "service.query", "query.eval", "query.compile"} <= names
    measured = tracer.spans_in("measure")
    assert all(span[5] == 7 for span in measured)
    # IndexSnapshot.evaluate → evaluate_on_index is one query.eval, not two
    assert tracer.calls["measure", "query.eval"] == 1
    by_id = {span[0]: span for span in tracer.spans}
    check = next(span for span in measured if span[1] == "resilience.check")
    assert by_id[check[4]][1] == "resilience.apply_batch"
    assert by_id[by_id[check[4]][4]][1] == "service.flush"
    assert tracer.counts["measure", "maintenance.ops"] == 1
    closure = closure_by_root(measured)
    for root_s, self_sum in closure.values():
        assert root_s > 0 and abs(self_sum - root_s) <= 1e-9 + 0.05 * root_s
    busy = tracer.busy["measure", "service.flush"]
    assert abs(closure["service.flush"][0] - busy) < 1e-9


def test_closure_detects_a_span_counted_outside_its_parent():
    # child claims more time than its parent covers → self times cannot close
    spans = [
        (1, "resilience.check", 0.0, 5.0, 0, 1, "measure"),
        (0, "service.flush", 0.0, 1.0, -1, 1, "measure"),
    ]
    root_s, self_sum = closure_by_root(spans)["service.flush"]
    assert root_s == 1.0 and abs(self_sum - root_s) > 0.05 * root_s
