"""bench/compare.py verdicts: bounds, spread, exact counters."""

from bench import compare, spec


def runs(workload, name, values, exact=None):
    out = [
        {"workload": workload, "mode": "6 cycles", "traced": False,
         "end_to_end": {name: {"value": value, "unit": "ms"}}}
        for value in values
    ]
    if exact is not None:
        out.append({"workload": workload, "mode": "6 cycles", "traced": True, "exact": exact})
    return out


def verdict(a_values, b_values, name="update_visible_p50_ms"):
    rows, _ = compare.compare(runs(spec.EC, name, a_values), runs(spec.EC, name, b_values))
    assert len(rows) == 1
    return rows[0]["verdict"]


def test_bound_applies_in_the_metrics_direction():
    bound = spec.E2E_BY_NAME["update_visible_p50_ms"].bound
    assert verdict([100.0], [100.0 * (1 + bound / 2)]) == "same"
    assert verdict([100.0], [100.0 * (1 + 2 * bound)]) == "worse"
    assert verdict([100.0], [100.0 * (1 - 2 * bound)]) == "better"
    assert verdict([50.0], [50.0 * (1 - 2 * bound)], name="updates_per_s") == "worse"
    assert verdict([50.0], [50.0 * (1 + 2 * bound)], name="queries_per_s") == "better"


def test_wide_overlapping_spread_is_unresolved_not_same():
    noisy = [60.0, 90.0, 100.0, 110.0, 140.0]
    assert verdict(noisy, [v * 1.02 for v in noisy]) == "unresolved"
    # ... unless every run of one side beats every run of the other
    assert verdict(noisy, [v / 10 for v in noisy]) == "better"


def test_failed_ops_share_is_exact():
    assert verdict([0.0], [0.0], name="failed_ops_share") == "same"
    assert verdict([0.0], [0.001], name="failed_ops_share") == "worse"


def test_exact_counters_must_match():
    exact = {name: 3 for name in spec.EXACT_COUNTERS}
    drift = dict(exact, **{"store.wal_bytes": 4})
    a = runs(spec.DC, "setup_s", [1.0], exact)
    assert compare.compare(a, runs(spec.DC, "setup_s", [1.0], exact))[1] == []
    problems = compare.compare(a, runs(spec.DC, "setup_s", [1.0], drift))[1]
    assert problems == [f"{spec.DC} store.wal_bytes: 3 != 4"]


def test_render_gives_every_ratio_with_its_base():
    rows, _ = compare.compare(
        runs(spec.IR, "setup_s", [4.0]), runs(spec.IR, "setup_s", [5.0])
    )
    text = compare.render(rows, "parent", "change")
    assert "parent (base)" in text and "1.250" in text and "same" in text
    assert " 4 " in text and " 5 " in text
