"""Self-time arithmetic and the per-layer metrics built from spans."""

from pytest import approx

import tracing


def test_self_time_subtracts_children_once():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["a.child", 15, 25, 1],
        ["b", 50, 90, 0],
        ["b.first", 60, 70, 3],
        ["b.second", 65, 80, 3],  # overlaps b.first: 60..80 is covered once
        ["c", 95, 110, 0],  # runs past its parent: only 95..100 counts
    ]
    assert tracing.self_times(spans) == [100 - 30 - 40 - 5, 20, 10, 20, 10, 15, 15]


def test_layer_metrics_from_a_hand_built_trace():
    payload = {
        "names": ["engine.run_step", "nullsteer.select_rotation", "traffic.advance"],
        "spans": [
            [0, 0, 1000, -1, None],
            [2, 100, 300, 0, None],
            [1, 400, 900, 0, "fallback-min"],
            [0, 1000, 1500, -1, None],
            [1, 1100, 1200, 3, "analytic-null"],
        ],
        "counts": {"engine.records": 2, "rng.draws": 7},
        "samples": {"traffic.alive_vehicles": [4, 6]},
        "missing": [],
    }
    m = tracing.layer_metrics(payload)
    assert m["engine.run_step.calls"] == 2
    assert m["engine.run_step.self_s"] == approx(700e-9)
    assert m["nullsteer.fallback.steps"] == 1 and m["nullsteer.fallback.s"] == approx(500e-9)
    assert m["nullsteer.analytic.steps"] == 1 and m["nullsteer.analytic.s"] == approx(100e-9)
    assert m["traffic.alive_vehicles.mean"] == 5
    assert m["rng.draws"] == 7
    assert sum(v for k, v in m.items() if k.startswith("share.")) == approx(100.0)
    assert m["share.nullsteer_pct"] == approx(100.0 * 600 / 1500)
