"""The corpus pin file's writer and its regeneration summary."""

from __future__ import annotations

import json

from tests import pins


def test_summary_line_format():
    old = {"root_cost": (488.25).hex(), "sim_seconds": (0.5).hex(), "jobs": 851}
    new = {"root_cost": (490.0).hex(), "sim_seconds": (0.5).hex(), "jobs": 849}
    assert pins.summary_line("star_brand", old, new, "CHANGED") == (
        "star_brand: plan CHANGED, root cost 488.25 -> 490.0, "
        "sim s 0.5 -> 0.5, jobs 851 -> 849"
    )
    assert pins.summary_line("star_brand", old, old, "same") == (
        "star_brand: plan same, root cost 488.25 -> 488.25, "
        "sim s 0.5 -> 0.5, jobs 851 -> 851"
    )
    assert pins.summary_line("new_query", {}, new, None) == (
        "new_query: plan unchecked, root cost none -> 490.0, "
        "sim s none -> 0.5, jobs none -> 849"
    )


def test_plan_change_tells_estimates_from_shape():
    old = "-> Sort(<1>)  (rows=3 cost=10.5) [Singleton, <1>]\n"
    assert pins.plan_change(old, old) == "same"
    assert pins.plan_change(old, old.replace("10.5", "10.7")) == "estimates"
    assert pins.plan_change(old, old.replace("<1>", "<2>")) == "CHANGED"
    assert pins.plan_change(None, old) == "CHANGED"


def test_regenerate_keeps_unrun_records_and_drops_stale_queries(
    tmp_path, monkeypatch
):
    path = tmp_path / "corpus_pins.json"
    path.write_text(json.dumps({
        "corpus": {"totals": {"jobs": 10}},
        "queries": {
            "kept": {"jobs": 1, "root_cost": (2.0).hex()},
            "gone": {"jobs": 3},
        },
    }))
    monkeypatch.setattr(pins, "PINS_PATH", path)
    monkeypatch.setattr(pins, "recorded", {
        "queries": {"kept": {"jobs": 4}, "added": {"jobs": 5}},
    })
    monkeypatch.setattr(pins, "plan_changes", {"kept": "same"})
    pins.stored.cache_clear()
    try:
        lines = pins.regenerate(["added", "kept"])
    finally:
        pins.stored.cache_clear()
    text = path.read_text()
    assert json.loads(text) == {
        "corpus": {"totals": {"jobs": 10}},
        "queries": {
            "added": {"jobs": 5},
            "kept": {"jobs": 4, "root_cost": (2.0).hex()},
        },
    }
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert lines == [
        "added: plan unchecked, root cost none -> none, sim s none -> none, "
        "jobs none -> 5",
        "kept: plan same, root cost 2.0 -> 2.0, sim s none -> none, "
        "jobs 1 -> 4",
    ]
