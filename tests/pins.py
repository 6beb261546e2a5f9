"""Corpus pins: the exact values the suite holds the optimizer to, as data.

``tests/golden/corpus_pins.json`` stores every corpus pin once:

- ``queries.<id>``, per workload query at scale 0.08, 8 segments, pruning
  on: the serial job log's length (``jobs``) and sha1, the root plan's
  cost (``root_cost``) and the executed plan's ``simulated_seconds()``
  (``sim_seconds``), both as ``float.hex()``, and the costed and pruned
  alternative counts;
- ``corpus``: the sha1 over every ``local_cost`` / ``local_cost_floor``
  call of one corpus pass (``cost_calls``, pruning on and off) and the
  corpus totals at scale 0.1 (``totals_scale_0.1``).

A test measures its values and hands them to :func:`check`, nested the
way the file nests them.  Normally ``check`` asserts they equal the
stored pins exactly; under ``--update-golden`` it records them instead,
and the session hook in ``conftest.py`` calls :func:`regenerate`, which
merges what was recorded into the file and returns one summary line per
query.  Regenerate every pin and golden plan with::

    PYTHONPATH=src python -m pytest tests/ -m pins --update-golden -q

and commit the regenerated files in a commit of their own, with the
summary pasted into ``CHANGES.md``.
"""

from __future__ import annotations

import functools
import json
import re
from pathlib import Path
from typing import Any, Optional

PINS_PATH = Path(__file__).parent / "golden" / "corpus_pins.json"

#: The fields of one complete ``queries.<id>`` record.
QUERY_FIELDS = (
    "costed_alternatives", "job_log_sha1", "jobs", "pruned_alternatives",
    "root_cost", "sim_seconds",
)

#: Set from ``--update-golden`` when the session starts.
updating = False
#: What the tests measured in an ``--update-golden`` session, nested as
#: in the file.
recorded: dict[str, Any] = {}
#: Query id -> how its golden plan moved (:func:`plan_change`), likewise.
plan_changes: dict[str, str] = {}

_ESTIMATES = re.compile(r"\(rows=\S+ cost=[^)]+\)")


@functools.cache
def stored() -> dict[str, Any]:
    """The committed pins (empty before the file exists)."""
    if not PINS_PATH.exists():
        return {}
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def _project(pins: dict, shape: dict) -> dict:
    """``pins`` cut down to the keys of ``shape`` (None where absent)."""
    return {
        key: _project(pins.get(key) or {}, value)
        if isinstance(value, dict) else pins.get(key)
        for key, value in shape.items()
    }


def _merge(into: dict, values: dict, path: tuple = ()) -> None:
    for key, value in values.items():
        if isinstance(value, dict):
            _merge(into.setdefault(key, {}), value, path + (key,))
        elif into.setdefault(key, value) != value:
            raise AssertionError(
                f"two tests measured pin {'.'.join(path + (key,))} as "
                f"{into[key]!r} and {value!r}"
            )


def check(actual: dict) -> None:
    """Assert every value in ``actual`` equals its pin, or record it
    under ``--update-golden``."""
    if updating:
        _merge(recorded, actual)
        return
    assert actual == _project(stored(), actual), (
        "a corpus pin moved; if intentional, regenerate with "
        "`python -m pytest tests/ -m pins --update-golden` and review "
        "the summary"
    )


def plan_change(old: Optional[str], new: str) -> str:
    """``same``; ``estimates`` when only the printed rows and costs moved;
    ``CHANGED`` when the tree itself did (or there was no old plan)."""
    if old == new:
        return "same"
    if old is not None and _ESTIMATES.sub("", old) == _ESTIMATES.sub("", new):
        return "estimates"
    return "CHANGED"


def _number(hex_value: Optional[str]) -> str:
    return "none" if hex_value is None else repr(float.fromhex(hex_value))


def summary_line(
    query_id: str, old: dict, new: dict, plan: Optional[str]
) -> str:
    """One query's regeneration summary: how its plan moved (``unchecked``
    when its golden test did not run), then root cost, simulated seconds
    and job count, old -> new."""
    return (
        f"{query_id}: plan {plan or 'unchecked'}"
        f", root cost {_number(old.get('root_cost'))}"
        f" -> {_number(new.get('root_cost'))}"
        f", sim s {_number(old.get('sim_seconds'))}"
        f" -> {_number(new.get('sim_seconds'))}"
        f", jobs {old.get('jobs', 'none')} -> {new.get('jobs', 'none')}"
    )


def _overlay(pins: dict, values: dict) -> dict:
    """A copy of ``pins`` with every value in ``values`` written over it."""
    out = dict(pins)
    for key, value in values.items():
        out[key] = (
            _overlay(pins.get(key) or {}, value)
            if isinstance(value, dict) else value
        )
    return out


def regenerate(query_ids) -> list[str]:
    """Write the recorded values over the pin file, drop the records of
    queries not in ``query_ids``, and return one summary line per query.
    Records whose tests did not run are kept; keys are written sorted."""
    old = stored()
    pins = _overlay(old, recorded)
    queries = pins["queries"] = {
        query_id: record
        for query_id, record in pins.get("queries", {}).items()
        if query_id in query_ids
    }
    PINS_PATH.write_text(
        json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return [
        summary_line(
            query_id, old.get("queries", {}).get(query_id, {}),
            queries.get(query_id, {}), plan_changes.get(query_id),
        )
        for query_id in sorted(query_ids)
    ]
