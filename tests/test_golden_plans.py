"""Golden-plan regression tests over the TPC-DS-style workload.

Each workload query's ``plan.explain()`` output is snapshotted under
``tests/golden/<query_id>.txt``.  A PR that changes any plan shows up as
a reviewable diff in the golden file instead of a silent regression.

Each query's executed plan's ``simulated_seconds()`` is pinned too, as
``float.hex()`` in ``tests/golden/corpus_pins.json`` (see
``tests/pins.py``).  To regenerate after an intentional optimizer
change (every golden file and pin, with a one-line-per-query summary)::

    PYTHONPATH=src python -m pytest tests/ -m pins --update-golden -q

The snapshots are deterministic: the database is built at a fixed scale
and seed, and the optimizer itself is deterministic for a fixed config.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.config import OptimizerConfig
from repro.engine import Cluster, Executor
from repro.optimizer import Orca
from repro.workloads import QUERIES

from tests import pins

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Fixed snapshot environment; changing either invalidates all goldens.
GOLDEN_SCALE = 0.08
GOLDEN_SEGMENTS = 8


@pytest.fixture(scope="module")
def golden_orca(tpcds_db):
    return Orca(tpcds_db, config=OptimizerConfig(segments=GOLDEN_SEGMENTS))


@pytest.mark.pins
@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.id)
def test_golden_plan(query, golden_orca):
    result = golden_orca.optimize(query.sql)
    text = result.explain() + "\n"
    path = GOLDEN_DIR / f"{query.id}.txt"
    if pins.updating:
        old = path.read_text(encoding="utf-8") if path.exists() else None
        pins.plan_changes[query.id] = pins.plan_change(old, text)
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return
    assert path.exists(), (
        f"missing golden snapshot {path.name}; run "
        "python -m pytest tests/ -m pins --update-golden"
    )
    expected = path.read_text(encoding="utf-8")
    assert text == expected, (
        f"plan for {query.id} changed; if intentional, regenerate with "
        "python -m pytest tests/ -m pins --update-golden and review "
        "the diff"
    )


@pytest.mark.pins
@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.id)
def test_simulated_seconds_are_pinned(query, golden_orca, tpcds_db):
    """The executed plan's simulated seconds, to the last bit."""
    result = golden_orca.optimize(query.sql)
    execution = Executor(Cluster(tpcds_db, segments=GOLDEN_SEGMENTS)).execute(
        result.plan, result.output_cols
    )
    pins.check({"queries": {query.id: {
        "sim_seconds": execution.simulated_seconds().hex(),
    }}})


@pytest.mark.pins
def test_no_stale_goldens():
    """Every snapshot corresponds to a current workload query."""
    known = {f"{q.id}.txt" for q in QUERIES}
    on_disk = {p.name for p in GOLDEN_DIR.glob("*.txt")}
    assert on_disk <= known, f"stale golden files: {sorted(on_disk - known)}"
