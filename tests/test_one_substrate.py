"""One worker-process substrate: only ``repro.gpos.process`` forks.

The fleet and the morsel pool once each carried their own fork + pipe +
recv loop + death detection + drain, and the two copies drifted (only
one dropped stale replies).  Both now run on
:class:`repro.gpos.process.Supervised`.  This guard parses every module
under ``src/repro/`` and fails if any other module calls ``Process(`` or
``Pipe(`` — so a third copy cannot grow back.  The fleet's
``Manager()`` for the shared stores is not a worker and is allowed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
SUBSTRATE = SRC / "gpos" / "process.py"
FORBIDDEN = {"Process", "Pipe"}


def calls_to(path: Path, names: set[str]) -> list[str]:
    """``file:line name`` of every call to one of ``names`` in ``path``,
    bare (``Process(...)``) or as an attribute (``ctx.Process(...)``)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None
        )
        if name in names:
            found.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
    return found


def test_only_the_substrate_constructs_processes_or_pipes():
    offenders = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        if path != SUBSTRATE
        for hit in calls_to(path, FORBIDDEN)
    ]
    assert offenders == []


def test_the_guard_sees_the_substrate():
    """The scan must not pass vacuously: it finds the substrate's own
    ``Process(`` and ``Pipe(`` calls."""
    hits = calls_to(SUBSTRATE, FORBIDDEN)
    assert {hit.split()[-1] for hit in hits} == FORBIDDEN
