"""The performance ledger's by-name layer bindings still resolve.

``benchmarks/ledger/layers.py`` wraps program functions by module path
for its traced run (``run.py --trace 1``).  A refactor that renames or
drops one of them breaks the ledger; this test catches it on every
tier-1 run, not only when the benchmarks run.
"""

import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("ledger_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(layers):
    for _, module_name, path in layers.TARGETS:
        layers._resolve(module_name, path)  # raises LayerMissing


def test_every_rule_has_an_apply_owner(layers):
    assert layers._rule_apply_owners()
