"""Rule registry: all known transformation rules by name.

Rules are self-contained components that can be explicitly activated or
deactivated in Orca configurations (Section 3); the registry is what a
:class:`repro.config.OptimizerConfig` rule subset / disabled set filters.
"""

from __future__ import annotations

from typing import Optional

from repro.config import OptimizerConfig
from repro.xforms.exploration import (
    JoinAssociativity,
    JoinCommutativity,
    SplitDQA,
    SplitGbAgg,
)
from repro.xforms.implementation import (
    Apply2CorrelatedNLJoin,
    CTEAnchor2Sequence,
    CTEConsumer2Scan,
    GbAgg2HashAgg,
    GbAgg2StreamAgg,
    Get2IndexScan,
    Get2TableScan,
    Join2HashJoin,
    Join2MergeJoin,
    Join2NLJoin,
    Limit2Limit,
    Project2ComputeScalar,
    Select2Filter,
    Select2IndexScan,
    UnionAll2Append,
    Window2Window,
)
from repro.xforms.rule import Rule


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule."""
    return [
        JoinCommutativity(),
        JoinAssociativity(),
        SplitGbAgg(),
        SplitDQA(),
        Get2TableScan(),
        Get2IndexScan(),
        Select2Filter(),
        Select2IndexScan(),
        Project2ComputeScalar(),
        Join2HashJoin(),
        Join2MergeJoin(),
        Join2NLJoin(),
        Apply2CorrelatedNLJoin(),
        GbAgg2HashAgg(),
        GbAgg2StreamAgg(),
        Limit2Limit(),
        UnionAll2Append(),
        Window2Window(),
        CTEAnchor2Sequence(),
        CTEConsumer2Scan(),
    ]


def rules_by_name() -> dict[str, Rule]:
    return {rule.name: rule for rule in all_rules()}


def default_rule_set(
    config: OptimizerConfig,
    stage_rules: Optional[frozenset[str]] = None,
    tracer=None,
) -> list[Rule]:
    """Rules active for a session/stage after applying config toggles."""
    rules = []
    for rule in all_rules():
        if not config.rule_enabled(rule.name):
            continue
        if stage_rules is not None and rule.name not in stage_rules:
            continue
        if rule.name in ("JoinCommutativity", "JoinAssociativity") and \
                not config.enable_join_reordering:
            continue
        rules.append(rule)
    if tracer is not None and tracer.enabled:
        tracer.record(
            "rules_selected",
            count=len(rules),
            names=[r.name for r in rules],
            staged=stage_rules is not None,
        )
    return rules
