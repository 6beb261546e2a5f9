"""Rule registry: all known transformation rules by name.

Rules are self-contained components that can be explicitly activated or
deactivated in Orca configurations (Section 3); the registry is what a
:class:`repro.config.OptimizerConfig` rule subset / disabled set filters.
"""

from __future__ import annotations

from typing import Optional

from repro.config import OptimizerConfig
from repro.errors import OptimizerError
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


#: The name of every registered rule.
RULE_NAMES = frozenset(rule.name for rule in all_rules())

#: The rules that explore join orders: disabling both turns cost-based
#: join reordering off (the CLI's ``--disable join_reordering``).
JOIN_REORDERING_RULES = frozenset({"JoinCommutativity", "JoinAssociativity"})


def check_rule_names(config: OptimizerConfig) -> None:
    """Refuse a config naming a rule that does not exist.

    A misspelt name in ``disabled_rules`` or a stage's ``rules`` would
    otherwise plan as if it were not there at all.
    """
    named = [("disabled_rules", config.disabled_rules)]
    named += [
        (f"stage {stage.name!r}", stage.rules)
        for stage in config.stages
        if stage.rules is not None
    ]
    for where, names in named:
        unknown = sorted(set(names) - RULE_NAMES)
        if unknown:
            raise OptimizerError(
                f"unknown rule {', '.join(unknown)} in {where}; known "
                f"rules: {', '.join(sorted(RULE_NAMES))}"
            )


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
        rules.append(rule)
    if tracer is not None and tracer.enabled:
        tracer.record(
            "rules_selected",
            count=len(rules),
            names=[r.name for r in rules],
            staged=stage_rules is not None,
        )
    return rules
